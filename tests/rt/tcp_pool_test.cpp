// The persistent-connection pool behind ProcessRuntime's post: keep-alive
// reuse, bounded fd usage under sustained load, connect-failure
// classification (EMFILE is resource pressure, not a stale binding), and
// pool consistency under endpoint close/reopen races (run under TSan in
// CI). Typed over ProcessRuntime (thread-per-connection, Unix-domain
// sockets), whose post goes through ConnPool, and EpollRuntime, which
// delivers in memory and has no pool. For EpollRuntime
// each case checks the property the pool exists to give instead of the
// pool's own counters: no dial per message, a descriptor count that does
// not grow, and delivery that fd exhaustion cannot turn into a stale
// binding.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "rt/epoll_runtime.hpp"
#include "rt/messenger.hpp"
#include "rt/process_runtime.hpp"

namespace legion::rt {
namespace {

// Descriptors this process holds right now.
std::size_t OpenFds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// Whether RuntimeT sends through a ConnPool (and takes SocketOptions).
template <typename RuntimeT>
constexpr bool kHasConnPool = std::is_same_v<RuntimeT, ProcessRuntime>;

template <typename RuntimeT>
std::unique_ptr<RuntimeT> MakeRuntime(const SocketOptions& sockets) {
  if constexpr (kHasConnPool<RuntimeT>) {
    ProcessOptions options;
    options.sockets = sockets;
    return std::make_unique<RuntimeT>(std::move(options));
  } else {
    return std::make_unique<RuntimeT>();
  }
}

template <typename RuntimeT>
class TcpPoolTest : public ::testing::Test {
 protected:
  void MakeTopology(Runtime& rt) {
    auto j = rt.topology().add_jurisdiction("j");
    h1_ = rt.topology().add_host("h1", {j}, 1e9);
    h2_ = rt.topology().add_host("h2", {j}, 1e9);
  }

  HostId h1_, h2_;
};

using SocketRuntimes = ::testing::Types<ProcessRuntime, EpollRuntime>;
TYPED_TEST_SUITE(TcpPoolTest, SocketRuntimes);

TYPED_TEST(TcpPoolTest, RoundTripsReuseConnections) {
  TypeParam rt;
  this->MakeTopology(rt);
  Messenger server(rt, this->h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader& args) -> Result<Buffer> {
                     return Buffer::FromString(args.str());
                   });
  Messenger client(rt, this->h1_, "client", ExecutionMode::kDriver, nullptr);
  const std::size_t fds_before = OpenFds();

  constexpr int kCalls = 200;
  for (int i = 0; i < kCalls; ++i) {
    Buffer args;
    Writer w(args);
    w.str("ping");
    auto reply = client.call(server.endpoint(), "Echo", std::move(args),
                             EnvTriple::System(), 5'000'000);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  }

  // One request and one reply frame per call, but only two sockets total:
  // client->server and server->client, dialed once each.
  EXPECT_LE(rt.metrics().counter("rt.proc.pool.dials").value(), 2u);
  if constexpr (kHasConnPool<TypeParam>) {
    EXPECT_GE(rt.metrics().counter("rt.proc.pool.pool_hits").value(),
              2u * kCalls - 2u);
  } else {
    // In-memory delivery: no socket at all.
    EXPECT_EQ(OpenFds(), fds_before);
  }
  EXPECT_EQ(rt.metrics().counter("rt.proc.pool.reconnects").value(), 0u);
}

TYPED_TEST(TcpPoolTest, SoakHoldsBoundedFdsOverTenThousandPosts) {
  TypeParam rt;
  this->MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(
      this->h2_, "sink", [](Envelope&&) {}, ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);
  const std::size_t fds_before = OpenFds();

  constexpr std::uint64_t kPosts = 10'000;
  for (std::uint64_t i = 0; i < kPosts; ++i) {
    const Status st =
        rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}});
    ASSERT_TRUE(st.ok()) << "post " << i << ": " << st.to_string();
  }
  // Everything arrives eventually (frames multiplex over one stream)...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_stats(sink).received < kPosts &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(sink).received, kPosts);
  // ...yet the client side never held more sockets than the pool bound, and
  // dialed a handful of times, not ten thousand.
  if constexpr (kHasConnPool<TypeParam>) {
    const std::size_t max_idle = rt.options().sockets.max_idle_per_peer;
    const auto open =
        rt.metrics().gauge("rt.proc.pool.open_connections").value();
    EXPECT_GT(open, 0);
    EXPECT_LE(open, static_cast<std::int64_t>(max_idle));
    EXPECT_LE(rt.metrics().counter("rt.proc.pool.dials").value(), max_idle);
  } else {
    EXPECT_EQ(OpenFds(), fds_before);
    EXPECT_EQ(rt.metrics().counter("rt.proc.pool.dials").value(), 0u);
  }
}

TYPED_TEST(TcpPoolTest, IdleConnectionsAreReaped) {
  SocketOptions options;
  options.idle_reap = std::chrono::microseconds(1);  // everything is stale
  const auto owned = MakeRuntime<TypeParam>(options);
  TypeParam& rt = *owned;
  this->MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(
      this->h2_, "sink", [](Envelope&&) {}, ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);
  const std::size_t fds_before = OpenFds();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if constexpr (kHasConnPool<TypeParam>) {
    // Every acquire found only an expired socket, reaped it, and redialed.
    EXPECT_GE(rt.metrics().counter("rt.proc.pool.reaped").value(), 4u);
    EXPECT_GE(rt.metrics().counter("rt.proc.pool.dials").value(), 5u);
  } else {
    // Nothing is held between posts, so nothing is left to reap.
    EXPECT_EQ(rt.metrics().gauge("rt.proc.pool.open_connections").value(), 0);
    EXPECT_EQ(OpenFds(), fds_before);
  }
}

// Regression: fd exhaustion during dial used to be reported as
// kStaleBinding ("connection refused"), which triggered binding
// invalidation and a pointless Section 4.1.4 repair storm — precisely when
// the process was starved of descriptors and per-message sockets were the
// cause. It must surface as kUnavailable where a post dials, and must not
// stop in-memory delivery at all.
TYPED_TEST(TcpPoolTest, FdExhaustionIsUnavailableNotStaleBinding) {
  SocketOptions options;
  options.max_idle_per_peer = 0;  // cache nothing: a dial per post
  const auto owned = MakeRuntime<TypeParam>(options);
  TypeParam& rt = *owned;
  this->MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(
      this->h2_, "sink", [](Envelope&&) {}, ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);
  const std::size_t fds_before = OpenFds();
  ASSERT_TRUE(
      rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
  // The receiving side accepted that connection and closes it at EOF. Wait
  // for the close: a descriptor it freed after the table below is filled
  // would let the next dial succeed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((rt.endpoint_stats(sink).received < 1 || OpenFds() > fds_before) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(OpenFds(), fds_before);

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  // Fill every descriptor slot below the lowered limit so the next
  // socket() genuinely fails with EMFILE.
  std::vector<int> fillers;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    fillers.push_back(fd);
  }

  const Status st = rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}});
  if constexpr (kHasConnPool<TypeParam>) {
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
  } else {
    EXPECT_TRUE(st.ok()) << st.to_string();
  }

  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // With descriptors back, the same destination is immediately reachable:
  // nothing was invalidated.
  EXPECT_TRUE(
      rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
}

// Pool consistency while destination endpoints churn: posters race against
// close/reopen of their target. Every post must resolve to ok, a stale
// binding (endpoint gone / listener refused), or unavailable — never crash,
// deadlock, leak a connection past the bound, or deliver to a dead inbox.
TYPED_TEST(TcpPoolTest, PoolSurvivesEndpointCloseReopenRaces) {
  TypeParam rt;
  this->MakeTopology(rt);
  const EndpointId src =
      rt.create_endpoint(this->h1_, "src", nullptr, ExecutionMode::kDriver);

  std::atomic<std::uint64_t> current{0};
  auto reopen = [&] {
    const EndpointId id = rt.create_endpoint(
        this->h2_, "victim", [](Envelope&&) {}, ExecutionMode::kServiced);
    current.store(id.value);
    return id;
  };
  EndpointId victim = reopen();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok_posts{0};
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&] {
      while (!stop.load()) {
        const EndpointId dst{current.load()};
        const Status st =
            rt.post(Envelope{src, dst, DeliveryKind::kData, Buffer{}});
        if (st.ok()) {
          ok_posts.fetch_add(1);
        } else {
          EXPECT_TRUE(st.code() == StatusCode::kStaleBinding ||
                      st.code() == StatusCode::kUnavailable)
              << st.to_string();
        }
      }
    });
  }
  for (int round = 0; round < 40; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rt.close_endpoint(victim);
    victim = reopen();
  }
  stop.store(true);
  for (auto& t : posters) t.join();

  EXPECT_GT(ok_posts.load(), 0u);
  // The final incarnation still works.
  EXPECT_TRUE(
      rt.post(Envelope{src, victim, DeliveryKind::kData, Buffer{}}).ok());
}

TYPED_TEST(TcpPoolTest, PerMessageAblationStillDelivers) {
  SocketOptions options;
  options.max_idle_per_peer = 0;  // cache nothing: a dial per frame
  const auto owned = MakeRuntime<TypeParam>(options);
  TypeParam& rt = *owned;
  this->MakeTopology(rt);
  Messenger server(rt, this->h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader&) -> Result<Buffer> {
                     return Buffer::FromString("pong");
                   });
  Messenger client(rt, this->h1_, "client", ExecutionMode::kDriver, nullptr);
  const std::size_t fds_before = OpenFds();
  constexpr std::uint64_t kCalls = 50;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    auto reply = client.call(server.endpoint(), "Ping", Buffer{},
                             EnvTriple::System(), 5'000'000);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  }
  if constexpr (kHasConnPool<TypeParam>) {
    // The ablation really does pay one connect per frame.
    EXPECT_GE(rt.metrics().counter("rt.proc.pool.dials").value(), 2u * kCalls);
  } else {
    // There is nothing to ablate: no frame needs a connection.
    EXPECT_EQ(rt.metrics().counter("rt.proc.pool.dials").value(), 0u);
    EXPECT_EQ(OpenFds(), fds_before);
  }
  EXPECT_EQ(rt.metrics().counter("rt.proc.pool.pool_hits").value(), 0u);
}

}  // namespace
}  // namespace legion::rt
