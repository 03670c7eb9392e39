// The M:N event-driven runtime: per-host shared Unix-domain listeners in a
// private socket directory, a fixed work-stealing worker pool with
// blocked-worker compensation, and frames demultiplexed by the reactor —
// same wire format and posting semantics as the other socket runtimes, a
// constant number of threads regardless of endpoint count.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "core/well_known.hpp"
#include "rt/conn_pool.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/frame.hpp"
#include "rt/messenger.hpp"
#include "rt/socket_util.hpp"
#include "sim/sample_objects.hpp"

namespace legion::rt {
namespace {

namespace fs = std::filesystem;

// Writes one well-formed frame straight onto a connected socket, bypassing
// post() and its liveness checks.
void WriteFrame(int fd, const Envelope& env) {
  std::uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(env, header);
  ASSERT_EQ(::write(fd, header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  if (!env.payload.empty()) {
    ASSERT_EQ(::write(fd, env.payload.data(), env.payload.size()),
              static_cast<ssize_t>(env.payload.size()));
  }
}

std::size_t CountEntries(const fs::path& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) ++n;
  return n;
}

class EpollRuntimeTest : public ::testing::Test {
 protected:
  void MakeTopology(Runtime& rt) {
    auto j = rt.topology().add_jurisdiction("j");
    h1_ = rt.topology().add_host("h1", {j}, 1e9);
    h2_ = rt.topology().add_host("h2", {j}, 1e9);
  }

  HostId h1_, h2_;
};

// Endpoints do not own sockets: they share their host's listener. This is
// what makes a million resident objects possible (a listener per object
// would cost an fd per object).
TEST_F(EpollRuntimeTest, EndpointsShareTheirHostListener) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId a = rt.create_endpoint(h1_, "a", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  const EndpointId b = rt.create_endpoint(h1_, "b", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  const EndpointId c = rt.create_endpoint(h2_, "c", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  EXPECT_FALSE(rt.listener_path(a).empty());
  EXPECT_EQ(rt.listener_path(a), rt.listener_path(b));
  EXPECT_NE(rt.listener_path(a), rt.listener_path(c));
  EXPECT_EQ(fs::path(rt.listener_path(a)).parent_path(), rt.socket_dir());
  EXPECT_TRUE(fs::is_socket(rt.listener_path(a)));
  EXPECT_TRUE(fs::is_socket(rt.listener_path(c)));
  EXPECT_EQ(rt.listener_path(EndpointId{9999}), "");
}

TEST_F(EpollRuntimeTest, MessengerRoundTripOverEpoll) {
  EpollRuntime rt;
  MakeTopology(rt);
  Messenger server(rt, h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext& ctx, Reader& args) -> Result<Buffer> {
                     return Buffer::FromString(ctx.call.method + ":" +
                                               args.str());
                   });
  Messenger client(rt, h1_, "client", ExecutionMode::kDriver, nullptr);
  Buffer args;
  Writer w(args);
  w.str("over-epoll");
  auto result = client.call(server.endpoint(), "Echo", std::move(args),
                            EnvTriple::System(), 5'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "Echo:over-epoll");
}

// A worker whose handler blocks in a nested call must not wedge the pool:
// with a single worker, "outer calls inner" only completes because the pool
// notices the blocked worker and spawns a spare to service inner.
TEST_F(EpollRuntimeTest, NestedCallsCompensateBlockedWorkers) {
  EpollOptions options;
  options.workers = 1;
  EpollRuntime rt(options);
  MakeTopology(rt);
  Messenger inner(rt, h2_, "inner", ExecutionMode::kServiced,
                  [](ServerContext&, Reader&) -> Result<Buffer> {
                    return Buffer::FromString("pong");
                  });
  Messenger outer(rt, h2_, "outer", ExecutionMode::kServiced,
                  [&](ServerContext& ctx, Reader&) -> Result<Buffer> {
                    LEGION_ASSIGN_OR_RETURN(
                        Buffer reply,
                        ctx.messenger.call(inner.endpoint(), "Ping", Buffer{},
                                           ctx.call.env, 5'000'000));
                    return Buffer::FromString("outer+" + reply.as_string());
                  });
  Messenger client(rt, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(outer.endpoint(), "Go", Buffer{},
                            EnvTriple::System(), 10'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "outer+pong");
  EXPECT_GE(rt.metrics().counter("rt.epoll.spare_workers").value(), 1u);
}

// Exercises the reactor's incremental frame parser: payloads far larger
// than any single nonblocking read arrive intact.
TEST_F(EpollRuntimeTest, LargePayloadSurvivesFraming) {
  EpollRuntime rt;
  MakeTopology(rt);
  Buffer blob;
  for (int i = 0; i < 100'000; ++i) {
    const auto byte = static_cast<std::uint8_t>(i * 31);
    blob.append(&byte, 1);
  }
  Messenger server(rt, h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader& args) -> Result<Buffer> {
                     return args.buffer();
                   });
  Messenger client(rt, h1_, "client", ExecutionMode::kDriver, nullptr);
  Buffer args;
  Writer w(args);
  w.buffer(blob);
  auto result = client.call(server.endpoint(), "Blob", std::move(args),
                            EnvTriple::System(), 10'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(*result, blob);
}

TEST_F(EpollRuntimeTest, ClosedEndpointIsStaleBinding) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId dead = rt.create_endpoint(h2_, "dead", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
  rt.close_endpoint(dead);
  EXPECT_EQ(
      rt.post(Envelope{src, dead, DeliveryKind::kData, Buffer{}}).code(),
      StatusCode::kStaleBinding);
}

// The M:N invariant itself: ten thousand resident serviced endpoints, and
// the runtime's thread count stays workers + reactor. (ThreadRuntime would
// need ten thousand threads; TcpRuntime ten thousand listener fds plus a
// thread per accepted stream.)
TEST_F(EpollRuntimeTest, ThousandsOfIdleEndpointsCostNoThreads) {
  EpollOptions options;
  options.workers = 2;
  EpollRuntime rt(options);
  MakeTopology(rt);

  constexpr int kEndpoints = 10'000;
  std::vector<EndpointId> eps;
  eps.reserve(kEndpoints);
  for (int i = 0; i < kEndpoints; ++i) {
    eps.push_back(rt.create_endpoint(h2_, "resident", [](Envelope&&) {},
                                     ExecutionMode::kServiced));
    ASSERT_TRUE(eps.back().valid());
  }
  EXPECT_EQ(rt.runtime_threads(), 3u);  // 2 workers + 1 reactor

  // The population is live, not decorative: any member delivers.
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
  const EndpointId probe = eps[kEndpoints / 2];
  ASSERT_TRUE(
      rt.post(Envelope{src, probe, DeliveryKind::kData, Buffer{}}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_stats(probe).received < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(probe).received, 1u);
  EXPECT_EQ(rt.runtime_threads(), 3u);  // plain delivery never blocks
}

// Unlike TcpRuntime, the fault plan is consulted on post (like
// ThreadRuntime): recovery and partition experiments run over real sockets.
TEST_F(EpollRuntimeTest, FaultPlanDropsPostsOverRealSockets) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(h2_, "sink", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);

  rt.faults().take_host_down(h2_);
  for (int i = 0; i < 5; ++i) {
    // Dropped in flight, not bounced: the sender cannot tell.
    ASSERT_TRUE(
        rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
  }
  EXPECT_EQ(rt.stats().dropped, 5u);
  EXPECT_EQ(rt.endpoint_stats(sink).received, 0u);

  rt.faults().bring_host_up(h2_);
  ASSERT_TRUE(
      rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_stats(sink).received < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(sink).received, 1u);
}

TEST_F(EpollRuntimeTest, ListenBacklogOptionIsPlumbed) {
  TcpOptions tcp;
  tcp.listen_backlog = 8;
  EpollRuntime rt(tcp);
  EXPECT_EQ(rt.options().listen_backlog, 8);
  MakeTopology(rt);
  const EndpointId a = rt.create_endpoint(h1_, "a", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  // The listener bound with that backlog accepts at its advertised path.
  const int fd = DialUnix(rt.listener_path(a));
  ASSERT_GE(fd, 0) << std::strerror(errno);
  ::close(fd);
}

// A frame that raced close_endpoint after post() accepted it is bounced to
// its sender (as SimRuntime does), so the caller's Messenger sees
// kStaleBinding at once instead of timing out. The race is forced by
// writing the frame straight onto the host listener after the close.
TEST_F(EpollRuntimeTest, FrameForClosedDestinationBouncesToSender) {
  EpollRuntime rt;
  MakeTopology(rt);
  std::vector<Envelope> got;
  const EndpointId a = rt.create_endpoint(
      h1_, "a", [&](Envelope&& env) { got.push_back(std::move(env)); },
      ExecutionMode::kDriver);
  const EndpointId b = rt.create_endpoint(h1_, "b", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  const EndpointId gone =
      rt.create_endpoint(h1_, "gone", nullptr, ExecutionMode::kDriver);
  const std::string listener = rt.listener_path(b);
  rt.close_endpoint(b);
  rt.close_endpoint(gone);

  const int fd = DialUnix(listener);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  // From a closed source: nobody to bounce to, so it is dropped.
  WriteFrame(fd, Envelope{gone, b, DeliveryKind::kData,
                          Buffer::FromString("orphan")});
  Envelope data{a, b, DeliveryKind::kData, Buffer::FromString("payload")};
  data.trace_id = 7;
  data.span_id = 11;
  data.parent_span_id = 5;
  WriteFrame(fd, data);

  // Same stream, so by the time a's bounce arrives the orphan frame has
  // been handled too.
  EXPECT_TRUE(rt.wait(a, [&] { return !got.empty(); }, 10'000'000));
  ::close(fd);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].kind, DeliveryKind::kBounce);
  EXPECT_EQ(got[0].src, b);
  EXPECT_EQ(got[0].dst, a);
  EXPECT_EQ(got[0].payload.as_string(), "payload");
  EXPECT_EQ(got[0].trace_id, 7u);
  EXPECT_EQ(got[0].span_id, 11u);
  EXPECT_EQ(got[0].parent_span_id, 5u);
  EXPECT_EQ(rt.stats().bounced, 1u);
  // A bounce is never bounced: nothing further arrives.
  EXPECT_FALSE(rt.wait(a, [&] { return got.size() > 1; }, 50'000));
}

// Each runtime owns a distinct private directory for its host listeners.
TEST_F(EpollRuntimeTest, EachRuntimeOwnsAPrivateSocketDirectory) {
  EpollRuntime one;
  EpollRuntime two;
  ASSERT_FALSE(one.socket_dir().empty());
  ASSERT_FALSE(two.socket_dir().empty());
  EXPECT_NE(one.socket_dir(), two.socket_dir());
  for (const std::string& dir : {one.socket_dir(), two.socket_dir()}) {
    struct stat st{};
    ASSERT_EQ(::stat(dir.c_str(), &st), 0) << dir;
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    EXPECT_EQ(st.st_mode & 0777, 0700u) << dir;
    EXPECT_EQ(st.st_uid, ::getuid());
  }

  // Same host id in both runtimes, two different listeners.
  MakeTopology(one);
  const HostId h1_one = h1_;
  MakeTopology(two);
  const EndpointId a = one.create_endpoint(h1_one, "a", [](Envelope&&) {},
                                           ExecutionMode::kServiced);
  const EndpointId b = two.create_endpoint(h1_, "b", [](Envelope&&) {},
                                           ExecutionMode::kServiced);
  EXPECT_NE(one.listener_path(a), two.listener_path(b));
}

// Teardown removes every socket file and the directory itself; dialing the
// dead listener afterwards is a stale binding, not a hang or kUnavailable.
TEST_F(EpollRuntimeTest, TeardownRemovesSocketDirectory) {
  std::string dir;
  std::string listener;
  {
    EpollRuntime rt;
    MakeTopology(rt);
    const EndpointId a = rt.create_endpoint(h1_, "a", [](Envelope&&) {},
                                            ExecutionMode::kServiced);
    rt.create_endpoint(h2_, "b", [](Envelope&&) {}, ExecutionMode::kServiced);
    dir = rt.socket_dir();
    listener = rt.listener_path(a);
    EXPECT_EQ(CountEntries(dir), 2u);  // one listener per host
  }
  EXPECT_FALSE(fs::exists(listener));
  EXPECT_FALSE(fs::exists(dir));

  ASSERT_EQ(listener, ConnPool::UnixSocketPath(dir, h1_.value));
  obs::Registry registry;
  ConnPool pool(TcpOptions{}, registry, ConnPool::UnixDialer(dir));
  EXPECT_EQ(pool.send(h1_.value, Envelope{}).code(),
            StatusCode::kStaleBinding);
}

// Creating and destroying many runtimes leaves the temporary directory as
// it was. TMPDIR points at a fresh directory so parallel tests cannot
// disturb the count.
TEST_F(EpollRuntimeTest, ThousandRuntimesLeaveTmpAsItWas) {
  char tmpl[] = "/tmp/legion-tmpdir.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const char* saved = std::getenv("TMPDIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("TMPDIR", tmpl, 1);
  for (int i = 0; i < 1000; ++i) {
    EpollOptions options;
    options.workers = 1;
    EpollRuntime rt(options);
    EXPECT_EQ(fs::path(rt.socket_dir()).parent_path(), fs::path(tmpl));
    if (i % 100 == 0) {
      // Some with a bound listener, most bare.
      MakeTopology(rt);
      rt.create_endpoint(h1_, "a", [](Envelope&&) {},
                         ExecutionMode::kServiced);
    }
  }
  EXPECT_EQ(CountEntries(tmpl), 0u);
  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  fs::remove_all(tmpl);
}

// The headline: the full Legion core bootstrapped over the M:N runtime.
TEST_F(EpollRuntimeTest, WholeLegionSystemBootsOverEpoll) {
  EpollRuntime rt;
  MakeTopology(rt);
  core::LegionSystem system(rt, core::SystemConfig{});
  ASSERT_TRUE(sim::RegisterSampleObjects(system.registry()).ok());
  const Status st = system.bootstrap();
  ASSERT_TRUE(st.ok()) << st.to_string();

  auto client = system.make_client(h1_);
  core::wire::DeriveRequest derive;
  derive.name = "Worker";
  derive.instance_impl = std::string(sim::WorkerImpl::kName);
  auto cls = client->derive(core::LegionObjectLoid(), derive);
  ASSERT_TRUE(cls.ok()) << cls.status().to_string();

  auto object = client->create(cls->loid, sim::WorkerInit(0, 0));
  ASSERT_TRUE(object.ok()) << object.status().to_string();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->ref(object->loid).call("Increment", Buffer{}).ok());
  }
  auto raw = client->ref(object->loid).call("Get", Buffer{});
  ASSERT_TRUE(raw.ok()) << raw.status().to_string();
  Reader r(*raw);
  EXPECT_EQ(r.i64(), 3);
}

}  // namespace
}  // namespace legion::rt
