// The M:N in-process runtime: post() delivers straight into the
// destination's mailbox, a fixed work-stealing worker pool with
// blocked-worker compensation drains the mailboxes, and the thread count is
// constant regardless of endpoint count. No sockets, no reactor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "core/well_known.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/messenger.hpp"
#include "sim/sample_objects.hpp"

namespace legion::rt {
namespace {

namespace fs = std::filesystem;

std::size_t CountEntries(const fs::path& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) ++n;
  return n;
}

// Descriptors this process holds right now.
std::size_t OpenFds() { return CountEntries("/proc/self/fd"); }

// Polls `done` until it holds or ten seconds pass.
template <typename Pred>
bool WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return done();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
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

// A payload far larger than any socket buffer arrives intact: the
// marshalled Buffer moves into the callee's mailbox whole.
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
// the runtime's thread count stays the worker pool. (ThreadRuntime would
// need ten thousand threads; ProcessRuntime ten thousand listener fds plus a
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
  EXPECT_EQ(rt.runtime_threads(), 2u);  // the 2 workers, nothing else

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
  EXPECT_EQ(rt.runtime_threads(), 2u);  // plain delivery never blocks
}

// The fault plan is consulted on post (as in ThreadRuntime): recovery and
// partition experiments run unchanged.
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

// post() gives its verdict synchronously: a post to a closed destination
// fails with kStaleBinding at once, is not counted as sent or delivered, and
// nothing comes back to the sender later as a bounce.
TEST_F(EpollRuntimeTest, PostToClosedDestinationFailsSynchronously) {
  EpollRuntime rt;
  MakeTopology(rt);
  std::vector<Envelope> got;
  const EndpointId a = rt.create_endpoint(
      h1_, "a", [&](Envelope&& env) { got.push_back(std::move(env)); },
      ExecutionMode::kDriver);
  const EndpointId b = rt.create_endpoint(h1_, "b", [](Envelope&&) {},
                                          ExecutionMode::kServiced);
  rt.close_endpoint(b);

  EXPECT_EQ(rt.post(Envelope{a, b, DeliveryKind::kData,
                             Buffer::FromString("payload")})
                .code(),
            StatusCode::kStaleBinding);
  EXPECT_FALSE(rt.wait(a, [&] { return !got.empty(); }, 50'000));
  EXPECT_EQ(rt.stats().bounced, 0u);
  EXPECT_EQ(rt.stats().delivered, 0u);
  EXPECT_EQ(rt.endpoint_stats(a).sent, 0u);
}

// A conversation whose callee closes between calls: every call either
// completes or fails with kStaleBinding at once — never kTimeout at the
// deadline. A request post() accepted before the close is drained by
// close_endpoint and answered; one posted after it is refused.
TEST_F(EpollRuntimeTest, CalleeClosingMidConversationFailsFastWithStaleBinding) {
  EpollRuntime rt;
  MakeTopology(rt);
  auto server = std::make_unique<Messenger>(
      rt, h2_, "server", ExecutionMode::kServiced,
      [](ServerContext&, Reader& args) -> Result<Buffer> {
        return Buffer::FromString(args.str());
      });
  Messenger client(rt, h1_, "client", ExecutionMode::kDriver, nullptr);
  const EndpointId callee = server->endpoint();

  std::atomic<int> completed{0};
  std::thread closer([&] {
    while (completed.load() < 50) std::this_thread::yield();
    server->close();
  });
  constexpr SimTime kDeadlineUs = 10'000'000;
  Status failure;
  for (int i = 0; i < 1'000'000 && failure.ok(); ++i) {
    Buffer args;
    Writer w(args);
    w.str("ping");
    const auto t0 = std::chrono::steady_clock::now();
    auto reply = client.call(callee, "Echo", std::move(args),
                             EnvTriple::System(), kDeadlineUs);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
    if (reply.ok()) {
      EXPECT_EQ(reply->as_string(), "ping");
      completed.fetch_add(1);
    } else {
      failure = reply.status();
    }
  }
  closer.join();
  EXPECT_GE(completed.load(), 50);
  EXPECT_EQ(failure.code(), StatusCode::kStaleBinding) << failure.to_string();
}

// Posters race close/reopen of their destination. Every post is either
// refused with kStaleBinding or handled: close_endpoint drains what post()
// accepted, so no accepted message is lost or left in a dead inbox.
TEST_F(EpollRuntimeTest, PostsSurviveEndpointCloseReopenRaces) {
  EpollRuntime rt;
  MakeTopology(rt);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);

  std::atomic<std::uint64_t> handled{0};
  std::atomic<std::uint64_t> current{0};
  auto reopen = [&] {
    const EndpointId id = rt.create_endpoint(
        h2_, "victim", [&](Envelope&&) { handled.fetch_add(1); },
        ExecutionMode::kServiced);
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
          EXPECT_EQ(st.code(), StatusCode::kStaleBinding) << st.to_string();
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
  rt.close_endpoint(victim);
  EXPECT_EQ(handled.load(), ok_posts.load() + 1);
}

// Delivery is in memory: a thousand endpoints carrying ten thousand posts
// open no descriptor, start no thread beyond the worker pool, and leave
// nothing in TMPDIR.
TEST_F(EpollRuntimeTest, DeliveryOpensNoDescriptorsThreadsOrFiles) {
  char tmpl[] = "/tmp/legion-tmpdir.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const char* saved = std::getenv("TMPDIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("TMPDIR", tmpl, 1);
  const std::size_t fds_before = OpenFds();
  {
    EpollOptions options;
    options.workers = 2;
    EpollRuntime rt(options);
    MakeTopology(rt);
    const std::size_t threads = rt.runtime_threads();
    EXPECT_EQ(threads, 2u);

    constexpr std::uint64_t kEndpoints = 1'000;
    constexpr std::uint64_t kPosts = 10'000;
    std::atomic<std::uint64_t> handled{0};
    std::vector<EndpointId> eps;
    for (std::uint64_t i = 0; i < kEndpoints; ++i) {
      eps.push_back(rt.create_endpoint(
          h2_, "resident", [&](Envelope&&) { handled.fetch_add(1); },
          ExecutionMode::kServiced));
    }
    const EndpointId src =
        rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
    for (std::uint64_t i = 0; i < kPosts; ++i) {
      const Status st = rt.post(
          Envelope{src, eps[i % kEndpoints], DeliveryKind::kData, Buffer{}});
      ASSERT_TRUE(st.ok()) << "post " << i << ": " << st.to_string();
    }
    EXPECT_TRUE(WaitFor([&] { return handled.load() == kPosts; }));
    EXPECT_EQ(OpenFds(), fds_before);
    EXPECT_EQ(rt.runtime_threads(), threads);
    EXPECT_EQ(CountEntries(tmpl), 0u);
  }
  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  fs::remove_all(tmpl);
}

// Creating and destroying many runtimes, some carrying endpoints and posts,
// leaves the temporary directory as it was: the runtime makes no socket
// directory. TMPDIR points at a fresh directory so parallel tests cannot
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
    if (i % 100 == 0) {
      // Some with live endpoints and a delivered post, most bare.
      MakeTopology(rt);
      const EndpointId sink = rt.create_endpoint(
          h2_, "sink", [](Envelope&&) {}, ExecutionMode::kServiced);
      const EndpointId src =
          rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
      EXPECT_TRUE(
          rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
      EXPECT_TRUE(
          WaitFor([&] { return rt.endpoint_stats(sink).received == 1; }));
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

// Posts from one sender to one destination are handled in post order, as
// they were when a single socket stream carried them.
TEST_F(EpollRuntimeTest, PostsFromOneSenderAreHandledInPostOrder) {
  EpollRuntime rt;
  MakeTopology(rt);
  constexpr std::uint64_t kPosts = 10'000;
  // Written only by the sink's handler, which never runs concurrently with
  // itself; read after `handled` shows every post.
  std::vector<std::uint64_t> order;
  order.reserve(kPosts);
  std::atomic<std::uint64_t> handled{0};
  const EndpointId sink = rt.create_endpoint(
      h2_, "sink",
      [&](Envelope&& env) {
        Reader r(env.payload);
        order.push_back(r.u64());
        handled.fetch_add(1);
      },
      ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
  for (std::uint64_t i = 0; i < kPosts; ++i) {
    Buffer payload;
    Writer w(payload);
    w.u64(i);
    ASSERT_TRUE(
        rt.post(Envelope{src, sink, DeliveryKind::kData, std::move(payload)})
            .ok());
  }
  ASSERT_TRUE(WaitFor([&] { return handled.load() == kPosts; }));
  ASSERT_EQ(order.size(), kPosts);
  for (std::uint64_t i = 0; i < kPosts; ++i) {
    if (order[i] != i) {
      ADD_FAILURE() << "position " << i << " holds post " << order[i];
      break;
    }
  }
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
