// Regression tests for the accept-path bugs that used to kill endpoints
// under load, run on ProcessRuntime's Unix-domain transport:
//   1. any non-EINTR accept() failure ended the acceptor loop — one aborted
//      handshake or a moment of fd pressure permanently deafened the
//      endpoint while its socket stayed bound (so not even the
//      stale-binding repair loop could notice);
//   2. the listen backlog was hardcoded to 64, so connect storms overflowed
//      the accept queue regardless of configuration;
//   3. a listener killed without cleanup leaves its socket file behind, and
//      bind() on that path fails with EADDRINUSE until it is removed — the
//      restarted endpoint must still come up on the same path;
//   4. conn_fds/readers slots were never compacted, so connection churn on a
//      long-lived endpoint grew both vectors without bound.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "rt/frame.hpp"
#include "rt/process_runtime.hpp"
#include "rt/socket_util.hpp"

namespace legion::rt {
namespace {

sockaddr_un UnixAddress(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  return addr;
}

// A non-blocking connect: on AF_UNIX it completes at once when the
// listener's accept queue has room and fails with EAGAIN when it is full.
// Returns the connected fd, or -1.
int ConnectNonBlocking(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const sockaddr_un addr = UnixAddress(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class AcceptRobustnessTest : public ::testing::Test {
 protected:
  void MakeTopology(ProcessRuntime& rt) {
    auto j = rt.topology().add_jurisdiction("j");
    h1_ = rt.topology().add_host("h1", {j}, 1e9);
    h2_ = rt.topology().add_host("h2", {j}, 1e9);
  }

  HostId h1_, h2_;
};

// Bug 1: a connection arriving while the process is out of descriptors makes
// accept() fail with EMFILE. The acceptor must back off and retry — the
// queued connection is accepted once descriptors return, and the frame it
// carries is delivered. The old loop exited instead, deafening the endpoint
// forever.
TEST_F(AcceptRobustnessTest, AcceptorSurvivesFdExhaustion) {
  ProcessRuntime rt;
  MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(h2_, "sink", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);

  // The raw client socket is created *before* descriptors run out (connect
  // on an existing fd needs no new descriptor in this process), but only
  // connected after, so the acceptor meets the pending connection with
  // accept() returning EMFILE — not before.
  const int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  const sockaddr_un addr =
      UnixAddress(ConnPool::UnixSocketPath(rt.socket_dir(), sink.value));

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> fillers;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    fillers.push_back(fd);
  }

  ASSERT_EQ(::connect(client, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);

  // Give the acceptor time to wake up on the pending connection and slam
  // into EMFILE at least once.
  const auto retry_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (rt.metrics().counter("rt.proc.accept_retries").value() == 0 &&
         std::chrono::steady_clock::now() < retry_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(rt.metrics().counter("rt.proc.accept_retries").value(), 1u);

  for (int fd : fillers) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // Descriptors are back: the backed-off acceptor picks the connection up
  // and a hand-rolled frame written on it reaches the endpoint's inbox.
  Envelope env{src, sink, DeliveryKind::kData, Buffer{}};
  std::uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(env, header);
  ASSERT_EQ(::send(client, header, sizeof header, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof header));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_stats(sink).received < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rt.endpoint_stats(sink).received, 1u);
  ::close(client);
}

// Bug 2: the backlog really controls how many connections the kernel
// queues. A backlog-1 listener admits a couple of un-accepted connections;
// a deep one admits the whole burst.
TEST_F(AcceptRobustnessTest, ListenBacklogIsConfigurable) {
  constexpr int kBurst = 12;
  const SocketDir dir;
  ASSERT_FALSE(dir.path().empty());
  auto admitted = [&dir](int backlog) {
    const std::string path = dir.path() + "/backlog.sock";
    const int listener = CreateUnixListener(path, backlog);
    EXPECT_GE(listener, 0);
    // Never accept: the connections that complete are exactly the queue the
    // kernel was willing to hold for us.
    int done = 0;
    std::vector<int> fds;
    for (int i = 0; i < kBurst; ++i) {
      const int fd = ConnectNonBlocking(path);
      if (fd >= 0) {
        ++done;
        fds.push_back(fd);
      }
    }
    for (int fd : fds) ::close(fd);
    ::close(listener);
    return done;
  };

  const int shallow = admitted(1);
  const int deep = admitted(kBurst * 2);
  EXPECT_EQ(deep, kBurst);
  EXPECT_LT(shallow, deep);

  // And the runtime actually carries the knob (the default is SOMAXCONN,
  // not the old hardcoded 64).
  ProcessOptions options;
  options.sockets.listen_backlog = 7;
  ProcessRuntime rt(options);
  EXPECT_EQ(rt.options().sockets.listen_backlog, 7);
  EXPECT_EQ(SocketOptions{}.listen_backlog, SOMAXCONN);
}

// Bug 3: a listener that dies without cleanup (kill -9 of its process)
// leaves its socket file behind. Dialing it is refused — the stale binding
// — and a fresh listener on the same path must still bind, because
// CreateUnixListener removes the orphaned file first.
TEST_F(AcceptRobustnessTest, StaleSocketFileDoesNotBlockRebind) {
  const SocketDir dir;
  ASSERT_FALSE(dir.path().empty());
  const std::string path = dir.path() + "/ep-1.sock";
  const int first = CreateUnixListener(path, 4);
  ASSERT_GE(first, 0);
  ::close(first);  // the listener dies; nothing unlinks its file
  ASSERT_TRUE(std::filesystem::is_socket(path));
  const int refused = DialUnix(path);
  const int err = errno;
  EXPECT_LT(refused, 0);
  EXPECT_EQ(err, ECONNREFUSED) << std::strerror(err);

  const int second = CreateUnixListener(path, 4);
  ASSERT_GE(second, 0) << "rebind over a stale socket file failed: "
                       << std::strerror(errno);
  const int client = DialUnix(path);
  EXPECT_GE(client, 0) << std::strerror(errno);
  if (client >= 0) ::close(client);
  ::close(second);
}

// Bug 4: every reconnect used to append a fresh conn_fds/readers slot; a
// long-lived endpoint whose peers churn (here: an aggressive idle reaper
// closing the pool side after every post) accumulated dead slots without
// bound. Slots must be reclaimed and reused.
TEST_F(AcceptRobustnessTest, ReaderSlotsAreReusedUnderConnectionChurn) {
  ProcessOptions options;
  options.sockets.idle_reap = std::chrono::microseconds(1);  // reap each post
  ProcessRuntime rt(options);
  MakeTopology(rt);
  const EndpointId sink = rt.create_endpoint(h2_, "sink", [](Envelope&&) {},
                                             ExecutionMode::kServiced);
  const EndpointId src =
      rt.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);

  constexpr std::uint64_t kRounds = 20;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(
        rt.post(Envelope{src, sink, DeliveryKind::kData, Buffer{}}).ok());
    // Let the reaped connection's reader notice EOF and vacate its slot
    // before the next dial arrives.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Each round redialed (the pool reaped the idle socket every time)...
  EXPECT_GE(rt.metrics().counter("rt.proc.pool.dials").value(), kRounds);
  // ...yet the server side cycled through a handful of reader slots, not
  // one per connection. (The bound is loose only for scheduling jitter —
  // the broken behavior is exactly kRounds slots.)
  EXPECT_LE(rt.metrics().counter("rt.proc.reader_slots").value(),
            kRounds / 2);
  EXPECT_GE(rt.metrics().counter("rt.proc.reader_slots").value(), 1u);
}

}  // namespace
}  // namespace legion::rt
