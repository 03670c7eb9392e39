// Signals mid-transfer must not kill a socket delivery (regression: the
// read/write loops treated EINTR as fatal, so any signal landing during a
// blocking socket call dropped the message). Runs on ProcessRuntime's
// Unix-domain transport; the suite keeps the name it had when the same
// loops served a TCP transport.
//
// An interval timer showers the process with SIGALRM (installed WITHOUT
// SA_RESTART, so blocking syscalls genuinely return EINTR) while large
// payloads — big enough to fill the socket buffer and block the writer —
// stream between endpoints. Every transfer must complete intact.
#include <gtest/gtest.h>

#include <sys/time.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <thread>
#include <vector>

#include "rt/messenger.hpp"
#include "rt/process_runtime.hpp"

namespace legion::rt {
namespace {

void NoopHandler(int) {}

// Scoped SIGALRM storm: ~every 2 ms for the lifetime of the object.
class SignalStorm {
 public:
  SignalStorm() {
    struct sigaction sa = {};
    sa.sa_handler = NoopHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately NOT SA_RESTART
    sigaction(SIGALRM, &sa, &old_action_);

    itimerval timer = {};
    timer.it_interval.tv_usec = 2'000;
    timer.it_value.tv_usec = 2'000;
    setitimer(ITIMER_REAL, &timer, &old_timer_);
  }
  ~SignalStorm() {
    setitimer(ITIMER_REAL, &old_timer_, nullptr);
    sigaction(SIGALRM, &old_action_, nullptr);
  }

 private:
  struct sigaction old_action_ = {};
  itimerval old_timer_ = {};
};

TEST(TcpEintrTest, SignalsMidTransferDoNotDropMessages) {
  ProcessRuntime rt;
  auto j = rt.topology().add_jurisdiction("j");
  const HostId h1 = rt.topology().add_host("h1", {j}, 1e9);
  const HostId h2 = rt.topology().add_host("h2", {j}, 1e9);

  // 4 MiB payloads: far beyond the socket buffer, so both the writer and
  // the acceptor's reader block mid-transfer — exactly where a signal used
  // to be fatal.
  std::vector<std::uint8_t> raw(4 * 1024 * 1024);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::uint8_t>(i * 131);
  }
  const Buffer blob{std::move(raw)};

  Messenger server(rt, h2, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader& args) -> Result<Buffer> {
                     // Round-trip the payload so the reply leg is equally
                     // exposed to interruption.
                     return args.buffer();
                   });
  Messenger client(rt, h1, "client", ExecutionMode::kDriver, nullptr);

  SignalStorm storm;
  constexpr int kTransfers = 8;
  for (int i = 0; i < kTransfers; ++i) {
    Buffer args;
    Writer w(args);
    w.buffer(blob);
    auto result = client.call(server.endpoint(), "Blob", std::move(args),
                              EnvTriple::System(), 30'000'000);
    ASSERT_TRUE(result.ok()) << "transfer " << i << ": "
                             << result.status().to_string();
    ASSERT_EQ(*result, blob) << "transfer " << i << " corrupted";
  }

  // The sender bumps `delivered` after the frame is already readable, so the
  // final reply's tick can land just after call() returns — give the server's
  // service thread a beat to finish its post() before asserting.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (rt.stats().delivered < 2u * kTransfers &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(rt.stats().delivered, 2u * kTransfers);
}

}  // namespace
}  // namespace legion::rt
