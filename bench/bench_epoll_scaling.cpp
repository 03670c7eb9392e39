// E18 — resident-object scalability of the M:N runtime: how many idle
// endpoints (active Legion objects awaiting invocation) one process can
// keep resident, against the thread-per-object baseline.
//
// ThreadRuntime spends an OS thread per serviced endpoint, so its resident
// population is capped by kernel thread limits and stack reservations —
// thousands. EpollRuntime decouples objects from threads (a fixed worker
// pool), so a million idle objects cost a million small
// mailbox structs and zero extra threads. The verdict line asserts the
// headline ratio: >= 100x more resident idle objects than the demonstrated
// thread-per-object ceiling, with a constant runtime thread count.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/epoll_runtime.hpp"
#include "rt/thread_runtime.hpp"
#include "sim/table.hpp"

namespace legion::bench {
namespace {

// OS threads in this process, from /proc/self/status. Measured as deltas so
// the table gates the runtime's own thread appetite, not the harness's.
long ProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      long n = 0;
      in >> n;
      return n;
    }
    in.ignore(4096, '\n');
  }
  return -1;
}

long MaxRssKb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

struct RowResult {
  long extra_threads = 0;  // threads the runtime added for this population
  std::int64_t create_us = 0;
  bool delivered = false;  // a probe post reached a member of the population
};

// Builds `endpoints` idle serviced endpoints on one host and probes one of
// them, so every scale point is demonstrably a live population, not an
// allocation stunt.
template <typename RuntimeT>
RowResult RunOnce(RuntimeT& runtime, std::size_t endpoints) {
  auto j = runtime.topology().add_jurisdiction("j");
  const HostId host = runtime.topology().add_host("h", {j}, 1e9);
  const HostId client_host = runtime.topology().add_host("c", {j}, 1e9);

  const long threads_before = ProcessThreads();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<EndpointId> ids;
  ids.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints; ++i) {
    ids.push_back(runtime.create_endpoint(host, "o", [](rt::Envelope&&) {},
                                          rt::ExecutionMode::kServiced));
    if (!ids.back().valid()) std::abort();
  }
  RowResult r;
  r.create_us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  r.extra_threads = ProcessThreads() - threads_before;

  const EndpointId src = runtime.create_endpoint(
      client_host, "src", nullptr, rt::ExecutionMode::kDriver);
  const EndpointId probe = ids[endpoints / 2];
  if (!runtime
           .post(rt::Envelope{src, probe, rt::DeliveryKind::kData, Buffer{}})
           .ok()) {
    std::abort();
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (runtime.endpoint_stats(probe).received < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.delivered = runtime.endpoint_stats(probe).received == 1;
  return r;
}

void Run() {
  sim::Table table(
      "E18 resident idle objects vs runtime threads (M:N ablation)",
      {"runtime", "idle_endpoints", "runtime_threads", "create_us"});

  // Thread-per-object baseline: every serviced endpoint is an OS thread.
  // 4096 is the demonstrated ceiling here — past ~10k, thread-per-object
  // collapses under kernel task limits and stack reservations, which is the
  // point of the comparison.
  constexpr std::size_t kThreadCeiling = 4096;
  bool all_delivered = true;
  long thread_row_threads = 0;
  for (const std::size_t n : {std::size_t{1024}, kThreadCeiling}) {
    rt::ThreadRuntime runtime;
    const RowResult r = RunOnce(runtime, n);
    all_delivered = all_delivered && r.delivered;
    thread_row_threads = r.extra_threads;
    table.row({"thread (1:1)",
               sim::Table::num(static_cast<std::int64_t>(n)),
               sim::Table::num(static_cast<std::int64_t>(r.extra_threads)),
               sim::Table::num(r.create_us)});
  }

  // M:N runtime, fixed 8-worker pool: the thread column must not move as
  // the population scales 100x.
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kMaxEndpoints = 1'000'000;
  long epoll_threads_min = 1 << 30, epoll_threads_max = -1;
  for (const std::size_t n :
       {std::size_t{10'000}, std::size_t{100'000}, kMaxEndpoints}) {
    rt::EpollOptions options;
    options.workers = kWorkers;
    rt::EpollRuntime runtime(options);
    const RowResult r = RunOnce(runtime, n);
    all_delivered = all_delivered && r.delivered;
    epoll_threads_min = std::min(epoll_threads_min, r.extra_threads);
    epoll_threads_max = std::max(epoll_threads_max, r.extra_threads);
    table.row({"epoll (M:N, 8 workers)",
               sim::Table::num(static_cast<std::int64_t>(n)),
               sim::Table::num(static_cast<std::int64_t>(r.extra_threads)),
               sim::Table::num(r.create_us)});
  }
  table.print();

  std::printf("\npeak RSS %ld KiB (~%ld bytes per resident object at the "
              "1M point, process-wide upper bound)\n",
              MaxRssKb(), MaxRssKb() * 1024 / kMaxEndpoints);
  std::printf("expected shape: the thread runtime's thread column tracks its "
              "endpoint\ncolumn 1:1; the epoll column stays flat while the "
              "population scales 100x.\n");

  const bool threads_flat = epoll_threads_min == epoll_threads_max &&
                            epoll_threads_max >= 0;
  const bool ratio_ok = kMaxEndpoints >= 100 * kThreadCeiling;
  const bool ok = threads_flat && ratio_ok && all_delivered &&
                  thread_row_threads >= static_cast<long>(kThreadCeiling);
  std::printf("verdict: %s — %zu resident idle objects with %ld threads "
              "added beyond the fixed %zu-worker pool (%zux the %zu "
              "thread-per-object ceiling, probe delivered at every scale)\n",
              ok ? "PASS" : "FAIL", kMaxEndpoints, epoll_threads_max,
              kWorkers, kMaxEndpoints / kThreadCeiling, kThreadCeiling);
}

}  // namespace
}  // namespace legion::bench

int main() { legion::bench::Run(); }
