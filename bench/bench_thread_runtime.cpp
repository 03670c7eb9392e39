// E11 — the model under real concurrency: a three-way runtime ablation of
// invocation throughput, scaling client threads. Section 2's non-blocking
// method invocation should let independent client/object pairs proceed in
// parallel whether each object owns an OS thread (ThreadRuntime), shares an
// M:N worker pool with in-memory mailboxes (EpollRuntime), or is reached
// over real Unix-domain sockets with a reader thread per connection
// (ProcessRuntime, every object in the parent process). The single-threaded
// deterministic kernel (SimRuntime) is the control.
#include <atomic>
#include <thread>

#include "core/system.hpp"
#include "core/well_known.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/process_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "rt/thread_runtime.hpp"
#include "sim/sample_objects.hpp"
#include "sim/table.hpp"

namespace legion::bench {
namespace {

constexpr int kCallsPerThread = 2000;

double RunOnce(rt::Runtime& runtime, int client_threads,
               int calls_per_thread) {
  auto& topo = runtime.topology();
  const auto jur = topo.add_jurisdiction("j");
  std::vector<HostId> hosts;
  for (int h = 0; h < 4; ++h) {
    hosts.push_back(topo.add_host("h" + std::to_string(h), {jur}, 1e9));
  }
  core::LegionSystem system(runtime, core::SystemConfig{});
  if (!sim::RegisterSampleObjects(system.registry()).ok()) std::abort();
  if (!system.bootstrap().ok()) std::abort();

  auto setup = system.make_client(hosts[0], "setup");
  core::wire::DeriveRequest derive;
  derive.name = "Worker";
  derive.instance_impl = std::string(sim::WorkerImpl::kName);
  auto cls = setup->derive(core::LegionObjectLoid(), derive);
  if (!cls.ok()) std::abort();

  // One target object per client thread: independent pairs, no contention
  // beyond the runtime itself.
  std::vector<Loid> targets;
  std::vector<std::unique_ptr<core::Client>> clients;
  for (int t = 0; t < client_threads; ++t) {
    auto reply = setup->create(cls->loid, sim::WorkerInit(0, 0));
    if (!reply.ok()) std::abort();
    targets.push_back(reply->loid);
    clients.push_back(
        system.make_client(hosts[t % hosts.size()], "client"));
  }

  std::atomic<int> failures{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < client_threads; ++t) {
    threads.emplace_back([&, t, calls_per_thread] {
      for (int i = 0; i < calls_per_thread; ++i) {
        if (!clients[t]->ref(targets[t]).call("Increment", Buffer{}).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  if (failures.load() != 0) std::abort();
  return 1e6 * static_cast<double>(client_threads) * calls_per_thread /
         static_cast<double>(elapsed);
}

void Run() {
  sim::Table table(
      "E11 invocation throughput: three-way runtime ablation (Sec 2/3.3)",
      {"runtime", "client_threads", "calls_total",
       "throughput_calls_per_sec"});
  // The deterministic single-threaded kernel is the control: no sockets, no
  // scheduler, one virtual clock — the model's logical cost per call.
  {
    rt::SimRuntime runtime(/*seed=*/11);
    const double throughput = RunOnce(runtime, 1, kCallsPerThread);
    table.row({"sim (deterministic)", sim::Table::num(std::int64_t{1}),
               sim::Table::num(std::int64_t{kCallsPerThread}),
               sim::Table::num(throughput, 0)});
  }
  for (const int threads : {1, 2, 4, 8}) {
    rt::ThreadRuntime runtime;
    const double throughput = RunOnce(runtime, threads, kCallsPerThread);
    table.row({"threads (mailboxes)",
               sim::Table::num(static_cast<std::int64_t>(threads)),
               sim::Table::num(static_cast<std::int64_t>(threads) *
                               kCallsPerThread),
               sim::Table::num(throughput, 0)});
  }
  // epoll's M:N pool with in-memory delivery, then the socket-backed
  // series: thread-per-connection over Unix-domain sockets through the
  // persistent-connection pool (fewer iterations: every hop is a real
  // frame through the kernel).
  constexpr int kSocketCalls = 1000;
  for (const int threads : {1, 2, 4, 8}) {
    rt::EpollRuntime runtime;
    const double throughput = RunOnce(runtime, threads, kSocketCalls);
    table.row({"epoll (M:N pool, in-memory)",
               sim::Table::num(static_cast<std::int64_t>(threads)),
               sim::Table::num(static_cast<std::int64_t>(threads) *
                               kSocketCalls),
               sim::Table::num(throughput, 0)});
  }
  for (const int threads : {1, 4}) {
    rt::ProcessRuntime runtime;
    const double throughput = RunOnce(runtime, threads, kSocketCalls);
    table.row({"sockets (UDS, thread per connection)",
               sim::Table::num(static_cast<std::int64_t>(threads)),
               sim::Table::num(static_cast<std::int64_t>(threads) *
                               kSocketCalls),
               sim::Table::num(throughput, 0)});
  }
  table.print();
  std::printf("\nexpected shape: the sim control gives the model's logical "
              "per-call cost;\naggregate thread/epoll throughput stays ~flat "
              "as pairs scale on a\nsingle-core host (no runtime-level "
              "contention collapse) and rises toward\nthe core count on "
              "multi-core hosts. epoll's in-memory M:N pool should beat the\n"
              "socket series, which pays real frames and syscalls per hop.\n"
              "(this machine: %u hardware threads)\n",
              std::thread::hardware_concurrency());
}

}  // namespace
}  // namespace legion::bench

int main() { legion::bench::Run(); }
