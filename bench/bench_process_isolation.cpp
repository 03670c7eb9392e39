// E19 — the price and the payoff of address-space isolation: what a real
// per-object OS process costs (spawn latency, parent<->child call
// throughput over Unix-domain sockets vs the in-memory epoll runtime), and
// what it buys (a kill -9 on one object leaves the host and every sibling
// answering — 100% sibling availability across repeated crash rounds, which
// no in-process runtime can promise).
//
// The availability table is fully deterministic (counts and percentages);
// the latency/throughput columns are wall-clock and mask as unstable in the
// baseline. The verdict line is the gate: it asserts every crash round kept
// every surviving sibling reachable and the parent alive.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "core/state_sections.hpp"
#include "persist/opr.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/messenger.hpp"
#include "rt/process_runtime.hpp"
#include "sim/sample_objects.hpp"
#include "sim/table.hpp"

namespace legion::bench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ElapsedUs(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
      .count();
}

rt::SpawnSpec WorkerSpec(HostId host, const std::string& label,
                         std::uint64_t loid_suffix) {
  persist::Opr opr;
  opr.loid = Loid{19, loid_suffix};
  opr.implementation = std::string(sim::WorkerImpl::kName);
  opr.state = core::WrapPrimaryState(sim::WorkerInit(0, 0));
  opr.executable = LEGION_OBJECTD_PATH;

  rt::SpawnSpec spec;
  spec.executable = opr.executable;
  spec.host = host;
  spec.label = label;
  spec.opr_bytes = opr.to_bytes();
  Writer hw(spec.handles_bytes);
  core::SystemHandles{}.Serialize(hw);
  return spec;
}

bool AwaitDead(rt::ProcessControl& pc, EndpointId endpoint) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    if (!pc.child_alive(endpoint)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// One Noop round trip; true if the worker answered within the timeout.
bool Answers(rt::Messenger& client, EndpointId worker) {
  return client
      .call(worker, "Noop", Buffer{}, rt::EnvTriple::System(), 5'000'000)
      .ok();
}

void Run() {
  bool ok = true;

  // ---- spawn latency + UDS call throughput, one parent runtime ----------
  rt::ProcessRuntime runtime;
  auto j = runtime.topology().add_jurisdiction("j");
  const HostId host = runtime.topology().add_host("h", {j}, 1e9);
  rt::ProcessControl* pc = runtime.process_control();
  if (pc == nullptr) std::abort();

  constexpr std::size_t kWorkers = 8;
  std::vector<rt::SpawnInfo> workers;
  std::int64_t spawn_total_us = 0;
  std::int64_t spawn_max_us = 0;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    const auto t0 = Clock::now();
    auto info =
        pc->spawn_object(WorkerSpec(host, "w" + std::to_string(i), i + 1));
    const std::int64_t us = ElapsedUs(t0);
    if (!info.ok()) {
      std::fprintf(stderr, "spawn failed: %s\n",
                   info.status().to_string().c_str());
      std::abort();
    }
    workers.push_back(*info);
    spawn_total_us += us;
    spawn_max_us = std::max(spawn_max_us, us);
  }

  sim::Table spawn_table(
      "E19 per-object process activation cost",
      {"metric", "workers", "avg_us", "max_us"});
  spawn_table.row(
      {"fork/exec + OPR restore + ready handshake",
       sim::Table::num(static_cast<std::int64_t>(kWorkers)),
       sim::Table::num(spawn_total_us / static_cast<std::int64_t>(kWorkers)),
       sim::Table::num(spawn_max_us)});
  spawn_table.print();

  // Throughput: serial Noop round trips parent -> child over the UDS frame
  // path, against the same call shape served in-process by the epoll
  // runtime, which delivers in memory. The gap is the documented price of
  // crossing an address-space boundary (and a socket) per call.
  constexpr std::int64_t kCalls = 2000;
  rt::Messenger client(runtime, host, "bench-client",
                       rt::ExecutionMode::kDriver, nullptr);
  std::int64_t uds_calls_per_s = 0;
  {
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < kCalls; ++i) {
      if (!Answers(client, workers[0].endpoint)) std::abort();
    }
    const std::int64_t us = std::max<std::int64_t>(1, ElapsedUs(t0));
    uds_calls_per_s = kCalls * 1'000'000 / us;
  }

  std::int64_t epoll_calls_per_s = 0;
  {
    rt::EpollRuntime epoll;
    auto ej = epoll.topology().add_jurisdiction("j");
    const HostId eh = epoll.topology().add_host("h", {ej}, 1e9);
    rt::Messenger server(epoll, eh, "server", rt::ExecutionMode::kServiced,
                         [](rt::ServerContext&, Reader&) -> Result<Buffer> {
                           return Buffer{};
                         });
    rt::Messenger eclient(epoll, eh, "client", rt::ExecutionMode::kDriver,
                          nullptr);
    const auto t0 = Clock::now();
    for (std::int64_t i = 0; i < kCalls; ++i) {
      if (!eclient
               .call(server.endpoint(), "Noop", Buffer{},
                     rt::EnvTriple::System(), 5'000'000)
               .ok()) {
        std::abort();
      }
    }
    const std::int64_t us = std::max<std::int64_t>(1, ElapsedUs(t0));
    epoll_calls_per_s = kCalls * 1'000'000 / us;
  }

  sim::Table call_table("E19 call throughput across the process boundary",
                        {"path", "calls", "calls_per_s"});
  call_table.row({"process (parent<->child, UDS)", sim::Table::num(kCalls),
                  sim::Table::num(uds_calls_per_s)});
  call_table.row({"epoll (in-process, in-memory)", sim::Table::num(kCalls),
                  sim::Table::num(epoll_calls_per_s)});
  call_table.print();

  // ---- the isolation claim: crash rounds vs sibling availability --------
  // Kill one worker per round through the fault plan (the same injector the
  // recovery tests use) and probe every survivor. Any missed answer — or a
  // parent death, which would abort the bench outright — fails the verdict.
  constexpr std::size_t kCrashRounds = 4;
  sim::Table avail_table(
      "E19 sibling availability across kill -9 rounds",
      {"round", "killed_pid_alive", "survivors_probed", "survivors_answering",
       "availability_pct"});
  std::size_t alive_from = 0;
  for (std::size_t round = 0; round < kCrashRounds; ++round) {
    const rt::SpawnInfo& victim = workers[alive_from];
    if (!runtime.faults().kill_child(victim.endpoint.value).ok()) {
      std::abort();
    }
    const bool victim_dead = AwaitDead(*pc, victim.endpoint);
    ok = ok && victim_dead;
    ++alive_from;

    std::int64_t probed = 0;
    std::int64_t answering = 0;
    for (std::size_t i = alive_from; i < workers.size(); ++i) {
      ++probed;
      if (Answers(client, workers[i].endpoint)) ++answering;
    }
    ok = ok && answering == probed;
    avail_table.row({sim::Table::num(static_cast<std::int64_t>(round)),
                     victim_dead ? "no" : "YES",
                     sim::Table::num(probed), sim::Table::num(answering),
                     sim::Table::num(probed > 0 ? answering * 100 / probed
                                                : 0)});
  }
  avail_table.print();

  std::printf("\nexpected shape: every crash round reports 100%% sibling "
              "availability; the\nkilled pid is reaped (killed_pid_alive = "
              "no) before the survivors are probed.\n");
  std::printf("verdict: %s — %zu kill -9 rounds, parent pid %d alive "
              "throughout, every surviving sibling answered every round\n",
              ok ? "PASS" : "FAIL", kCrashRounds,
              static_cast<int>(::getpid()));
  if (!ok) std::exit(1);
}

}  // namespace
}  // namespace legion::bench

int main() { legion::bench::Run(); }
