// ProcessRuntime: address-space-disjoint objects for real. Each test spawns
// legion_objectd worker processes (path baked in via LEGION_OBJECTD_PATH)
// and exercises the spawn/call/crash/reap lifecycle across actual process
// boundaries — kill -9 here kills a real pid.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/comm.hpp"
#include "core/state_sections.hpp"
#include "persist/opr.hpp"
#include "rt/messenger.hpp"
#include "rt/process_runtime.hpp"
#include "sim/sample_objects.hpp"

namespace legion::rt {
namespace {

constexpr const char* kObjectdPath = LEGION_OBJECTD_PATH;

// True while `pid` exists as a zombie (State: Z in /proc/<pid>/stat). A
// reaped pid has no /proc entry at all, which is the desired end state.
bool IsZombie(std::int64_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  if (!stat) return false;  // no entry: fully reaped
  std::string line;
  std::getline(stat, line);
  // Field 3 follows the parenthesized comm, which may itself hold spaces.
  const auto close_paren = line.rfind(')');
  if (close_paren == std::string::npos || close_paren + 2 >= line.size()) {
    return false;
  }
  return line[close_paren + 2] == 'Z';
}

class ProcessRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = rt_.topology().add_jurisdiction("j");
    h1_ = rt_.topology().add_host("h1", {j}, 8.0);
    h2_ = rt_.topology().add_host("h2", {j}, 8.0);
    pc_ = rt_.process_control();
    ASSERT_NE(pc_, nullptr) << "parent-mode runtime must expose ProcessControl";
  }

  // Spawns one sim.worker object as its own process, counting from `start`.
  Result<SpawnInfo> SpawnWorker(const std::string& label,
                                std::int64_t start = 0) {
    persist::Opr opr;
    opr.loid = Loid{7, next_loid_++};
    opr.implementation = std::string(sim::WorkerImpl::kName);
    // OPR state travels in the named-sections format ActiveObject::restore
    // expects (the class object wraps raw init state the same way).
    opr.state = core::WrapPrimaryState(sim::WorkerInit(start, 0));
    opr.executable = kObjectdPath;

    SpawnSpec spec;
    spec.executable = opr.executable;
    spec.host = h2_;
    spec.label = label;
    spec.opr_bytes = opr.to_bytes();
    Writer hw(spec.handles_bytes);
    core::SystemHandles{}.Serialize(hw);
    return pc_->spawn_object(spec);
  }

  // The reaper runs on a 20 ms cadence; give a death comfortably more than
  // one tick to be discovered before declaring the runtime broken.
  bool AwaitChildDead(EndpointId endpoint, int timeout_ms = 5'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (!pc_->child_alive(endpoint)) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  std::int64_t CallGet(Messenger& client, EndpointId worker) {
    auto raw = client.call(worker, "Get", Buffer{}, EnvTriple::System(),
                           5'000'000);
    EXPECT_TRUE(raw.ok()) << raw.status().to_string();
    if (!raw.ok()) return -1;
    Reader r(*raw);
    return r.i64();
  }

  ProcessRuntime rt_;
  ProcessControl* pc_ = nullptr;
  HostId h1_, h2_;
  std::uint64_t next_loid_ = 100;
};

TEST_F(ProcessRuntimeTest, SpawnedWorkerServesCallsAcrossProcessBoundary) {
  auto info = SpawnWorker("counter", 10);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_GT(info->pid, 0);
  EXPECT_TRUE(pc_->child_alive(info->endpoint));

  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  for (int i = 0; i < 3; ++i) {
    auto inc = client.call(info->endpoint, "Increment", Buffer{},
                           EnvTriple::System(), 5'000'000);
    ASSERT_TRUE(inc.ok()) << inc.status().to_string();
  }
  EXPECT_EQ(CallGet(client, info->endpoint), 13);

  // The call crossed a real process boundary: the worker is a distinct pid.
  EXPECT_NE(info->pid, static_cast<std::int64_t>(::getpid()));
  EXPECT_EQ(rt_.metrics().gauge("rt.proc.live_children").value(), 1);
}

// The CLOEXEC regression test. legion_objectd scans /proc/self/fd first
// thing and refuses to run (exit 3 => failed ready handshake) if exec
// leaked any descriptor beyond stdio + the ready pipe. Spawning from a
// parent that holds many live sockets — endpoints, cached client conns from
// a completed call — therefore proves every one of them is close-on-exec.
TEST_F(ProcessRuntimeTest, WorkerInheritsNoDescriptorsFromBusyParent) {
  for (int i = 0; i < 4; ++i) {
    rt_.create_endpoint(h1_, "busy", [](Envelope&&) {},
                        ExecutionMode::kServiced);
  }
  auto first = SpawnWorker("fd-audit-warmup");
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  CallGet(client, first->endpoint);  // leaves a cached UDS conn open

  auto second = SpawnWorker("fd-audit");
  ASSERT_TRUE(second.ok())
      << "worker refused to start after the inherited-fd audit: "
      << second.status().to_string();
  EXPECT_TRUE(pc_->child_alive(second->endpoint));
}

TEST_F(ProcessRuntimeTest, PostToDeadChildFailsFastAsStaleBinding) {
  auto info = SpawnWorker("victim");
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  ASSERT_TRUE(pc_->kill_child(info->endpoint).ok());
  ASSERT_TRUE(AwaitChildDead(info->endpoint));

  const EndpointId src =
      rt_.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
  EXPECT_EQ(
      rt_.post(Envelope{src, info->endpoint, DeliveryKind::kData, Buffer{}})
          .code(),
      StatusCode::kStaleBinding);
}

// The headline failure-mode contract: a kill -9 mid-call surfaces to the
// caller as kUnavailable (via the reaper's synthesized bounce), never as a
// timeout — the caller must not wait out its deadline to learn the worker
// died. SIGSTOP first so the request is provably still unanswered when the
// kill lands.
TEST_F(ProcessRuntimeTest, KillNineMidCallIsUnavailableNotTimeout) {
  auto info = SpawnWorker("mid-call-victim");
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  ASSERT_TRUE(pc_->pause_child(info->endpoint).ok());

  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto future = client.invoke(info->endpoint, "Get", Buffer{},
                              EnvTriple::System());
  ASSERT_TRUE(pc_->kill_child(info->endpoint).ok());

  const auto begin = std::chrono::steady_clock::now();
  auto result = client.await(future, 60'000'000);  // a minute of headroom
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
      << result.status().to_string();
  // Bounced by the reaper within a few of its 20 ms ticks, nowhere near the
  // 60 s deadline.
  EXPECT_LT(elapsed.count(), 10'000);
  EXPECT_GE(rt_.metrics().counter("rt.proc.bounced_unavailable").value(), 1u);
}

TEST_F(ProcessRuntimeTest, CrashingObjectNeverTouchesItsSiblings) {
  constexpr int kSiblings = 3;
  std::vector<SpawnInfo> workers;
  for (int i = 0; i < kSiblings; ++i) {
    auto info = SpawnWorker("sibling-" + std::to_string(i), i * 100);
    ASSERT_TRUE(info.ok()) << info.status().to_string();
    workers.push_back(*info);
  }

  ASSERT_TRUE(pc_->kill_child(workers[1].endpoint).ok());
  ASSERT_TRUE(AwaitChildDead(workers[1].endpoint));

  // The survivors answer as if nothing happened, and the parent process
  // (this test) obviously survived too — the isolation claim in one line.
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  EXPECT_EQ(CallGet(client, workers[0].endpoint), 0);
  EXPECT_EQ(CallGet(client, workers[2].endpoint), 200);
  EXPECT_TRUE(pc_->child_alive(workers[0].endpoint));
  EXPECT_TRUE(pc_->child_alive(workers[2].endpoint));
}

// Churn soak: spawn/kill/stop repeatedly, then require that no zombie
// remains — the reaper (kill path) and stop_child (graceful path) must both
// collect exit statuses without stealing each other's waitpid results.
TEST_F(ProcessRuntimeTest, ChurnLeavesNoZombiesBehind) {
  constexpr int kRounds = 8;
  std::vector<std::int64_t> pids;
  for (int i = 0; i < kRounds; ++i) {
    auto info = SpawnWorker("churn-" + std::to_string(i));
    ASSERT_TRUE(info.ok()) << info.status().to_string();
    pids.push_back(info->pid);
    if (i % 2 == 0) {
      ASSERT_TRUE(pc_->kill_child(info->endpoint).ok());
    } else {
      ASSERT_TRUE(pc_->stop_child(info->endpoint).ok());
    }
    ASSERT_TRUE(AwaitChildDead(info->endpoint)) << "round " << i;
  }
  // Every child is dead; give the reaper one more tick to collect statuses,
  // then require the process table to be clean.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (const std::int64_t pid : pids) {
    EXPECT_FALSE(IsZombie(pid)) << "pid " << pid << " left as a zombie";
  }
  EXPECT_EQ(rt_.metrics().gauge("rt.proc.live_children").value(), 0);
}

TEST_F(ProcessRuntimeTest, RespawningALabelCountsAsRespawn) {
  auto first = SpawnWorker("phoenix");
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(pc_->kill_child(first->endpoint).ok());
  ASSERT_TRUE(AwaitChildDead(first->endpoint));

  auto second = SpawnWorker("phoenix");
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_NE(second->endpoint, first->endpoint)
      << "a revived object must get a fresh endpoint (stale bindings must "
         "keep failing)";
  EXPECT_EQ(rt_.metrics().counter("rt.proc.spawns").value(), 2u);
  EXPECT_EQ(rt_.metrics().counter("rt.proc.respawns").value(), 1u);
}

TEST_F(ProcessRuntimeTest, PausedChildIsAliveButSilent) {
  auto info = SpawnWorker("wedged");
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  ASSERT_TRUE(pc_->pause_child(info->endpoint).ok());

  // Wedged, not dead: the pid exists, so calls time out rather than bounce.
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto slow = client.call(info->endpoint, "Get", Buffer{},
                          EnvTriple::System(), 300'000);
  ASSERT_FALSE(slow.ok());
  EXPECT_EQ(slow.status().code(), StatusCode::kTimeout)
      << slow.status().to_string();
  EXPECT_TRUE(pc_->child_alive(info->endpoint));

  // Resumed, it drains the backlog and answers again.
  ASSERT_TRUE(pc_->resume_child(info->endpoint).ok());
  EXPECT_EQ(CallGet(client, info->endpoint), 0);
}

TEST_F(ProcessRuntimeTest, FaultPlanChildFaultsRouteToRealSignals) {
  auto info = SpawnWorker("fault-plan-target");
  ASSERT_TRUE(info.ok()) << info.status().to_string();

  // stop/resume through the plan: alive throughout, wedged in between.
  ASSERT_TRUE(rt_.faults().stop_child(info->endpoint.value).ok());
  EXPECT_TRUE(pc_->child_alive(info->endpoint));
  ASSERT_TRUE(rt_.faults().resume_child(info->endpoint.value).ok());

  // kill -9 through the plan: the reaper discovers a real death.
  ASSERT_TRUE(rt_.faults().kill_child(info->endpoint.value).ok());
  EXPECT_TRUE(AwaitChildDead(info->endpoint));
}

TEST_F(ProcessRuntimeTest, WorkerModeRuntimeExposesNoProcessControl) {
  ProcessOptions options;
  options.socket_dir = rt_.socket_dir();
  options.worker_endpoint_id = 424242;
  ProcessRuntime worker(options);
  EXPECT_EQ(worker.process_control(), nullptr);
}

TEST_F(ProcessRuntimeTest, SpawnRejectsMissingExecutable) {
  persist::Opr opr;
  opr.loid = Loid{7, 1};
  opr.implementation = std::string(sim::WorkerImpl::kName);
  opr.executable = "/nonexistent/legion_objectd";
  SpawnSpec spec;
  spec.executable = opr.executable;
  spec.host = h2_;
  spec.label = "ghost";
  spec.opr_bytes = opr.to_bytes();
  auto info = pc_->spawn_object(spec);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace legion::rt
