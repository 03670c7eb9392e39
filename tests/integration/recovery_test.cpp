// Failure detection & automatic reactivation, end to end.
//
// The faults the system can inject (host outages, partitions) must now be
// survivable: the class object's SweepInstances probes the Host Objects its
// instances were placed on, declares a host suspect after consecutive
// misses, and restarts every affected instance elsewhere from the
// magistrate's checkpointed OPR — then pushes the new binding through the
// Section 4.1.4 invalidation fan-out so old callers converge with no manual
// intervention.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/test_support.hpp"
#include "rt/epoll_runtime.hpp"

namespace legion::core {
namespace {

using testing::CounterInit;
using testing::ReadI64;
using testing::SimSystemFixture;

class RecoveryTest : public SimSystemFixture {
 protected:
  static constexpr int kInstances = 12;

  void SetUp() override {
    SimSystemFixture::SetUp();
    counter_class_ = DeriveCounterClass();
    ASSERT_TRUE(counter_class_.valid());
  }

  // Places `n` counters on doe-2 explicitly. The doe jurisdiction keeps its
  // bootstrap components (magistrate, binding agent) on doe-1 and the class
  // object lives in uva, so doe-2 can die without decapitating recovery.
  std::vector<Loid> PlaceCountersOnDoe2(int n) {
    std::vector<Loid> out;
    for (int i = 0; i < n; ++i) {
      auto reply = client_->create(counter_class_, CounterInit(i),
                                   {system_->magistrate_of(doe_)},
                                   system_->host_object_of(doe2_));
      EXPECT_TRUE(reply.ok()) << reply.status().to_string();
      if (reply.ok()) out.push_back(reply->loid);
    }
    return out;
  }

  wire::SweepReply Sweep() {
    auto raw = client_->ref(counter_class_).call(methods::kSweepInstances,
                                                 Buffer{});
    EXPECT_TRUE(raw.ok()) << raw.status().to_string();
    auto reply = wire::SweepReply::from_buffer(raw.ok() ? *raw : Buffer{});
    return reply.ok() ? *reply : wire::SweepReply{};
  }

  // Runs sweeps until `threshold` consecutive misses condemn the host,
  // advancing virtual time between ticks like a shell timer would.
  wire::SweepReply SweepUntilVerdict(std::uint32_t threshold) {
    wire::SweepReply last;
    for (std::uint32_t i = 0; i < threshold; ++i) {
      runtime_->advance(1'000'000);
      last = Sweep();
    }
    return last;
  }

  Loid counter_class_;
};

TEST_F(RecoveryTest, HostOutageReactivatesEveryObjectElsewhere) {
  const std::vector<Loid> counters = PlaceCountersOnDoe2(kInstances);
  ASSERT_EQ(counters.size(), static_cast<std::size_t>(kInstances));

  // Mutate every counter past its creation state, then checkpoint the
  // first half explicitly through the magistrate: recovery must restore
  // checkpointed state, and creation-time state for the rest.
  for (int i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(client_->ref(counters[i]).call("Increment", Buffer{}).ok());
    if (i < kInstances / 2) {
      wire::LoidRequest req{counters[i]};
      auto ck = client_->ref(system_->magistrate_of(doe_))
                    .call(methods::kCheckpoint, req.to_buffer());
      ASSERT_TRUE(ck.ok()) << ck.status().to_string();
    }
  }

  runtime_->faults().take_host_down(doe2_);

  // One miss is suspicion, not a verdict: nothing moves yet.
  runtime_->advance(1'000'000);
  const auto first = Sweep();
  EXPECT_GE(first.hosts_probed, 1u);
  EXPECT_EQ(first.reactivated, 0u);

  // The second consecutive miss crosses the default threshold (2): every
  // instance on the dead host restarts on the surviving doe host.
  runtime_->advance(1'000'000);
  const auto verdict = Sweep();
  EXPECT_EQ(verdict.hosts_suspect, 1u);
  EXPECT_EQ(verdict.reactivated, static_cast<std::uint32_t>(kInstances));
  EXPECT_EQ(verdict.failed, 0u);

  for (int i = 0; i < kInstances; ++i) {
    EXPECT_NE(system_->host_impl(doe1_)->find_object(counters[i]), nullptr)
        << "instance " << i << " not running on the surviving host";
    auto raw = client_->ref(counters[i]).call("Get", Buffer{});
    ASSERT_TRUE(raw.ok()) << raw.status().to_string();
    // Checkpointed instances kept the increment; the rest restarted from
    // their creation-time OPR.
    EXPECT_EQ(ReadI64(*raw), i < kInstances / 2 ? i + 1 : i);
  }
}

TEST_F(RecoveryTest, BoundCallerSucceedsViaStaleRetryAfterRecovery) {
  const std::vector<Loid> counters = PlaceCountersOnDoe2(3);
  ASSERT_EQ(counters.size(), 3u);

  // A separate caller binds to every counter before the outage, so its
  // resolver cache holds the soon-to-be-dead addresses.
  auto caller = system_->make_client(uva2_, "bound-caller");
  for (const Loid& c : counters) {
    ASSERT_TRUE(caller->ref(c).call("Get", Buffer{}).ok());
  }

  runtime_->faults().take_host_down(doe2_);
  const auto verdict = SweepUntilVerdict(2);
  ASSERT_EQ(verdict.reactivated, 3u);

  // No manual invalidation: the caller's stale binding fails, the resolver
  // refreshes through the Binding Agent fan-out, and the retry lands on the
  // reactivated instance.
  for (const Loid& c : counters) {
    auto raw = caller->ref(c).call("Get", Buffer{});
    EXPECT_TRUE(raw.ok()) << raw.status().to_string();
  }
}

TEST_F(RecoveryTest, PartitionHealConvergesAndReapsOrphans) {
  const std::vector<Loid> counters = PlaceCountersOnDoe2(4);
  ASSERT_EQ(counters.size(), 4u);

  // Cut doe-2 off from every other host (the class object's own placement
  // is seed-dependent, so a partial cut might leave it a working probe
  // path). doe-2 itself never dies: its processes keep running, orphaned.
  for (HostId other : {uva1_, uva2_, doe1_}) {
    runtime_->faults().partition(doe2_, other);
  }
  const auto verdict = SweepUntilVerdict(2);
  EXPECT_EQ(verdict.reactivated, 4u);
  for (const Loid& c : counters) {
    EXPECT_NE(system_->host_impl(doe1_)->find_object(c), nullptr);
    // The orphaned pre-partition process is still on doe-2.
    EXPECT_NE(system_->host_impl(doe2_)->find_object(c), nullptr);
  }

  // Heal: the next sweep's probe succeeds and releases the fences, reaping
  // the stale copies so exactly one activation of each object remains.
  for (HostId other : {uva1_, uva2_, doe1_}) {
    runtime_->faults().heal(doe2_, other);
  }
  runtime_->advance(1'000'000);
  const auto healed = Sweep();
  EXPECT_EQ(healed.fences_released, 4u);
  for (const Loid& c : counters) {
    EXPECT_EQ(system_->host_impl(doe2_)->find_object(c), nullptr)
        << "orphaned activation survived the fence release";
    auto raw = client_->ref(c).call("Get", Buffer{});
    EXPECT_TRUE(raw.ok()) << raw.status().to_string();
  }
}

TEST_F(RecoveryTest, QuietSweepTouchesOnlyPlacedHostsAndMovesNothing) {
  PlaceCountersOnDoe2(5);
  runtime_->advance(1'000'000);
  const auto quiet = Sweep();
  // All five instances share one host: one probe, no reactivations.
  EXPECT_EQ(quiet.hosts_probed, 1u);
  EXPECT_EQ(quiet.hosts_suspect, 0u);
  EXPECT_EQ(quiet.reactivated, 0u);
  EXPECT_EQ(quiet.fences_released, 0u);
}

TEST_F(RecoveryTest, RecoveryPolicyIsTunable) {
  const std::vector<Loid> counters = PlaceCountersOnDoe2(2);
  wire::RecoveryPolicyRequest policy;
  policy.suspect_threshold = 4;
  policy.probe_timeout_us = 100'000;
  ASSERT_TRUE(client_->ref(counter_class_)
                  .call(methods::kSetRecoveryPolicy, policy.to_buffer())
                  .ok());
  // Zero threshold is rejected (a host must never be condemned for free).
  wire::RecoveryPolicyRequest bad;
  bad.suspect_threshold = 0;
  EXPECT_FALSE(client_->ref(counter_class_)
                   .call(methods::kSetRecoveryPolicy, bad.to_buffer())
                   .ok());

  runtime_->faults().take_host_down(doe2_);
  // Three misses: below the raised threshold, nothing moves.
  auto after3 = SweepUntilVerdict(3);
  EXPECT_EQ(after3.reactivated, 0u);
  // The fourth miss delivers the verdict.
  auto after4 = SweepUntilVerdict(1);
  EXPECT_EQ(after4.reactivated, static_cast<std::uint32_t>(counters.size()));
}

// The same recovery machinery over the M:N runtime: probes, verdicts and
// reactivation ride real worker threads and real-clock timeouts instead of
// virtual time. EpollRuntime consults the fault plan on post, which is what
// makes host-down/partition experiments expressible on it at all.
class EpollRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime_ = std::make_unique<rt::EpollRuntime>();
    uva_ = runtime_->topology().add_jurisdiction("uva");
    doe_ = runtime_->topology().add_jurisdiction("doe");
    uva1_ = runtime_->topology().add_host("uva-1", {uva_}, 8.0);
    uva2_ = runtime_->topology().add_host("uva-2", {uva_}, 8.0);
    doe1_ = runtime_->topology().add_host("doe-1", {doe_}, 8.0);
    doe2_ = runtime_->topology().add_host("doe-2", {doe_}, 8.0);

    system_ = std::make_unique<LegionSystem>(*runtime_, SystemConfig{});
    ASSERT_TRUE(system_->registry()
                    .add(std::string(testing::CounterImpl::kName),
                         [] { return std::make_unique<testing::CounterImpl>(); })
                    .ok());
    const Status st = system_->bootstrap();
    ASSERT_TRUE(st.ok()) << st.to_string();
    client_ = system_->make_client(uva1_);

    wire::DeriveRequest req;
    req.name = "Counter";
    req.instance_impl = std::string(testing::CounterImpl::kName);
    req.extra_interface = testing::CounterImpl{}.interface();
    auto reply = client_->derive(LegionObjectLoid(), req);
    ASSERT_TRUE(reply.ok()) << reply.status().to_string();
    counter_class_ = reply->loid;

    // Real-clock probes: keep each missed probe to 100 ms so a two-miss
    // verdict costs ~200 ms of wall time, not two simulated seconds.
    wire::RecoveryPolicyRequest policy;
    policy.suspect_threshold = 2;
    policy.probe_timeout_us = 100'000;
    ASSERT_TRUE(client_->ref(counter_class_)
                    .call(methods::kSetRecoveryPolicy, policy.to_buffer())
                    .ok());
  }

  void TearDown() override {
    client_.reset();
    system_.reset();
    runtime_.reset();
  }

  std::vector<Loid> PlaceCountersOnDoe2(int n) {
    std::vector<Loid> out;
    for (int i = 0; i < n; ++i) {
      auto reply = client_->create(counter_class_, CounterInit(i),
                                   {system_->magistrate_of(doe_)},
                                   system_->host_object_of(doe2_));
      EXPECT_TRUE(reply.ok()) << reply.status().to_string();
      if (reply.ok()) out.push_back(reply->loid);
    }
    return out;
  }

  wire::SweepReply Sweep() {
    auto raw = client_->ref(counter_class_).call(methods::kSweepInstances,
                                                 Buffer{});
    EXPECT_TRUE(raw.ok()) << raw.status().to_string();
    auto reply = wire::SweepReply::from_buffer(raw.ok() ? *raw : Buffer{});
    return reply.ok() ? *reply : wire::SweepReply{};
  }

  std::unique_ptr<rt::EpollRuntime> runtime_;
  std::unique_ptr<LegionSystem> system_;
  std::unique_ptr<Client> client_;
  JurisdictionId uva_, doe_;
  HostId uva1_, uva2_, doe1_, doe2_;
  Loid counter_class_;
};

TEST_F(EpollRecoveryTest, HostOutageReactivatesOverRealSockets) {
  constexpr int kInstances = 4;
  const std::vector<Loid> counters = PlaceCountersOnDoe2(kInstances);
  ASSERT_EQ(counters.size(), static_cast<std::size_t>(kInstances));

  // Mutate and checkpoint everything so recovery must restore live state
  // through the magistrate's vault, every hop a real-clock message.
  for (int i = 0; i < kInstances; ++i) {
    ASSERT_TRUE(client_->ref(counters[i]).call("Increment", Buffer{}).ok());
    wire::LoidRequest req{counters[i]};
    ASSERT_TRUE(client_->ref(system_->magistrate_of(doe_))
                    .call(methods::kCheckpoint, req.to_buffer())
                    .ok());
  }

  runtime_->faults().take_host_down(doe2_);

  // First missed (real-clock) probe: suspicion only.
  const auto first = Sweep();
  EXPECT_GE(first.hosts_probed, 1u);
  EXPECT_EQ(first.reactivated, 0u);
  // Second consecutive miss: verdict, and every instance restarts on the
  // surviving doe host.
  const auto verdict = Sweep();
  EXPECT_EQ(verdict.hosts_suspect, 1u);
  EXPECT_EQ(verdict.reactivated, static_cast<std::uint32_t>(kInstances));
  EXPECT_EQ(verdict.failed, 0u);

  // The client's cached bindings still name the dead doe-2 endpoints, which
  // exist but sit behind the fault plan: the first attempt is silently
  // dropped and must *time out* (not bounce) before the §4.1.4 refresh
  // finds the reactivated instance. A short per-attempt timeout keeps that
  // wall-clock wait at 500 ms instead of the 10 s default.
  for (int i = 0; i < kInstances; ++i) {
    auto raw = client_->ref(counters[i]).call("Get", Buffer{}, 500'000);
    ASSERT_TRUE(raw.ok()) << raw.status().to_string();
    EXPECT_EQ(ReadI64(*raw), i + 1) << "checkpointed state lost in transit";
  }
}

TEST_F(EpollRecoveryTest, PartitionHealConvergesOverRealSockets) {
  const std::vector<Loid> counters = PlaceCountersOnDoe2(3);
  ASSERT_EQ(counters.size(), 3u);

  for (HostId other : {uva1_, uva2_, doe1_}) {
    runtime_->faults().partition(doe2_, other);
  }
  Sweep();
  const auto verdict = Sweep();
  EXPECT_EQ(verdict.reactivated, 3u);

  // Heal: the next probe answers, fences release, and the orphaned doe-2
  // activations are reaped over the wire.
  for (HostId other : {uva1_, uva2_, doe1_}) {
    runtime_->faults().heal(doe2_, other);
  }
  const auto healed = Sweep();
  EXPECT_EQ(healed.fences_released, 3u);
  for (const Loid& c : counters) {
    auto raw = client_->ref(c).call("Get", Buffer{});
    EXPECT_TRUE(raw.ok()) << raw.status().to_string();
  }
}

}  // namespace
}  // namespace legion::core
