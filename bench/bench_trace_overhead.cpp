// Observability must be cheap enough to leave on. This bench runs the same
// warm-cache binding-path workload (the E6 fast path: client cache hit, one
// request/reply pair) across the tracing ablation — ring disabled, ring on
// sampling every root (1-in-1), ring on head-sampling 1-in-64 — and reports
// CPU-time deltas. Metrics counters stay on in every run — they are always
// on in production — so the deltas isolate the span records.
//
// The sim runs on one thread, so the timed loop is measured with that
// thread's CPU clock: time the host gives to other work does not count.
// Nine interleaved reps each run off, 1-in-1 and 1-in-64 back to back, and a
// mode's overhead is the median over reps of its time divided by the same
// rep's off time — a slow stretch of the machine lands on both halves of a
// pair instead of on one mode.
//
// hops_recorded is deterministic (virtual-time sim, counter-based sampler)
// and is the E17 shape cell CI gates; the timing columns are masked as
// unstable at baseline time. The verdict line asserts the tracing budget:
// the always-on configuration (1-in-64) must cost < 5% vs. tracing off.
#include <time.h>

#include <algorithm>
#include <array>
#include <iterator>

#include "support.hpp"

namespace legion::bench {
namespace {

constexpr int kWarmup = 256;
constexpr int kCalls = 20'000;
constexpr int kReps = 9;

struct Mode {
  const char* label;
  bool ring_enabled;
  std::uint64_t sample_every;  // TraceSampler 1-in-N
};

constexpr Mode kModes[] = {
    {"off", false, 1},
    {"on-1in1", true, 1},
    {"on-1in64", true, 64},
};
constexpr std::size_t kNumModes = std::size(kModes);

double ThreadCpuMicros() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

double Median(std::array<double, kReps> values) {
  std::sort(values.begin(), values.end());
  return values[kReps / 2];
}

// Thread CPU time, in microseconds, of kCalls warm invocations in a fresh
// deployment. A fresh deployment per rep keeps allocator and cache state
// comparable between the modes; warmup fills the binding caches so every
// timed call is the two-message fast path.
double RunOnce(const Mode& mode, std::uint64_t seed,
               std::uint64_t* hops_out) {
  Deployment d = MakeDeployment(2, 2, core::SystemConfig{}, seed);
  d.runtime->traces().set_enabled(mode.ring_enabled);
  d.runtime->sampler().set_every(mode.sample_every);

  auto setup = d.system->make_client(d.host(0, 0), "setup");
  const Loid cls = DeriveWorkerClass(
      *setup, "Worker", {d.system->magistrate_of(d.jurisdictions[0])});
  const Loid target = CreateWorker(*setup, cls);
  core::Client client(*d.runtime, d.host(1, 0), "m",
                      d.system->handles_for(d.host(1, 0)), 64, Rng(seed));
  for (int i = 0; i < kWarmup; ++i) MustCall(client, target, "Noop");

  const std::uint64_t hops_before = d.runtime->traces().recorded();
  const double t0 = ThreadCpuMicros();
  for (int i = 0; i < kCalls; ++i) MustCall(client, target, "Noop");
  const double t1 = ThreadCpuMicros();
  if (hops_out != nullptr) {
    *hops_out = d.runtime->traces().recorded() - hops_before;
  }
  return t1 - t0;
}

void Run() {
  // us[m][rep] is mode m's CPU time in rep `rep`; ratio[m][rep] is that
  // time over the same rep's off time.
  std::array<std::array<double, kReps>, kNumModes> us{};
  std::array<std::array<double, kReps>, kNumModes> ratio{};
  std::uint64_t hops[kNumModes] = {};
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t m = 0; m < kNumModes; ++m) {
      us[m][rep] = RunOnce(kModes[m], 100 + rep, &hops[m]);
    }
    for (std::size_t m = 0; m < kNumModes; ++m) {
      ratio[m][rep] = us[m][rep] / us[0][rep];
    }
  }

  sim::Table table("trace span overhead on the warm binding path (sampling "
                   "ablation)",
                   {"tracing", "cpu_us_median", "ns_per_call",
                    "hops_recorded"});
  for (std::size_t m = 0; m < kNumModes; ++m) {
    const double median_us = Median(us[m]);
    table.row({kModes[m].label,
               sim::Table::num(static_cast<std::uint64_t>(median_us)),
               sim::Table::num(
                   static_cast<std::uint64_t>(median_us / kCalls * 1000.0)),
               sim::Table::num(hops[m])});
  }
  table.print();

  const double full_pct = (Median(ratio[1]) - 1.0) * 100.0;
  const double sampled_pct = (Median(ratio[2]) - 1.0) * 100.0;
  std::printf("\noverhead vs off: 1-in-1 %+.2f%%, 1-in-64 %+.2f%% "
              "(%d warm calls, thread CPU time, median of %d paired reps)\n",
              full_pct, sampled_pct, kCalls, kReps);
  std::printf("verdict: %s (budget: 1-in-64 sampling < 5%%)\n",
              sampled_pct < 5.0 ? "PASS" : "FAIL");
}

}  // namespace
}  // namespace legion::bench

int main() { legion::bench::Run(); }
