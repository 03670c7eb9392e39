// The four closed-loop workloads of legion_bench and the measurement of one
// run: set-up, warm-up, the measured window, the correctness checks, and
// (traced runs) the per-layer timings and the Chrome trace export.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace legion::bench {

enum class Workload : std::uint8_t {
  kWarmInvoke,
  kColdResolve,
  kLifecycleChurn,
  kProcessInvoke,
};

inline constexpr Workload kAllWorkloads[] = {
    Workload::kWarmInvoke, Workload::kColdResolve, Workload::kLifecycleChurn,
    Workload::kProcessInvoke};

[[nodiscard]] std::string_view Name(Workload w);
[[nodiscard]] std::optional<Workload> ParseWorkload(std::string_view name);

struct RunConfig {
  Workload workload = Workload::kWarmInvoke;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  // Traced runs write one call's layer waterfall here (Chrome trace JSON).
  std::string trace_out;
  // process_invoke: directory for the Unix-domain sockets and the staged
  // worker inputs. Keep it short and relative (sun_path holds 108 bytes).
  std::string socket_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Untraced runs: the end-to-end metrics. Traced runs: the per-layer ones.
  std::vector<Metric> metrics;
  // Human-readable lines printed above the result (spreads, sample counts,
  // failed checks).
  std::vector<std::string> notes;
};

// CPU time of every CPU so far, in jiffies, from /proc/stat: the total and
// the part the hypervisor gave to other guests ("steal"). A contended host
// shows as steal, and the timings of the same period read slow.
struct CpuJiffies {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuJiffies ReadCpuJiffies();

// Runs one workload once. Set-up failures come back as correct == false
// with the reason in `notes`.
[[nodiscard]] RunResult RunWorkload(const RunConfig& config);

}  // namespace legion::bench
