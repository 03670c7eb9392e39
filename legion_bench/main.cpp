// legion_bench: what one Legion call costs, end to end and layer by layer.
//
//   legion_bench --workload <name|all> --seed N --seconds S --trace 0|1
//                [--out-dir DIR]
//
// Prints each metric by name with its unit, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics", "meta"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes DIR/trace_<workload>.json (Chrome trace-event format).
// "all" runs every workload, untraced then traced, in this one process.
// Refuses to run from a Debug or sanitizer build. run.py builds and drives
// it; see README.md.
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace legion::bench {
namespace {

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Why numbers from this binary would not describe an optimized build, or
// "" when they would.
std::string UnoptimizedReason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  const std::string_view type = LEGION_BENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    return "build type '" + std::string(type) + "' is not optimized";
  }
  if (std::string_view(LEGION_BENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string_view::npos) {
    return "built with -fsanitize";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
  return "";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// `steal_pct`: the share of CPU time the hypervisor gave to other guests
// while the run lasted. Above a few percent, the machine was contended and
// the timings read slow.
std::string MetaJson(const std::string& workload, std::uint64_t seed,
                     double seconds, int trace, double steal_pct) {
  utsname uts{};
  const bool have_uts = ::uname(&uts) == 0;
  std::string out = "{";
  out += "\"workload\":" + JsonString(workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"seconds\":" + JsonNumber(seconds);
  out += ",\"trace\":" + std::to_string(trace);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"cpu_model\":" + JsonString(CpuModel());
  out += ",\"kernel\":" +
         JsonString(have_uts ? std::string(uts.sysname) + " " + uts.release +
                                   " " + uts.version
                             : "unknown");
  out += ",\"compiler\":" + JsonString(__VERSION__);
  out += ",\"build_type\":" + JsonString(LEGION_BENCH_BUILD_TYPE);
  out += ",\"cxx_flags\":" + JsonString(LEGION_BENCH_CXX_FLAGS);
  out += ",\"steal_pct\":" + JsonNumber(steal_pct);
  out += ",\"clients\":2,\"hosts\":4}";
  return out;
}

// Starts the process's peak resident set (VmHWM) afresh at what it holds
// now, after handing freed heap back to the kernel, so that peak_rss_mb is
// a workload's own peak even after other workloads ran in this process.
void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

struct Totals {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string metrics_json;
};

void Report(std::string_view workload, const char* kind, const RunResult& r,
            const std::string& key_prefix, Totals& totals) {
  std::printf("== %.*s (%s)\n", static_cast<int>(workload.size()),
              workload.data(), kind);
  for (const std::string& note : r.notes) std::printf("   %s\n", note.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("   %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!totals.metrics_json.empty()) totals.metrics_json += ",";
    totals.metrics_json += JsonString(key_prefix + m.name) + ":{\"value\":" +
                           JsonNumber(m.value) +
                           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  const double failed_ratio =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.failed) /
                             static_cast<double>(r.attempted);
  std::printf("   %-32s %14.4f ratio (%llu of %llu ops)\n", "failed_ratio",
              failed_ratio, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::printf("   correct: %s\n", r.correct ? "yes" : "NO");
  std::fflush(stdout);
  totals.correct = totals.correct && r.correct;
  totals.attempted += r.attempted;
  totals.failed += r.failed;
}

int Usage() {
  std::fprintf(stderr,
               "usage: legion_bench --workload <warm_invoke|cold_resolve|"
               "lifecycle_churn|process_invoke|all> --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload = "all";
  std::uint64_t seed = 1;
  double seconds = 12.0;  // run_seconds in BENCHMARK.json
  int trace = 0;
  std::string out_dir = ".bench_build/legion_bench/out";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0) || seconds > 3600.0) return Usage();
    } else if (arg == "--trace") {
      trace = std::atoi(value);
      if (trace != 0 && trace != 1) return Usage();
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }

  std::vector<Workload> chosen;
  if (workload == "all") {
    chosen.assign(std::begin(kAllWorkloads), std::end(kAllWorkloads));
  } else if (auto w = ParseWorkload(workload)) {
    chosen.push_back(*w);
  } else {
    return Usage();
  }

  const std::string unoptimized = UnoptimizedReason();
  if (!unoptimized.empty()) {
    std::fprintf(stderr,
                 "legion_bench: refusing to report numbers: %s. Build with "
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo and no sanitizer.\n",
                 unoptimized.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "legion_bench: cannot create %s\n", out_dir.c_str());
    return 2;
  }

  Totals totals;
  const CpuJiffies jiffies0 = ReadCpuJiffies();
  const bool all = chosen.size() > 1;
  for (const Workload w : chosen) {
    const std::string name(Name(w));
    RunConfig config;
    config.workload = w;
    config.seed = seed;
    config.seconds = seconds;
    config.trace_out = out_dir + "/trace_" + name + ".json";
    config.socket_dir = out_dir + "/uds." + std::to_string(::getpid());
    const std::string prefix = all ? name + "." : "";
    if (all) ResetPeakRss();
    // A single workload runs the mode asked for; "all" runs both.
    for (const int t : all ? std::vector<int>{0, 1} : std::vector<int>{trace}) {
      config.trace = t == 1;
      Report(name, t == 1 ? "traced: per-layer" : "untraced: end-to-end",
             RunWorkload(config), prefix, totals);
    }
  }

  const CpuJiffies jiffies1 = ReadCpuJiffies();
  const std::uint64_t total = jiffies1.total - jiffies0.total;
  const double steal_pct =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(jiffies1.steal - jiffies0.steal) /
                       static_cast<double>(total);
  std::printf("host steal time during the run: %.2f%% of CPU time\n",
              steal_pct);
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s},"
      "\"meta\":%s}\n",
      totals.correct ? "true" : "false",
      static_cast<unsigned long long>(totals.attempted),
      static_cast<unsigned long long>(totals.failed),
      totals.metrics_json.c_str(),
      MetaJson(workload, seed, seconds, trace, steal_pct).c_str());
  return totals.correct ? 0 : 1;
}

}  // namespace
}  // namespace legion::bench

int main(int argc, char** argv) { return legion::bench::Main(argc, argv); }
