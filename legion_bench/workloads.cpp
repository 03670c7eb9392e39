#include "workloads.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "base/rng.hpp"
#include "core/system.hpp"
#include "core/well_known.hpp"
#include "core/wire.hpp"
#include "obs/trace_export.hpp"
#include "rt/epoll_runtime.hpp"
#include "rt/process_runtime.hpp"
#include "sim/sample_objects.hpp"
#include "stats.hpp"

namespace legion::bench {

std::string_view Name(Workload w) {
  switch (w) {
    case Workload::kWarmInvoke: return "warm_invoke";
    case Workload::kColdResolve: return "cold_resolve";
    case Workload::kLifecycleChurn: return "lifecycle_churn";
    case Workload::kProcessInvoke: return "process_invoke";
  }
  return "unknown";
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (Name(w) == name) return w;
  }
  return std::nullopt;
}

CpuJiffies ReadCpuJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuJiffies out;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in >> value; ++field) {
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

namespace {

constexpr std::size_t kHosts = 4;
constexpr std::size_t kClients = 2;
// About 30x the 64-entry client binding cache and half the Binding Agent's
// 4096-entry cache: nearly every call misses locally and hits in the agent.
constexpr std::size_t kColdTargets = 2000;
// Each run sets up kSetups fresh deployments, one after another, and measures
// the last MeasuredTrials of them.
constexpr int kSetups = 8;
// setup_s is the median over the quiet set-ups: those during which the
// hypervisor stole at most 1/kQuietSetupShare of the machine's CPU time. A
// set-up of a few milliseconds is easily disturbed, so an untraced run goes
// on making throwaway set-ups until it has timed kSetups quiet ones and
// kSetupBudgetS of set-up time, at most kMaxSetups in all. With fewer than
// kSetups / 2 quiet set-ups, the median is taken over all of them.
constexpr std::uint64_t kQuietSetupShare = 50;
constexpr double kSetupBudgetS = 0.25;
constexpr std::size_t kMaxSetups = 4 * kSetups;
// The last set-ups of a run are measured, each for an equal share of the
// run. The scheduler settles each deployment's threads into a different
// pattern (one deployment's calls/s varies by about 15% from one set-up to
// the next), so the invoke workloads measure all eight and every end-to-end
// metric is taken over all of them. lifecycle_churn measures one deployment
// for the whole run: it retains memory with every cycle, and peak_rss_mb
// must show what a long-lived deployment retains (see kRssCycles).
constexpr int MeasuredTrials(Workload w) {
  return w == Workload::kLifecycleChurn ? 1 : kSetups;
}
constexpr std::string_view kIncrement = "Increment";
constexpr std::string_view kGet = "Get";
constexpr SimTime kTimeoutUs = rt::Messenger::kDefaultTimeoutUs;
// Chrome-trace "pid" of the benchmark's own spans (hosts are small ids).
constexpr std::uint32_t kBenchLane = 1000;

using Clock = std::chrono::steady_clock;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double CpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// A "Key:   value kB" row of /proc/self/status, in bytes; 0 if absent.
std::uint64_t ProcStatusBytes(std::string_view key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      return std::stoull(line.substr(key.size() + 1)) * 1024;
    }
  }
  return 0;
}

std::optional<std::int64_t> ReadI64(const Buffer& b) {
  Reader r(b);
  const std::int64_t v = r.i64();
  if (!r.ok()) return std::nullopt;
  return v;
}

// One deployment: 4 hosts in one jurisdiction, the bootstrapped core
// objects, a Worker class derived from sim.worker, two clients and the
// workload's pre-created Workers. Members are destroyed clients first,
// runtime last.
class Fixture {
 public:
  Status Build(Workload workload, std::uint64_t seed,
               const std::string& socket_dir) {
    if (workload == Workload::kProcessInvoke) {
      rt::ProcessOptions options;
      options.socket_dir = socket_dir;
      runtime_ = std::make_unique<rt::ProcessRuntime>(std::move(options));
    } else {
      runtime_ = std::make_unique<rt::EpollRuntime>();
    }
    auto& topo = runtime_->topology();
    const JurisdictionId j = topo.add_jurisdiction("bench");
    std::vector<HostId> hosts;
    for (std::size_t h = 0; h < kHosts; ++h) {
      hosts.push_back(topo.add_host("bench-h" + std::to_string(h), {j}, 1e9));
    }
    core::SystemConfig config;
    config.seed = seed;
    system_ = std::make_unique<core::LegionSystem>(*runtime_, config);
    LEGION_RETURN_IF_ERROR(sim::RegisterSampleObjects(system_->registry()));
    LEGION_RETURN_IF_ERROR(system_->bootstrap());
    for (std::size_t c = 0; c < kClients; ++c) {
      clients_.push_back(system_->make_client(
          hosts[c % kHosts], "bench-client-" + std::to_string(c)));
    }

    core::wire::DeriveRequest req;
    req.name = "BenchWorker";
    req.instance_impl = std::string(sim::WorkerImpl::kName);
    req.extra_interface = sim::WorkerImpl{}.interface();
    if (workload == Workload::kProcessInvoke) {
      req.instance_executable = LEGION_OBJECTD_PATH;
    }
    LEGION_ASSIGN_OR_RETURN(core::wire::CreateReply cls,
                            clients_[0]->derive(core::LegionObjectLoid(), req));
    worker_class_ = cls.loid;

    std::size_t targets = 0;
    if (workload == Workload::kWarmInvoke ||
        workload == Workload::kProcessInvoke) {
      targets = kClients;  // one per client, created by its client
    } else if (workload == Workload::kColdResolve) {
      targets = kColdTargets;
    }
    for (std::size_t i = 0; i < targets; ++i) {
      LEGION_ASSIGN_OR_RETURN(
          core::wire::CreateReply obj,
          clients_[i % kClients]->create(worker_class_, sim::WorkerInit(0, 0)));
      targets_.push_back(obj.loid);
    }
    return OkStatus();
  }

  [[nodiscard]] rt::Runtime& runtime() { return *runtime_; }
  [[nodiscard]] core::Client& client(std::size_t i) { return *clients_[i]; }
  [[nodiscard]] const Loid& worker_class() const { return worker_class_; }
  [[nodiscard]] const std::vector<Loid>& targets() const { return targets_; }

 private:
  std::unique_ptr<rt::Runtime> runtime_;
  std::unique_ptr<core::LegionSystem> system_;
  std::vector<std::unique_ptr<core::Client>> clients_;
  Loid worker_class_;
  std::vector<Loid> targets_;
};

// Per-layer timings of the traced loop, in nanoseconds.
struct Layers {
  LatencyHistogram resolve;
  LatencyHistogram invoke;
  LatencyHistogram await;
  LatencyHistogram create;
  LatencyHistogram first_call;
  LatencyHistogram del;

  void merge(const Layers& o) {
    resolve.merge(o.resolve);
    invoke.merge(o.invoke);
    await.merge(o.await);
    create.merge(o.create);
    first_call.merge(o.first_call);
    del.merge(o.del);
  }
};

// The benchmark's own spans for the exported waterfall, stamped on the
// runtime clock so they line up with the program's TraceRing hops. Each
// span is a kInvoke/kReply pair, which the program's Chrome exporter turns
// into one complete event.
class Waterfall {
 public:
  Waterfall(rt::Runtime& runtime, std::uint64_t lane)
      : lane_(lane),
        offset_ns_(static_cast<std::int64_t>(runtime.now()) * 1000 -
                   static_cast<std::int64_t>(NowNs())) {}

  void begin_op() {
    trace_ = obs::NextTraceId();
    root_ = obs::NextSpanId();
    op_start_ = NowNs();
  }
  void end_op(std::string_view name) { push(name, root_, 0, op_start_, NowNs()); }
  void span(std::string_view name, std::uint64_t start_ns, std::uint64_t end_ns) {
    push(name, obs::NextSpanId(), root_, start_ns, end_ns);
  }
  // `base` stamped so the program's spans nest beneath the current op.
  [[nodiscard]] rt::EnvTriple env(rt::EnvTriple base) const {
    base.trace_id = trace_;
    base.hop = 0;
    base.span_id = root_;
    base.parent_span_id = 0;
    return base;
  }
  [[nodiscard]] const std::vector<obs::TraceHop>& hops() const { return hops_; }

 private:
  void push(std::string_view name, obs::SpanId span, obs::SpanId parent,
            std::uint64_t start_ns, std::uint64_t end_ns) {
    obs::TraceHop hop;
    hop.trace_id = trace_;
    hop.span_id = span;
    hop.parent_span_id = parent;
    hop.host = kBenchLane;
    hop.src = lane_;
    hop.dst = lane_;
    hop.set_method(name);
    hop.kind = obs::HopKind::kInvoke;
    hop.at = ToRuntimeUs(start_ns);
    hops_.push_back(hop);
    hop.kind = obs::HopKind::kReply;
    hop.at = ToRuntimeUs(end_ns);
    hops_.push_back(hop);
  }
  [[nodiscard]] SimTime ToRuntimeUs(std::uint64_t ns) const {
    return static_cast<SimTime>(
        (static_cast<std::int64_t>(ns) + offset_ns_) / 1000);
  }

  std::uint64_t lane_;
  std::int64_t offset_ns_;
  obs::TraceId trace_ = 0;
  obs::SpanId root_ = 0;
  std::uint64_t op_start_ = 0;
  std::vector<obs::TraceHop> hops_;
};

// One client thread's closed loop and what it measured.
struct ClientLoop {
  core::Client* client = nullptr;
  Rng rng;
  std::int64_t own_count = 0;  // successful Increments on its own Worker
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<LatencyHistogram> windows;  // the current phase's latencies
  Layers layers;
};

struct Bench {
  Workload workload = Workload::kWarmInvoke;
  Fixture* fx = nullptr;
  std::vector<ClientLoop> loops;
  // cold_resolve: successful Increments per target, across both clients.
  std::vector<std::atomic<std::int64_t>> cold_counts;
  // Ops of every phase on this deployment so far, by every client.
  std::atomic<std::uint64_t> ops{0};
  // When not 0: the peak resident set is read, into rss_bytes, at the first
  // window boundary by which the deployment has made this many ops.
  std::uint64_t rss_at_ops = 0;
  std::uint64_t rss_bytes = 0;
};

// Increment through ObjectRef::call, the path users take.
std::optional<std::int64_t> Increment(core::Client& client, const Loid& target) {
  Result<Buffer> reply = client.ref(target).call(kIncrement);
  if (!reply.ok()) return std::nullopt;
  return ReadI64(*reply);
}

// The same Increment through the layers ObjectRef::call is made of —
// Resolver::resolve, Messenger::invoke, Messenger::await — each timed. For
// the single-element bindings of these workloads this is the path
// Resolver::call takes when no binding is stale.
std::optional<std::int64_t> TracedIncrement(core::Client& client,
                                            const Loid& target, Layers& layers,
                                            Waterfall* wf) {
  const rt::EnvTriple env = wf != nullptr ? wf->env(client.env()) : client.env();
  const std::uint64_t t0 = NowNs();
  Result<core::Binding> binding = client.resolver().resolve(target, kTimeoutUs);
  const std::uint64_t t1 = NowNs();
  layers.resolve.record(t1 - t0);
  if (wf != nullptr) wf->span("bench.resolve", t0, t1);
  if (!binding.ok() || binding->address.elements().size() != 1 ||
      binding->address.elements()[0].type() != net::AddressType::kSim) {
    return std::nullopt;
  }
  rt::Future<rt::ReplyMsg> future = client.messenger().invoke(
      binding->address.elements()[0].sim_endpoint(), kIncrement, Buffer{}, env);
  const std::uint64_t t2 = NowNs();
  layers.invoke.record(t2 - t1);
  Result<Buffer> reply = client.messenger().await(std::move(future), kTimeoutUs);
  const std::uint64_t t3 = NowNs();
  layers.await.record(t3 - t2);
  if (wf != nullptr) {
    wf->span("bench.invoke", t1, t2);
    wf->span("bench.await", t2, t3);
  }
  if (!reply.ok()) return std::nullopt;
  return ReadI64(*reply);
}

// One operation of the workload; false when it failed or returned a wrong
// result.
bool DoOp(Bench& b, ClientLoop& loop, bool traced, Waterfall* wf) {
  core::Client& client = *loop.client;
  auto increment = [&](const Loid& target) {
    return traced ? TracedIncrement(client, target, loop.layers, wf)
                  : Increment(client, target);
  };
  switch (b.workload) {
    case Workload::kWarmInvoke:
    case Workload::kProcessInvoke: {
      const std::size_t self = static_cast<std::size_t>(&loop - b.loops.data());
      const std::optional<std::int64_t> count =
          increment(b.fx->targets()[self]);
      if (!count.has_value()) return false;
      ++loop.own_count;
      return *count == loop.own_count;
    }
    case Workload::kColdResolve: {
      const std::size_t index =
          static_cast<std::size_t>(loop.rng.below(b.fx->targets().size()));
      const std::optional<std::int64_t> count =
          increment(b.fx->targets()[index]);
      if (!count.has_value()) return false;
      b.cold_counts[index].fetch_add(1, std::memory_order_relaxed);
      return *count >= 1;
    }
    case Workload::kLifecycleChurn: {
      const Loid& cls = b.fx->worker_class();
      std::uint64_t t0 = NowNs();
      Result<core::wire::CreateReply> created =
          client.create(cls, sim::WorkerInit(0, 0));
      std::uint64_t t1 = NowNs();
      if (traced) {
        loop.layers.create.record(t1 - t0);
        if (wf != nullptr) wf->span("bench.create", t0, t1);
      }
      if (!created.ok()) return false;
      const std::optional<std::int64_t> count = increment(created->loid);
      t0 = NowNs();
      if (traced) {
        loop.layers.first_call.record(t0 - t1);
        if (wf != nullptr) wf->span("bench.first_call", t1, t0);
      }
      const Status deleted = client.delete_object(cls, created->loid);
      t1 = NowNs();
      if (traced) {
        loop.layers.del.record(t1 - t0);
        if (wf != nullptr) wf->span("bench.delete", t0, t1);
      }
      return count.has_value() && *count == 1 && deleted.ok();
    }
  }
  return false;
}

// Bytes the heap holds for the program right now (every arena plus mmapped
// blocks). Unlike RSS it does not hide growth in memory an earlier
// deployment freed.
double HeapInUse() {
  const struct mallinfo2 m = ::mallinfo2();
  return static_cast<double>(m.uordblks) + static_cast<double>(m.hblkhd);
}

// Length of the windows a phase is cut into. Short enough that a stall of
// the machine (the hypervisor taking a CPU away for tens of milliseconds)
// spoils few windows.
constexpr double kWindowS = 0.1;
// A window is quiet when the hypervisor stole no jiffy (10 ms of a CPU)
// while it lasted. On a shared VM, steal comes in bursts of tens of seconds
// to minutes that halve throughput and multiply tail latency; windows with any steal
// are left out of the end-to-end figures. A phase runs its nominal windows,
// then goes on while fewer than half of them were quiet, up to twice as
// many, so that a run caught by a burst still measures the machine when it
// is quiet. When the quiet windows hold fewer than kP99Samples ops even
// then, every window is measured.
constexpr std::uint64_t kQuietStealJiffies = 0;
constexpr int kMaxWindowsFactor = 2;
// Fewest samples a p99 is taken over: ten beyond it.
constexpr std::uint64_t kP99Samples = 1000;
// lifecycle_churn retains memory with every cycle, so its peak_rss_mb is
// read once the deployment has made this many cycles (about 11 s of a run on
// a 4-vCPU VM), not at the end of the run: a run that got less CPU makes
// fewer cycles and would otherwise read lower. When the measured phase ends
// short of it, the clients go on, untimed, until it is reached.
constexpr std::uint64_t kRssCycles = 30000;

// The end-to-end figures of one phase, from a chosen set of its windows.
struct Summary {
  int windows = 0;  // windows the figures are taken from
  // One value per window.
  std::vector<double> ops_s;
  std::vector<double> p50_us;
  std::vector<double> cpu_us_per_op;
  // One value per run of consecutive windows holding kP99Samples ops.
  std::vector<double> p99_us;
  LatencyHistogram latency;  // every op of the windows
};

struct PhaseResult {
  int windows = 0;
  Summary quiet;  // the quiet windows, or all of them when too few are quiet
  Summary all;    // every window, to show what the filter changes
  double heap_growth = 0.0;     // heap bytes in use, end minus start
  std::uint64_t attempted = 0;  // every op started, in time or not
  std::uint64_t failed = 0;
  Layers layers;                // traced phases only
};

// Runs every client's closed loop for `seconds`, cut into windows of
// kWindowS, and longer while the machine is not quiet (see
// kQuietStealJiffies). An op belongs to the window it ends in; ops ending
// after the last window count only towards attempted/failed.
PhaseResult RunPhase(Bench& b, double seconds, bool traced) {
  const int nominal = std::max(1, static_cast<int>(seconds / kWindowS + 0.5));
  const int most = nominal * kMaxWindowsFactor;
  const auto window = std::chrono::nanoseconds(
      static_cast<std::int64_t>(seconds * 1e9 / nominal));
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const std::uint64_t start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  const std::uint64_t window_ns = static_cast<std::uint64_t>(window.count());
  std::atomic<bool> stop{false};

  PhaseResult out;
  std::vector<std::uint64_t> attempted_before;
  std::vector<std::uint64_t> failed_before;
  for (ClientLoop& loop : b.loops) {
    loop.windows.assign(static_cast<std::size_t>(most), LatencyHistogram{});
    loop.layers = Layers{};
    attempted_before.push_back(loop.attempted);
    failed_before.push_back(loop.failed);
  }
  std::vector<std::thread> threads;
  threads.reserve(b.loops.size());
  // Taken at every window boundary: wall clock, process CPU, stolen jiffies.
  std::vector<std::uint64_t> wall_marks;
  std::vector<double> cpu_marks;
  std::vector<std::uint64_t> steal_marks;
  wall_marks.reserve(static_cast<std::size_t>(most) + 1);
  cpu_marks.reserve(static_cast<std::size_t>(most) + 1);
  steal_marks.reserve(static_cast<std::size_t>(most) + 1);
  auto mark = [&] {
    wall_marks.push_back(NowNs());
    cpu_marks.push_back(CpuSeconds());
    steal_marks.push_back(ReadCpuJiffies().steal);
    if (b.rss_at_ops != 0 && b.rss_bytes == 0 && b.ops.load() >= b.rss_at_ops) {
      b.rss_bytes = ProcStatusBytes("VmHWM");
    }
  };

  const double heap0 = HeapInUse();
  for (ClientLoop& loop : b.loops) {
    threads.emplace_back([&b, &loop, &stop, start, start_ns, window_ns, most,
                          traced] {
      std::this_thread::sleep_until(start);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t t0 = NowNs();
        const bool ok = DoOp(b, loop, traced, nullptr);
        const std::uint64_t t1 = NowNs();
        ++loop.attempted;
        if (!ok) ++loop.failed;
        b.ops.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t w = (t1 - start_ns) / window_ns;
        if (w < static_cast<std::uint64_t>(most)) {
          loop.windows[w].record(t1 - t0);
        }
      }
    });
  }
  auto is_quiet = [&](int w) {
    return steal_marks[w + 1] - steal_marks[w] <= kQuietStealJiffies;
  };
  std::this_thread::sleep_until(start);
  mark();
  int windows = 0;
  int quiet_windows = 0;
  while (windows < nominal ||
         (quiet_windows * 2 < nominal && windows < most)) {
    ++windows;
    std::this_thread::sleep_until(start + window * windows);
    mark();
    quiet_windows += is_quiet(windows - 1) ? 1 : 0;
  }
  stop.store(true);
  for (std::thread& t : threads) t.join();
  out.heap_growth = HeapInUse() - heap0;
  out.windows = windows;

  // Every client's ops, merged in place into the first client's windows so
  // that summing them allocates nothing (peak_rss_mb includes the
  // benchmark's own memory).
  std::vector<LatencyHistogram>& merged = b.loops[0].windows;
  for (int w = 0; w < windows; ++w) {
    for (std::size_t c = 1; c < b.loops.size(); ++c) {
      merged[w].merge(b.loops[c].windows[w]);
    }
  }
  auto summarize = [&](bool skip_loud) {
    Summary s;
    LatencyHistogram group;  // windows in order, until kP99Samples
    for (int w = 0; w < windows; ++w) {
      if (skip_loud && !is_quiet(w)) continue;
      const std::uint64_t ops = merged[w].count();
      // Between the marks the CPU time is read at. Ops are placed by the
      // nominal window edges, which the marks trail by the main thread's
      // wake-up delay, some microseconds.
      const double window_s =
          static_cast<double>(wall_marks[w + 1] - wall_marks[w]) * 1e-9;
      ++s.windows;
      s.ops_s.push_back(static_cast<double>(ops) / window_s);
      s.p50_us.push_back(merged[w].percentile(0.50) / 1000.0);
      s.cpu_us_per_op.push_back(
          PerOp((cpu_marks[w + 1] - cpu_marks[w]) * 1e6, ops));
      group.merge(merged[w]);
      if (group.count() >= kP99Samples) {
        s.p99_us.push_back(group.percentile(0.99) / 1000.0);
        group = LatencyHistogram{};
      }
      s.latency.merge(merged[w]);
    }
    return s;
  };
  std::uint64_t quiet_ops = 0;
  for (int w = 0; w < windows; ++w) quiet_ops += is_quiet(w) ? merged[w].count() : 0;
  out.quiet = summarize(quiet_ops >= kP99Samples);
  out.all = summarize(false);
  for (std::size_t c = 0; c < b.loops.size(); ++c) {
    out.attempted += b.loops[c].attempted - attempted_before[c];
    out.failed += b.loops[c].failed - failed_before[c];
    out.layers.merge(b.loops[c].layers);
  }
  return out;
}

// Runs every client's closed loop, untimed, until the deployment has made
// `ops` ops in all.
void RunUntil(Bench& b, std::uint64_t ops) {
  std::vector<std::thread> threads;
  for (ClientLoop& loop : b.loops) {
    threads.emplace_back([&b, &loop, ops] {
      while (b.ops.load(std::memory_order_relaxed) < ops) {
        ++loop.attempted;
        if (!DoOp(b, loop, false, nullptr)) ++loop.failed;
        b.ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// Counters, gauges and histograms of one registry at one instant.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, std::int64_t, std::less<>> gauges;
  std::map<std::string, obs::HistogramSnapshot, std::less<>> hists;

  static RegistrySnapshot Take(const obs::Registry& registry) {
    RegistrySnapshot s;
    registry.visit(
        [&](std::string_view name, const obs::Counter& c) {
          s.counters.emplace(std::string(name), c.value());
        },
        [&](std::string_view name, const obs::Gauge& g) {
          s.gauges.emplace(std::string(name), g.value());
        },
        [&](std::string_view name, const obs::Histogram& h) {
          s.hists.emplace(std::string(name), h.snapshot());
        });
    return s;
  }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  [[nodiscard]] std::int64_t gauge(std::string_view name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0 : it->second;
  }
};

std::uint64_t CounterDelta(const RegistrySnapshot& before,
                           const RegistrySnapshot& after,
                           std::string_view name) {
  const std::uint64_t a = before.counter(name);
  const std::uint64_t b = after.counter(name);
  return b > a ? b - a : 0;
}

// The change, between two snapshots, of every histogram whose name starts
// with `prefix`, merged (the per-host copies of one method, for example).
obs::HistogramSnapshot HistDelta(const RegistrySnapshot& before,
                                 const RegistrySnapshot& after,
                                 std::string_view prefix) {
  obs::HistogramSnapshot out;
  for (const auto& [name, snap] : after.hists) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    auto it = before.hists.find(name);
    out.merge(it == before.hists.end() ? snap : snap.delta_since(it->second));
  }
  return out;
}

double P50Us(const obs::HistogramSnapshot& h) {
  return Log2BucketPercentile(h.buckets, 0.5);
}

double P50Us(const LatencyHistogram& h) { return h.percentile(0.5) / 1000.0; }

// Median cost, in ns, of encoding and decoding the request and reply types
// the workload's calls carry.
double WireRoundTripNs(Bench& b) {
  core::Client& client = b.fx->client(0);
  const Loid probe = b.fx->targets().empty() ? b.fx->worker_class()
                                             : b.fx->targets().front();
  Result<core::Binding> resolved = client.resolver().resolve(probe, kTimeoutUs);
  const core::Binding binding = resolved.ok() ? *resolved : core::Binding{};
  rt::EnvTriple env = client.env();
  env.trace_id = 1;
  env.span_id = 2;

  std::uint64_t sink = 0;
  auto round_trip = [&] {
    switch (b.workload) {
      case Workload::kWarmInvoke:
      case Workload::kProcessInvoke: {
        Buffer request;
        Writer w(request);
        env.Serialize(w);
        w.str(kIncrement);
        Reader r(request);
        sink += rt::EnvTriple::Deserialize(r).span_id + r.str().size();
        Buffer reply;
        Writer rw(reply);
        rw.i64(static_cast<std::int64_t>(sink));
        sink += ReadI64(reply).value_or(0) & 1;
        break;
      }
      case Workload::kColdResolve: {
        core::wire::GetBindingRequest req;
        req.loid = probe;
        auto back = core::wire::GetBindingRequest::from_buffer(req.to_buffer());
        sink += back.ok() ? back->loid.class_id() : 0;
        auto rep = core::wire::BindingReply::from_buffer(
            core::wire::BindingReply{binding}.to_buffer());
        sink += rep.ok() ? rep->binding.loid.class_id() : 0;
        break;
      }
      case Workload::kLifecycleChurn: {
        core::wire::CreateRequest req;
        req.init_state = sim::WorkerInit(0, 0);
        auto back = core::wire::CreateRequest::from_buffer(req.to_buffer());
        sink += back.ok() ? back->init_state.size() : 0;
        core::wire::CreateReply rep{probe, binding};
        auto rep_back = core::wire::CreateReply::from_buffer(rep.to_buffer());
        sink += rep_back.ok() ? rep_back->loid.class_id() : 0;
        auto del = core::wire::LoidRequest::from_buffer(
            core::wire::LoidRequest{probe}.to_buffer());
        sink += del.ok() ? del->loid.class_id() : 0;
        break;
      }
    }
  };
  constexpr int kBatches = 11;
  constexpr int kPerBatch = 2000;
  std::vector<double> per_op;
  for (int batch = 0; batch < kBatches; ++batch) {
    const std::uint64_t t0 = NowNs();
    for (int i = 0; i < kPerBatch; ++i) round_trip();
    per_op.push_back(static_cast<double>(NowNs() - t0) / kPerBatch);
  }
  // Keeps the loop's results observable.
  static std::atomic<std::uint64_t> keep{0};
  keep.fetch_add(sink, std::memory_order_relaxed);
  return Median(per_op);
}

// A few ops on client 0, with the program's trace ring cleared first, so
// the file holds whole call trees: the benchmark's layer spans with the
// program's own hops beneath them.
void ExportWaterfall(Bench& b, const std::string& path, RunResult& out) {
  rt::Runtime& runtime = b.fx->runtime();
  ClientLoop& loop = b.loops[0];
  runtime.traces().clear();
  Waterfall wf(runtime, loop.client->messenger().endpoint().value);
  for (int i = 0; i < 2; ++i) {
    wf.begin_op();
    const bool ok = DoOp(b, loop, /*traced=*/true, &wf);
    wf.end_op(std::string("bench.") + std::string(Name(b.workload)));
    ++loop.attempted;
    if (!ok) ++loop.failed;
  }
  std::vector<obs::TraceHop> hops =
      runtime.traces().last(runtime.traces().capacity());
  hops.insert(hops.end(), wf.hops().begin(), wf.hops().end());
  std::stable_sort(hops.begin(), hops.end(),
                   [](const obs::TraceHop& x, const obs::TraceHop& y) {
                     return x.at < y.at;
                   });
  if (!obs::WriteChromeTraceFile(hops, path)) {
    out.correct = false;
    out.notes.push_back("cannot write trace file " + path);
  } else {
    out.notes.push_back("trace: " + path + " (" + std::to_string(hops.size()) +
                        " hops)");
  }
}

void Fail(RunResult& out, std::string why, std::uint64_t failed_ops = 1) {
  out.correct = false;
  out.failed += failed_ops;
  out.notes.push_back("CHECK FAILED: " + std::move(why));
}

// The workload's correctness checks after the loops: counts held by the
// objects against the counts the clients saw, no leaked objects, no
// respawned children.
void CheckResults(Bench& b, const RegistrySnapshot& at_setup, RunResult& out) {
  switch (b.workload) {
    case Workload::kWarmInvoke:
    case Workload::kProcessInvoke:
      for (std::size_t c = 0; c < b.loops.size(); ++c) {
        ++out.attempted;
        auto reply = b.loops[c].client->ref(b.fx->targets()[c]).call(kGet);
        const auto got = reply.ok() ? ReadI64(*reply) : std::nullopt;
        if (got != b.loops[c].own_count) {
          Fail(out, "Get on client " + std::to_string(c) + "'s Worker = " +
                        (got ? std::to_string(*got) : "error") + ", expected " +
                        std::to_string(b.loops[c].own_count));
        }
      }
      break;
    case Workload::kColdResolve: {
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < b.fx->targets().size(); ++i) {
        ++out.attempted;
        auto reply = b.loops[0].client->ref(b.fx->targets()[i]).call(kGet);
        const auto got = reply.ok() ? ReadI64(*reply) : std::nullopt;
        if (got != b.cold_counts[i].load()) ++mismatches;
      }
      if (mismatches != 0) {
        Fail(out,
             std::to_string(mismatches) +
                 " targets whose Get differs from their Increment count",
             mismatches);
      }
      break;
    }
    case Workload::kLifecycleChurn: {
      const RegistrySnapshot now =
          RegistrySnapshot::Take(b.fx->runtime().metrics());
      ++out.attempted;
      if (now.gauge("host.active_objects") !=
          at_setup.gauge("host.active_objects")) {
        Fail(out, "host.active_objects " +
                      std::to_string(now.gauge("host.active_objects")) +
                      " != " +
                      std::to_string(at_setup.gauge("host.active_objects")) +
                      " before the run");
      }
      break;
    }
  }
  if (b.workload == Workload::kProcessInvoke) {
    const RegistrySnapshot now = RegistrySnapshot::Take(b.fx->runtime().metrics());
    ++out.attempted;
    const std::uint64_t respawns =
        CounterDelta(at_setup, now, "rt.proc.respawns");
    const std::int64_t live = now.gauge("rt.proc.live_children");
    if (respawns != 0 || live != static_cast<std::int64_t>(kClients)) {
      Fail(out, std::to_string(respawns) + " children respawned, " +
                    std::to_string(live) + " alive");
    }
  }
}

std::string Spread(const std::vector<double>& values) {
  const Quartiles q = ExclusiveQuartiles(values);
  char buf[96];
  std::snprintf(buf, sizeof buf, "median %.4g [q1 %.4g, q3 %.4g]", q.q2, q.q1,
                q.q3);
  return buf;
}

std::string PercentileName(std::uint32_t p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "p%g", p / 1000.0);
  return buf;
}

// cold_resolve's warm-up: one Increment on every target, so the Binding
// Agent holds every binding before the clock starts and the measured
// consults hit in its cache.
void PrimeBindingAgent(Bench& b) {
  const std::vector<Loid>& targets = b.fx->targets();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    ClientLoop& loop = b.loops[i % b.loops.size()];
    ++loop.attempted;
    const std::optional<std::int64_t> count = Increment(*loop.client, targets[i]);
    if (count.has_value()) b.cold_counts[i].fetch_add(1);
    if (count != 1) ++loop.failed;
  }
}

// Registry histograms the per-layer metrics read, by name prefix.
constexpr std::string_view kHistPrefixes[] = {
    "msg.queue_us", "msg.service_us", "resolver.consult_us",
    "msg.method_us.GetBinding.host.", "msg.method_us.Create.host.",
    "msg.method_us.StoreNew.host.", "msg.method_us.StartObject.host.",
    "msg.method_us.Delete.host.", "msg.method_us.StopObject.host."};

// The untraced figures of every trial of one run, from one set of windows.
struct SummaryTotals {
  int windows = 0;
  // One value per window of every trial (p99: per run of windows holding
  // kP99Samples ops).
  std::vector<double> ops_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> cpu_us_per_op;
  LatencyHistogram latency;          // every op, pooled

  void add(const Summary& s) {
    windows += s.windows;
    ops_s.insert(ops_s.end(), s.ops_s.begin(), s.ops_s.end());
    p50_us.insert(p50_us.end(), s.p50_us.begin(), s.p50_us.end());
    p99_us.insert(p99_us.end(), s.p99_us.begin(), s.p99_us.end());
    cpu_us_per_op.insert(cpu_us_per_op.end(), s.cpu_us_per_op.begin(),
                         s.cpu_us_per_op.end());
    latency.merge(s.latency);
  }
};

// Everything the trials of one run add up to.
struct RunTotals {
  int trials_done = 0;
  int windows = 0;
  SummaryTotals quiet;
  SummaryTotals all;
  std::vector<double> setup_s;  // one value per quiet set-up (see SetupTimes)
  int setups = 0;
  // One value per trial.
  std::vector<double> closure;
  std::vector<double> overhead_pct;
  std::vector<double> wire_ns;
  // Traced phases, summed or merged over the trials.
  Layers layers;
  std::uint64_t traced_ops = 0;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, obs::HistogramSnapshot, std::less<>> hists;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t hops = 0;
  double heap_growth = 0.0;
  std::uint64_t heap_ops = 0;
  std::uint64_t respawns = 0;
  std::int64_t live_children = 0;
  std::uint64_t rss_bytes = 0;  // lifecycle_churn: the peak at kRssCycles
};

void AddUntraced(const PhaseResult& phase, RunTotals& t) {
  t.windows += phase.windows;
  t.quiet.add(phase.quiet);
  t.all.add(phase.all);
}

// One trial of a traced run: an untraced half (the denominators of closure
// and overhead) then a traced half (layer timings and registry deltas).
void TracedTrial(Bench& b, double seconds, const RegistrySnapshot& at_setup,
                 RunTotals& t) {
  rt::Runtime& runtime = b.fx->runtime();
  const PhaseResult plain = RunPhase(b, seconds / 2, false);

  const RegistrySnapshot before = RegistrySnapshot::Take(runtime.metrics());
  const std::uint64_t hops0 = runtime.traces().recorded();
  std::vector<core::BindingCacheStats> cache0;
  for (const ClientLoop& loop : b.loops) {
    cache0.push_back(loop.client->resolver().cache().stats());
  }
  const PhaseResult traced = RunPhase(b, seconds / 2, true);
  const RegistrySnapshot after = RegistrySnapshot::Take(runtime.metrics());
  t.hops += runtime.traces().recorded() - hops0;
  for (std::size_t c = 0; c < b.loops.size(); ++c) {
    const core::BindingCacheStats s =
        b.loops[c].client->resolver().cache().stats();
    t.cache_hits += s.hits - cache0[c].hits;
    t.cache_misses += s.misses - cache0[c].misses;
  }
  const std::string pool = b.workload == Workload::kProcessInvoke
                               ? "rt.proc.pool"
                               : "rt.tcp";
  t.counters["pool_hits"] += CounterDelta(before, after, pool + ".pool_hits");
  t.counters["dials"] += CounterDelta(before, after, pool + ".dials");
  for (const std::string_view name :
       {"msg.invokes", "resolver.consults", "rt.epoll.spare_workers"}) {
    t.counters[std::string(name)] += CounterDelta(before, after, name);
  }
  for (const std::string_view prefix : kHistPrefixes) {
    t.hists[std::string(prefix)].merge(HistDelta(before, after, prefix));
  }
  t.respawns += CounterDelta(at_setup, after, "rt.proc.respawns");
  t.live_children = after.gauge("rt.proc.live_children");
  t.heap_growth += plain.heap_growth + traced.heap_growth;
  t.heap_ops += plain.attempted + traced.attempted;
  t.traced_ops += traced.attempted;
  t.layers.merge(traced.layers);

  const Layers& L = traced.layers;
  std::vector<double> layer_p50 = {P50Us(L.resolve), P50Us(L.invoke),
                                   P50Us(L.await)};
  if (b.workload == Workload::kLifecycleChurn) {
    layer_p50.push_back(P50Us(L.create));
    layer_p50.push_back(P50Us(L.del));
  }
  t.closure.push_back(LayerClosure(layer_p50, Median(plain.quiet.p50_us)));
  t.overhead_pct.push_back(
      OverheadPct(Median(plain.quiet.ops_s), Median(traced.quiet.ops_s)));
  t.wire_ns.push_back(WireRoundTripNs(b));
}

std::vector<Metric> EndToEndMetrics(const RunTotals& t, RunResult& out) {
  const SummaryTotals& s = t.quiet;
  out.notes.push_back(std::to_string(t.trials_done) + " trials, " +
                      std::to_string(s.windows) + " of " +
                      std::to_string(t.windows) + " windows of " +
                      std::to_string(static_cast<int>(kWindowS * 1000)) +
                      " ms measured (the others had hypervisor steal), " +
                      std::to_string(s.p99_us.size()) +
                      " p99 groups; median [quartiles]:");
  out.notes.push_back("  throughput_ops_s " + Spread(s.ops_s));
  out.notes.push_back("  latency_p50_us   " + Spread(s.p50_us));
  out.notes.push_back("  latency_p99_us   " + Spread(s.p99_us));
  out.notes.push_back("  cpu_us_per_op    " + Spread(s.cpu_us_per_op));
  out.notes.push_back("  setup_s          " + Spread(t.setup_s) + " (" +
                      std::to_string(t.setup_s.size()) + " of " +
                      std::to_string(t.setups) + " set-ups)");
  char all[200];
  std::snprintf(all, sizeof all,
                "every window, for comparison: %.1f ops/s, p50 %.2f us, "
                "p99 %.2f us, %.2f us cpu/op",
                Median(t.all.ops_s), Median(t.all.p50_us), Median(t.all.p99_us),
                Median(t.all.cpu_us_per_op));
  out.notes.push_back(all);
  const std::uint32_t top = HighestSupportedPercentile(s.latency.count());
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "pooled latency: n=%llu p50=%.2f us %s=%.2f us",
                static_cast<unsigned long long>(s.latency.count()),
                s.latency.percentile(0.5) / 1000.0, PercentileName(top).c_str(),
                s.latency.percentile(top / 100000.0) / 1000.0);
  out.notes.push_back(buf);
  return {
      {"throughput_ops_s", Median(s.ops_s), "ops/s"},
      {"latency_p50_us", Median(s.p50_us), "us"},
      {"latency_p99_us", Median(s.p99_us), "us"},
      {"cpu_us_per_op", Median(s.cpu_us_per_op), "us"},
      {"peak_rss_mb",
       static_cast<double>(t.rss_bytes != 0 ? t.rss_bytes
                                            : ProcStatusBytes("VmHWM")) /
           (1024.0 * 1024.0),
       "MB"},
      {"setup_s", Median(t.setup_s), "s"},
  };
}

std::vector<Metric> PerLayerMetrics(const RunTotals& t, RunResult& out) {
  const Layers& L = t.layers;
  auto counter = [&](std::string_view name) -> std::uint64_t {
    auto it = t.counters.find(name);
    return it == t.counters.end() ? 0 : it->second;
  };
  auto hist_p50 = [&](std::string_view prefix) {
    auto it = t.hists.find(prefix);
    return it == t.hists.end() ? 0.0 : P50Us(it->second);
  };
  const double await_us = P50Us(L.await);
  const double queue_us = hist_p50("msg.queue_us");
  const double service_us = hist_p50("msg.service_us");
  const auto ops = t.traced_ops;
  out.notes.push_back("per trial: layer_closure " + Spread(t.closure));
  out.notes.push_back("per trial: overhead_pct  " + Spread(t.overhead_pct));
  out.notes.push_back("traced ops " + std::to_string(ops) +
                      " (the base of every per-op count)");
  return {
      {"rt.invoke_us", P50Us(L.invoke), "us"},
      {"rt.await_us", await_us, "us"},
      {"rt.queue_us", queue_us, "us"},
      {"rt.service_us", service_us, "us"},
      {"rt.wire_us", await_us - queue_us - service_us, "us"},
      {"rt.msgs_per_op",
       PerOp(static_cast<double>(counter("msg.invokes")), ops), "count"},
      {"rt.pool_hit_ratio", HitRatio(counter("pool_hits"), counter("dials")),
       "ratio"},
      {"rt.spare_workers",
       static_cast<double>(counter("rt.epoll.spare_workers")), "count"},
      {"rt.proc.respawns", static_cast<double>(t.respawns), "count"},
      {"rt.proc.live_children", static_cast<double>(t.live_children), "count"},
      {"core.resolve_us", P50Us(L.resolve), "us"},
      {"core.binding_cache_hit_ratio", HitRatio(t.cache_hits, t.cache_misses),
       "ratio"},
      {"core.ba_consults_per_op",
       PerOp(static_cast<double>(counter("resolver.consults")), ops), "count"},
      {"core.consult_us", hist_p50("resolver.consult_us"), "us"},
      {"core.getbinding_service_us",
       hist_p50("msg.method_us.GetBinding.host."), "us"},
      {"core.create_us", P50Us(L.create), "us"},
      {"core.first_call_us", P50Us(L.first_call), "us"},
      {"core.delete_us", P50Us(L.del), "us"},
      {"core.create_service_us", hist_p50("msg.method_us.Create.host."), "us"},
      {"core.storenew_service_us", hist_p50("msg.method_us.StoreNew.host."),
       "us"},
      {"core.startobject_service_us",
       hist_p50("msg.method_us.StartObject.host."), "us"},
      {"core.delete_service_us", hist_p50("msg.method_us.Delete.host."), "us"},
      {"core.stopobject_service_us",
       hist_p50("msg.method_us.StopObject.host."), "us"},
      {"core.wire_roundtrip_ns", Median(t.wire_ns), "ns"},
      {"core.retained_bytes_per_cycle", PerOp(t.heap_growth, t.heap_ops), "B"},
      {"obs.trace_hops_per_op", PerOp(static_cast<double>(t.hops), ops),
       "count"},
      {"trace.layer_closure", Median(t.closure), "ratio"},
      {"trace.overhead_pct", Median(t.overhead_pct), "%"},
  };
}

// The set-up times of one run.
struct SetupTimes {
  std::vector<double> all;
  std::vector<double> quiet;
  double total_s = 0.0;
};

// Builds set-up number `index` of the run into `fx` and times it.
Status TimedBuild(const RunConfig& config, int index, Fixture& fx,
                  SetupTimes& times) {
  std::string sock_dir;
  if (config.workload == Workload::kProcessInvoke) {
    sock_dir = config.socket_dir + "/t" + std::to_string(index);
    std::error_code ec;
    std::filesystem::create_directories(sock_dir, ec);
  }
  const CpuJiffies j0 = ReadCpuJiffies();
  const std::uint64_t t0 = NowNs();
  Status st = fx.Build(config.workload, config.seed + index, sock_dir);
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  const CpuJiffies j1 = ReadCpuJiffies();
  times.all.push_back(seconds);
  times.total_s += seconds;
  if ((j1.steal - j0.steal) * kQuietSetupShare <= j1.total - j0.total) {
    times.quiet.push_back(seconds);
  }
  return st;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult out;
  RunTotals totals;
  const int measured = MeasuredTrials(config.workload);
  const double trial_s = config.seconds / measured;
  SetupTimes setups;
  for (int trial = 0; trial < kSetups; ++trial) {
    Fixture fx;
    const Status st = TimedBuild(config, trial, fx, setups);
    if (!st.ok()) {
      Fail(out, "set-up " + std::to_string(trial) + ": " + st.to_string());
      ++out.attempted;
      break;
    }
    // The measured trials are the last set-ups of the run.
    if (trial < kSetups - measured) continue;

    Bench b;
    b.workload = config.workload;
    b.fx = &fx;
    b.cold_counts = std::vector<std::atomic<std::int64_t>>(fx.targets().size());
    b.loops.resize(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      b.loops[c].client = &fx.client(c);
      b.loops[c].rng = Rng((config.seed * kSetups + trial) * 0x9E3779B97F4A7C15ULL +
                           c + 1);
    }
    const RegistrySnapshot at_setup =
        RegistrySnapshot::Take(fx.runtime().metrics());
    if (config.workload == Workload::kColdResolve) PrimeBindingAgent(b);
    (void)RunPhase(b, std::clamp(trial_s * 0.15, 0.1, 0.5), false);

    if (config.trace) {
      TracedTrial(b, trial_s, at_setup, totals);
      if (trial + 1 == kSetups && !config.trace_out.empty()) {
        ExportWaterfall(b, config.trace_out, out);
      }
    } else {
      if (config.workload == Workload::kLifecycleChurn) b.rss_at_ops = kRssCycles;
      AddUntraced(RunPhase(b, trial_s, false), totals);
      if (b.rss_at_ops != 0 && b.rss_bytes == 0) {
        RunUntil(b, b.rss_at_ops);
        b.rss_bytes = ProcStatusBytes("VmHWM");
      }
      totals.rss_bytes = b.rss_bytes;
    }
    CheckResults(b, at_setup, out);
    ++totals.trials_done;
    for (const ClientLoop& loop : b.loops) {
      out.attempted += loop.attempted;
      out.failed += loop.failed;
    }
  }
  while (!config.trace && totals.trials_done == measured &&
         (setups.quiet.size() < kSetups || setups.total_s < kSetupBudgetS) &&
         setups.all.size() < kMaxSetups) {
    Fixture fx;
    const int index = static_cast<int>(setups.all.size());
    const Status st = TimedBuild(config, index, fx, setups);
    if (!st.ok()) {
      Fail(out, "set-up " + std::to_string(index) + ": " + st.to_string());
      ++out.attempted;
      break;
    }
  }
  totals.setup_s =
      setups.quiet.size() * 2 >= kSetups ? setups.quiet : setups.all;
  totals.setups = static_cast<int>(setups.all.size());
  if (!config.socket_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(config.socket_dir, ec);
  }
  if (out.failed != 0) out.correct = false;
  if (totals.trials_done == measured) {
    out.metrics = config.trace ? PerLayerMetrics(totals, out)
                               : EndToEndMetrics(totals, out);
  }
  return out;
}

}  // namespace legion::bench
