// The execution substrate behind the disjoint-address-space object model.
//
// A Runtime owns endpoints (one per active Legion object, plus "driver"
// endpoints for external threads) and moves envelopes between them across a
// simulated topology. Four implementations share this interface:
//
//   * SimRuntime     — sequential, virtual-time, deterministic. Every
//                      message is accounted per endpoint and per latency
//                      class, which is precisely what the paper's Section 5
//                      scalability claims quantify.
//   * ThreadRuntime  — one OS thread per serviced endpoint with real
//                      mailboxes; demonstrates the model under true
//                      concurrency.
//   * EpollRuntime   — M:N: a work-stealing worker pool draining
//                      per-endpoint actor mailboxes that post() fills in
//                      memory; no sockets (rt/epoll_runtime.hpp).
//   * ProcessRuntime — one OS process per object (or, for objects with no
//                      executable, per-endpoint threads in the parent), a
//                      Unix-domain listener per endpoint and a reader thread
//                      per accepted connection (rt/process_runtime.hpp).
//
// Blocking semantics: wait() keeps servicing the waiting endpoint's incoming
// messages (the paper allows methods to be "accepted in any order"), which
// keeps nested call chains — object -> class -> magistrate -> host — free of
// deadlock in every runtime.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/buffer.hpp"
#include "base/status.hpp"
#include "base/types.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rt/envelope.hpp"

namespace legion::rt {

// Handler invoked for each envelope delivered to an endpoint. Runs on the
// endpoint's service context (sim: the pumping stack; thread: the endpoint's
// own thread). Never invoked concurrently for the same endpoint, but may be
// invoked re-entrantly beneath a wait().
using MessageHandler = std::function<void(Envelope&&)>;

enum class ExecutionMode : std::uint8_t {
  // The runtime services the endpoint: SimRuntime dispatches inline during
  // event processing; ThreadRuntime dedicates a mailbox-draining thread.
  kServiced = 0,
  // Only serviced while its owning external thread sits in wait(): the mode
  // for client/driver endpoints living on the caller's own thread.
  kDriver = 1,
};

struct EndpointStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

// Point-in-time view of the transport counters. The authoritative values
// live in the runtime's metrics registry (rt.delivered, rt.bounced,
// rt.dropped, rt.delivered.<latency-class>); this struct is assembled from
// them so existing callers keep one source of truth.
struct RuntimeStats {
  std::uint64_t delivered = 0;
  std::uint64_t bounced = 0;
  std::uint64_t dropped = 0;
  std::uint64_t by_latency_class[net::kNumLatencyClasses] = {0, 0, 0};
};

// Everything a host object needs to run one Legion object as its own OS
// process (the paper's literal model: objects are address-space-disjoint and
// independently schedulable). Exposed by runtimes that can fork/exec real
// workers — Runtime::process_control() returns nullptr everywhere else, so
// core-layer code degrades to in-process activation without a compile-time
// dependency on any concrete runtime.
struct SpawnSpec {
  // Path to the worker binary (from the OPR's executable field): a
  // magistrate can revive an object it has never linked against.
  std::string executable;
  // Host the child is accounted to (fault plan, host_of, metrics).
  HostId host;
  // Stable identity label (the LOID string) — reused labels count as
  // respawns of the same logical object.
  std::string label;
  // Serialized persist::Opr (implementation + state) the worker activates
  // from, and the serialized system handles its shell bootstraps with.
  Buffer opr_bytes;
  Buffer handles_bytes;
};

struct SpawnInfo {
  EndpointId endpoint;  // the worker's serving endpoint, routable via post()
  std::int64_t pid = -1;
};

struct ChildInfo {
  EndpointId endpoint;
  std::int64_t pid = -1;
  std::string label;
  HostId host;
  bool alive = false;
};

class ProcessControl {
 public:
  virtual ~ProcessControl() = default;

  // Fork/execs `spec.executable`, waits for the worker's ready handshake,
  // and returns its endpoint. The endpoint is routable with post() exactly
  // like an in-process endpoint.
  virtual Result<SpawnInfo> spawn_object(const SpawnSpec& spec) = 0;

  // Graceful stop: SIGTERM, bounded wait, SIGKILL fallback; always reaps.
  virtual Status stop_child(EndpointId endpoint) = 0;
  // kill -9, no warning, no reap here — the reaper discovers the death just
  // as it would a real crash (this is the fault-injection path).
  virtual Status kill_child(EndpointId endpoint) = 0;
  // SIGSTOP/SIGCONT: a wedged-but-alive worker (calls time out, process
  // exists) — distinguishable from a dead one.
  virtual Status pause_child(EndpointId endpoint) = 0;
  virtual Status resume_child(EndpointId endpoint) = 0;

  [[nodiscard]] virtual bool child_alive(EndpointId endpoint) const = 0;
  [[nodiscard]] virtual std::vector<ChildInfo> children() const = 0;
};

class Runtime {
 public:
  virtual ~Runtime() = default;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Registers a new endpoint on `host`. `label` groups stats by component
  // kind (e.g. "binding-agent", "class", "magistrate").
  virtual EndpointId create_endpoint(HostId host, std::string label,
                                     MessageHandler handler,
                                     ExecutionMode mode) = 0;

  virtual void close_endpoint(EndpointId id) = 0;
  [[nodiscard]] virtual bool endpoint_alive(EndpointId id) const = 0;
  [[nodiscard]] virtual HostId host_of(EndpointId id) const = 0;

  // Asynchronous send. Fails fast with kStaleBinding when the destination
  // endpoint is already known to be gone; otherwise the envelope is in
  // flight and may still bounce at delivery time.
  virtual Status post(Envelope env) = 0;

  // Virtual (sim) or steady-clock-derived (thread) time in microseconds.
  [[nodiscard]] virtual SimTime now() const = 0;

  // Waits until ready() returns true, servicing `self`'s incoming messages
  // meanwhile. Returns false on timeout (timeout_us relative; kSimTimeNever
  // = no limit) or when no further progress is possible.
  virtual bool wait(EndpointId self, const std::function<bool()>& ready,
                    SimTime timeout_us) = 0;

  // Drains all queued work (sim: run events to quiescence; thread:
  // best-effort settle).
  virtual void run_until_idle() = 0;

  // True when the runtime can *prove* no further progress is possible (sim:
  // event queue empty). A wait() that returned false while quiescent did not
  // time out — the awaited reply can never arrive, which callers may classify
  // as kUnavailable instead of kTimeout. Real-clock runtimes cannot make this
  // promise and always return false.
  [[nodiscard]] virtual bool quiescent() const { return false; }

  // Wakes a wait() blocked on `id`, if any. Called when out-of-band progress
  // — e.g. a pending promise failed locally, with no message delivered —
  // may have satisfied the waiter's predicate. No-op for runtimes whose
  // wait() never blocks the OS thread (sim).
  virtual void notify(EndpointId id) { (void)id; }

  // --- Introspection for tests and the Section-5 experiment harness. ---
  [[nodiscard]] virtual RuntimeStats stats() const = 0;
  [[nodiscard]] virtual EndpointStats endpoint_stats(EndpointId id) const = 0;
  // Aggregated received-message counts keyed by endpoint label.
  [[nodiscard]] virtual std::map<std::string, std::uint64_t>
  received_by_label() const = 0;
  // Maximum messages received by any single endpoint with the given label —
  // the "requests to any particular system component" of Section 5.2.
  [[nodiscard]] virtual std::uint64_t max_received_with_label(
      const std::string& label) const = 0;
  virtual void reset_stats() = 0;

  // Non-null iff this runtime can run objects as separate OS processes
  // (ProcessRuntime in parent mode). Host objects consult this to decide
  // between in-process activation and spawning a worker from the OPR's
  // executable field.
  [[nodiscard]] virtual ProcessControl* process_control() { return nullptr; }

  [[nodiscard]] net::Topology& topology() { return topology_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] net::FaultPlan& faults() { return faults_; }

  // The runtime-scoped observability surfaces: every component reachable
  // from this runtime (messengers, resolvers, caches, host objects) records
  // into the same registry and trace ring.
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }
  [[nodiscard]] obs::TraceRing& traces() { return traces_; }
  [[nodiscard]] const obs::TraceRing& traces() const { return traces_; }
  // Head-based trace sampling, consulted where roots are minted
  // (Messenger::invoke). Default: sample every root.
  [[nodiscard]] obs::TraceSampler& sampler() { return sampler_; }
  [[nodiscard]] const obs::TraceSampler& sampler() const { return sampler_; }

 protected:
  Runtime() = default;

  // Registry-backed transport counters shared by all runtime
  // implementations; stats() is assembled from these.
  struct TransportCounters {
    explicit TransportCounters(obs::Registry& r)
        : delivered(r.counter("rt.delivered")),
          bounced(r.counter("rt.bounced")),
          dropped(r.counter("rt.dropped")) {
      for (std::size_t c = 0; c < net::kNumLatencyClasses; ++c) {
        by_class[c] = &r.counter(
            std::string("rt.delivered.") +
            std::string(net::to_string(static_cast<net::LatencyClass>(c))));
      }
    }

    [[nodiscard]] RuntimeStats view() const {
      RuntimeStats out;
      out.delivered = delivered.value();
      out.bounced = bounced.value();
      out.dropped = dropped.value();
      for (std::size_t c = 0; c < net::kNumLatencyClasses; ++c) {
        out.by_latency_class[c] = by_class[c]->value();
      }
      return out;
    }

    void reset() {
      delivered.reset();
      bounced.reset();
      dropped.reset();
      for (auto* c : by_class) c->reset();
    }

    obs::Counter& delivered;
    obs::Counter& bounced;
    obs::Counter& dropped;
    obs::Counter* by_class[net::kNumLatencyClasses] = {};
  };

  net::Topology topology_;
  net::FaultPlan faults_;
  obs::Registry metrics_;
  obs::TraceRing traces_;
  obs::TraceSampler sampler_;
  TransportCounters transport_{metrics_};
};

}  // namespace legion::rt
