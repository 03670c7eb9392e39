// Fault injection for the simulated network.
//
// Supports per-latency-class message drop probabilities, pairwise host
// partitions, and whole-host outages. The runtime consults the plan at
// delivery time, so faults interact naturally with in-flight messages —
// which is how stale bindings (paper Section 4.1.4) arise in practice.
//
// Thread-safe: under the concurrent runtimes the plan is read from every
// posting thread while a driver thread injects and heals faults mid-run.
// The sets are guarded by an internal shared mutex; drop probabilities are
// atomics; any_faults() — the per-message fast path — is a single relaxed
// load of a maintained count, so the fault-free configuration pays no lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>

#include "base/mutex.hpp"
#include "base/rng.hpp"
#include "base/status.hpp"
#include "base/thread_annotations.hpp"
#include "base/types.hpp"
#include "net/topology.hpp"

namespace legion::net {

// Process-level faults a runtime with real child processes can inject.
// kKill is `kill -9` (the child vanishes mid-request; in-flight calls must
// fail kUnavailable); kStop/kResume are SIGSTOP/SIGCONT (the child exists
// but makes no progress, so calls time out — the wedged-host scenario).
enum class ChildFault : std::uint8_t { kKill = 0, kStop = 1, kResume = 2 };

class FaultPlan {
 public:
  void set_drop_probability(LatencyClass c, double p) {
    base::WriterMutexLock lock(mutex_);
    auto& slot = drop_p_[static_cast<std::size_t>(c)];
    const double old = slot.load(std::memory_order_relaxed);
    slot.store(p, std::memory_order_relaxed);
    active_.fetch_add((p > 0.0 ? 1 : 0) - (old > 0.0 ? 1 : 0),
                      std::memory_order_relaxed);
  }
  [[nodiscard]] double drop_probability(LatencyClass c) const {
    return drop_p_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }

  void partition(HostId a, HostId b) {
    base::WriterMutexLock lock(mutex_);
    if (partitions_.insert(key(a, b)).second) {
      active_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void heal(HostId a, HostId b) {
    base::WriterMutexLock lock(mutex_);
    if (partitions_.erase(key(a, b)) != 0) {
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] bool partitioned(HostId a, HostId b) const {
    base::ReaderMutexLock lock(mutex_);
    return partitions_.contains(key(a, b));
  }

  void take_host_down(HostId h) {
    base::WriterMutexLock lock(mutex_);
    if (down_.insert(h.value).second) {
      active_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void bring_host_up(HostId h) {
    base::WriterMutexLock lock(mutex_);
    if (down_.erase(h.value) != 0) {
      active_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  [[nodiscard]] bool host_down(HostId h) const {
    base::ReaderMutexLock lock(mutex_);
    return down_.contains(h.value);
  }

  // True if a message from a to b (class c) should be silently dropped.
  [[nodiscard]] bool should_drop(HostId a, HostId b, LatencyClass c,
                                 Rng& rng) const {
    {
      base::ReaderMutexLock lock(mutex_);
      if (down_.contains(a.value) || down_.contains(b.value) ||
          partitions_.contains(key(a, b))) {
        return true;
      }
    }
    const double p = drop_probability(c);
    return p > 0.0 && rng.chance(p);
  }

  // Lock-free probe: the count of active fault sources (partitions, downed
  // hosts, nonzero drop classes) is maintained under mutex_ but read
  // relaxed. The delivery path gates all fault work on this.
  [[nodiscard]] bool any_faults() const {
    return active_.load(std::memory_order_relaxed) != 0;
  }

  // --- Child-process faults -------------------------------------------
  //
  // Unlike drops/partitions (consulted passively at delivery time), child
  // faults act on real OS processes, so the plan dispatches to an injector
  // the owning runtime registers (ProcessRuntime: signal the child's pid).
  // Runtimes without child processes leave the injector unset and these
  // calls fail kUnimplemented — a test asking an in-process runtime to
  // kill -9 an object is a bug, not a no-op.

  using ChildFaultInjector =
      std::function<Status(std::uint64_t child_endpoint, ChildFault fault)>;

  void set_child_fault_injector(ChildFaultInjector injector) {
    base::WriterMutexLock lock(mutex_);
    child_injector_ = std::move(injector);
  }

  // kill -9 the worker process serving `child_endpoint`.
  Status kill_child(std::uint64_t child_endpoint) {
    return inject_child_fault(child_endpoint, ChildFault::kKill);
  }
  // SIGSTOP / SIGCONT the worker process serving `child_endpoint`.
  Status stop_child(std::uint64_t child_endpoint) {
    return inject_child_fault(child_endpoint, ChildFault::kStop);
  }
  Status resume_child(std::uint64_t child_endpoint) {
    return inject_child_fault(child_endpoint, ChildFault::kResume);
  }

 private:
  Status inject_child_fault(std::uint64_t child_endpoint, ChildFault fault) {
    ChildFaultInjector injector;
    {
      base::ReaderMutexLock lock(mutex_);
      injector = child_injector_;
    }
    // Invoked outside the lock: the injector signals processes and touches
    // the runtime's child table, which must not nest under the fault plan.
    if (!injector) {
      return UnimplementedError(
          "no child-fault injector: runtime has no child processes");
    }
    return injector(child_endpoint, fault);
  }

  static std::uint64_t key(HostId a, HostId b) {
    const std::uint64_t lo = a.value < b.value ? a.value : b.value;
    const std::uint64_t hi = a.value < b.value ? b.value : a.value;
    return (hi << 32) | lo;
  }

  // Ranked above kRng: should_drop() runs beneath the runtime's rng lock.
  mutable base::SharedMutex mutex_{base::lock_rank::kFaultPlan};
  std::array<std::atomic<double>, kNumLatencyClasses> drop_p_{};
  std::unordered_set<std::uint64_t> partitions_ GUARDED_BY(mutex_);
  std::unordered_set<std::uint32_t> down_ GUARDED_BY(mutex_);
  ChildFaultInjector child_injector_ GUARDED_BY(mutex_);
  std::atomic<int> active_{0};
};

}  // namespace legion::net
