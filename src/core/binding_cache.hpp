// The binding cache used at every layer of the Section 4.1 binding path.
//
// Objects cache bindings locally; Binding Agents cache on behalf of their
// clients; classes cache in their logical tables. The same LRU structure
// with TTL awareness backs the first two. Hit/miss/eviction counters feed
// the Section 5.2.1 experiments directly.
//
// Storage layout: every LOID the cache has ever seen is interned once into
// a dense uint32_t id; all per-entry state (binding, negative-entry expiry,
// LRU links) lives in one segmented slot array indexed by id. The LRU order
// is an intrusive doubly-linked list of ids — two uint32_t per entry instead
// of a std::list<Loid> node — and negative entries form a second intrusive
// list in insertion order. Steady-state put/get perform no heap allocation.
//
// Thread-safe: every operation takes the internal mutex (including the
// capacity probe — reset_capacity() may rewrite capacity_ concurrently), so
// one cache may be shared by concurrent call() paths (the threaded
// runtimes).
#pragma once

#include <cstdint>
#include <optional>

#include "base/mutex.hpp"
#include "base/segmented_vector.hpp"
#include "base/thread_annotations.hpp"
#include "core/binding.hpp"
#include "obs/metrics.hpp"

namespace legion::core {

struct BindingCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class BindingCache {
 public:
  // capacity == 0 disables caching entirely (every lookup misses).
  explicit BindingCache(std::size_t capacity) : capacity_(capacity) {}

  // Reconfigures capacity and drops all contents (the restore path). The
  // cache owns a mutex, so it is rebuilt in place rather than reassigned.
  void reset_capacity(std::size_t capacity) {
    base::MutexLock lock(mutex_);
    capacity_ = capacity;
    drop_contents();
  }

  // Optionally mirrors this cache's counters into runtime-wide aggregates
  // (binding_cache.hits / .misses / .evictions / .invalidations). The
  // registry must outlive the cache.
  void bind_metrics(obs::Registry& registry);

  // Returns a fresh (unexpired) cached binding, updating LRU order.
  std::optional<Binding> get(const Loid& loid, SimTime now);

  // Inserts or refreshes; evicts the least recently used entry when full.
  void put(Binding binding);

  // Short-TTL negative entries: a LOID the Binding Agent just answered
  // NotFound for is remembered until `expires_at`, so a storm of lookups
  // for a dead LOID re-consults once per TTL, not once per caller. A put()
  // of a real binding supersedes the negative entry immediately.
  void put_negative(const Loid& loid, SimTime expires_at);
  // True while an unexpired negative entry covers the LOID (expired entries
  // are dropped on probe).
  bool negative(const Loid& loid, SimTime now);
  [[nodiscard]] std::size_t negative_size() const {
    base::MutexLock lock(mutex_);
    return negative_size_;
  }

  // Section 3.6 InvalidateBinding(LOID): drop whatever is cached.
  bool invalidate(const Loid& loid);
  // Section 3.6 InvalidateBinding(binding): drop only on exact match, so a
  // newer binding that already replaced the stale one survives.
  bool invalidate_exact(const Binding& binding);

  void clear();
  [[nodiscard]] std::size_t size() const {
    base::MutexLock lock(mutex_);
    return size_;
  }
  [[nodiscard]] std::size_t capacity() const {
    base::MutexLock lock(mutex_);
    return capacity_;
  }
  [[nodiscard]] BindingCacheStats stats() const {
    base::MutexLock lock(mutex_);
    return stats_;
  }
  // Structure residency (interner + slot segments), excluding payload heap
  // owned by the cached Bindings themselves; bench_memory_per_object.
  [[nodiscard]] std::size_t allocated_bytes() const {
    base::MutexLock lock(mutex_);
    return ids_.allocated_bytes() + slots_.allocated_bytes();
  }
  void reset_stats() {
    base::MutexLock lock(mutex_);
    stats_ = BindingCacheStats{};
  }

  // True iff the intrusive lists and the slot flags agree exactly: the LRU
  // list links size_ positive slots with intact back-pointers, the negative
  // list links negative_size_ negative slots likewise, no flagged slot is
  // missing from its list, and both populations respect capacity_. The
  // eviction/expiry tests assert this after every step.
  [[nodiscard]] bool consistent() const;

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint8_t kPositive = 1;  // binding + LRU links live
  static constexpr std::uint8_t kNegative = 2;  // neg_expires + neg links live

  // One slot per interned LOID; ids index slots_ directly. Evicted entries
  // keep their slot (flags cleared) and reuse it on re-insertion.
  struct Slot {
    Binding binding;
    SimTime neg_expires = 0;
    std::uint32_t lru_prev = kNil, lru_next = kNil;
    std::uint32_t neg_prev = kNil, neg_next = kNil;
    std::uint8_t flags = 0;
  };

  // All of these require mutex_ held (compiler-enforced).
  std::uint32_t intern_slot(const Loid& loid) REQUIRES(mutex_);
  void lru_link_front(std::uint32_t id) REQUIRES(mutex_);
  void lru_unlink(std::uint32_t id) REQUIRES(mutex_);
  void neg_link_back(std::uint32_t id) REQUIRES(mutex_);
  void neg_unlink(std::uint32_t id) REQUIRES(mutex_);
  void drop_positive(std::uint32_t id) REQUIRES(mutex_);
  void drop_negative(std::uint32_t id) REQUIRES(mutex_);
  void drop_contents() REQUIRES(mutex_);

  // Ranked below the metrics registry: counter mirrors are flushed while
  // mutex_ is held (see the .cpp).
  mutable base::Mutex mutex_{base::lock_rank::kBindingCache};
  std::size_t capacity_ GUARDED_BY(mutex_);
  LoidInterner ids_ GUARDED_BY(mutex_);
  SegmentedVector<Slot> slots_ GUARDED_BY(mutex_);  // one per id
  // Most/least recently used positive entry.
  std::uint32_t lru_head_ GUARDED_BY(mutex_) = kNil;
  std::uint32_t lru_tail_ GUARDED_BY(mutex_) = kNil;
  // Oldest/newest negative entry.
  std::uint32_t neg_head_ GUARDED_BY(mutex_) = kNil;
  std::uint32_t neg_tail_ GUARDED_BY(mutex_) = kNil;
  std::size_t size_ GUARDED_BY(mutex_) = 0;           // positive entries
  std::size_t negative_size_ GUARDED_BY(mutex_) = 0;  // <= capacity_
  BindingCacheStats stats_ GUARDED_BY(mutex_);
  // Runtime-wide aggregate mirrors; null until bind_metrics().
  obs::Counter* agg_hits_ = nullptr;
  obs::Counter* agg_misses_ = nullptr;
  obs::Counter* agg_evictions_ = nullptr;
  obs::Counter* agg_invalidations_ = nullptr;
};

}  // namespace legion::core
