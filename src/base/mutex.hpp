// Annotated synchronization primitives.
//
// base::Mutex / base::SharedMutex / base::CondVar wrap the std primitives
// with Clang capability annotations (base/thread_annotations.hpp) so that
// every guarded member and every "caller must hold the lock" helper is
// checked at compile time under -Wthread-safety. All lock-bearing code in
// src/ uses these wrappers; raw std::mutex et al. outside base/ is a lint
// error (scripts/lint_invariants.py rule no-raw-std-sync).
//
// Lock ranks: with -DLEGION_LOCK_RANK_CHECKS=ON every ranked mutex also
// participates in a runtime acquisition-order check — a thread may only
// acquire a ranked mutex whose rank is strictly greater than every ranked
// mutex it already holds. Ranks encode the global order documented in the
// DESIGN.md lock-order table; violations abort with a diagnostic (even in
// NDEBUG builds, so the check works under the RelWithDebInfo presets).
// Unranked mutexes (the default) are leaf-local and skip the check.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

#include "base/thread_annotations.hpp"

namespace legion::base {

// The global acquisition order (see DESIGN.md "Concurrency discipline").
// A thread holding a mutex of rank R may only acquire ranks > R. Gaps are
// deliberate so future locks can slot in without renumbering.
namespace lock_rank {
inline constexpr int kUnranked = -1;
// rt: EpollRuntime worker-pool accounting (blocked counts, spare spawning).
// Always taken with nothing held (wait() marks itself blocked before
// locking its endpoint).
inline constexpr int kWorkerPool = 14;
// rt: the runtime's endpoint map is held (shared) while per-endpoint
// mutexes are taken beneath it (run_until_idle, stats sweeps).
inline constexpr int kEndpointMap = 16;
// rt: ProcessRuntime's child-process table — consulted on post() beneath
// the endpoint map (unknown dst may be a child), and taken by the reaper
// with nothing held (bounce delivery reacquires the map afterwards).
inline constexpr int kProcChildren = 18;
// rt: per-endpoint inbox/cv state, then ProcessRuntime's per-endpoint
// accepted-connection set.
inline constexpr int kEndpoint = 20;
// rt: EpollRuntime scheduler run queues (injector + per-worker deques).
// Below kEndpoint so an endpoint can be scheduled while its mailbox lock
// decides the state transition.
inline constexpr int kScheduler = 22;
inline constexpr int kEndpointConns = 24;
// rt: ConnPool's per-destination socket pool (taken with no endpoint lock).
inline constexpr int kConnPool = 28;
// rt: ThreadRuntime joined-thread graveyard.
inline constexpr int kGraveyard = 32;
// rt/core: fault-injection rng draws (leaf under the runtime's send path).
inline constexpr int kRng = 36;
// net: fault-plan sets, consulted beneath the rng lock on the send path.
inline constexpr int kFaultPlan = 38;
// core: resolver singleflight table, then an individual flight.
inline constexpr int kFlights = 40;
inline constexpr int kFlight = 44;
// core: binding cache (acquires the metrics registry beneath it).
inline constexpr int kBindingCache = 50;
// rt: messenger pending-call table, then a future's state (invoke() fulfils
// promises while holding the pending table).
inline constexpr int kPending = 60;
inline constexpr int kFutureState = 64;
// obs: metrics registry, trace ring (leaf-most shared services).
inline constexpr int kMetricsRegistry = 90;
inline constexpr int kTraceRing = 94;
// base: the log-line serialization mutex. Any thread may log while holding
// anything, so this is the maximum rank; the log sink acquires nothing.
inline constexpr int kLog = 100;
}  // namespace lock_rank

#ifdef LEGION_LOCK_RANK_CHECKS
namespace lock_rank_detail {
// Per-thread stack of held ranked locks. Fixed capacity: a thread holding
// more than 16 ranked mutexes at once is itself an ordering bug.
struct HeldLocks {
  int ranks[16];
  int depth = 0;
};
inline thread_local HeldLocks tl_held;

// Independent of NDEBUG: the rank checker must fire under the
// RelWithDebInfo presets the CI jobs build with.
[[noreturn]] inline void rank_fail(const char* what, int rank, int held) {
  std::fprintf(stderr,
               "lock-rank violation: %s rank %d while holding rank %d "
               "(see DESIGN.md lock-order table)\n",
               what, rank, held);
  std::abort();
}

inline void note_acquire(int rank) {
  if (rank == lock_rank::kUnranked) return;
  HeldLocks& h = tl_held;
  if (h.depth >= 16) rank_fail("stack overflow acquiring", rank, -1);
  for (int i = 0; i < h.depth; ++i) {
    if (h.ranks[i] >= rank) rank_fail("acquiring", rank, h.ranks[i]);
  }
  h.ranks[h.depth++] = rank;
}

inline void note_release(int rank) {
  if (rank == lock_rank::kUnranked) return;
  HeldLocks& h = tl_held;
  for (int i = h.depth - 1; i >= 0; --i) {
    if (h.ranks[i] == rank) {
      for (int j = i; j + 1 < h.depth; ++j) h.ranks[j] = h.ranks[j + 1];
      --h.depth;
      return;
    }
  }
  rank_fail("releasing un-held", rank, -1);
}
}  // namespace lock_rank_detail
#define LEGION_LOCK_RANK_ACQUIRE(rank) ::legion::base::lock_rank_detail::note_acquire(rank)
#define LEGION_LOCK_RANK_RELEASE(rank) ::legion::base::lock_rank_detail::note_release(rank)
#define LEGION_LOCK_RANK_SET(rank) (rank_ = (rank))
#else
#define LEGION_LOCK_RANK_ACQUIRE(rank) ((void)0)
#define LEGION_LOCK_RANK_RELEASE(rank) ((void)0)
#define LEGION_LOCK_RANK_SET(rank) ((void)0)
#endif

class CondVar;

class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(int rank) { (void)rank; LEGION_LOCK_RANK_SET(rank); }

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    m_.lock();
    LEGION_LOCK_RANK_ACQUIRE(rank_value());
  }
  void unlock() RELEASE() {
    LEGION_LOCK_RANK_RELEASE(rank_value());
    m_.unlock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!m_.try_lock()) return false;
    LEGION_LOCK_RANK_ACQUIRE(rank_value());
    return true;
  }

 private:
  friend class CondVar;
  std::mutex m_;
#ifdef LEGION_LOCK_RANK_CHECKS
  int rank_ = lock_rank::kUnranked;
  int rank_value() const { return rank_; }
#else
  static constexpr int rank_value() { return lock_rank::kUnranked; }
#endif
};

class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(int rank) { (void)rank; LEGION_LOCK_RANK_SET(rank); }

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    m_.lock();
    LEGION_LOCK_RANK_ACQUIRE(rank_value());
  }
  void unlock() RELEASE() {
    LEGION_LOCK_RANK_RELEASE(rank_value());
    m_.unlock();
  }
  void lock_shared() ACQUIRE_SHARED() {
    m_.lock_shared();
    LEGION_LOCK_RANK_ACQUIRE(rank_value());
  }
  void unlock_shared() RELEASE_SHARED() {
    LEGION_LOCK_RANK_RELEASE(rank_value());
    m_.unlock_shared();
  }

 private:
  std::shared_mutex m_;
#ifdef LEGION_LOCK_RANK_CHECKS
  int rank_ = lock_rank::kUnranked;
  int rank_value() const { return rank_; }
#else
  static constexpr int rank_value() { return lock_rank::kUnranked; }
#endif
};

// RAII exclusive lock on a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive lock on a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) lock on a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  // Scoped destructors use the generic release form: it matches however the
  // constructor acquired (clang pairs RELEASE() with ACQUIRE_SHARED here).
  ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to base::Mutex. Implemented on
// std::condition_variable (not _any) via adopt/release, so it keeps the
// native futex fast path. No predicate overloads on purpose: callers write
// the wait loop in the function that holds the lock, where the analysis can
// see every guarded read the predicate makes (lambdas passed into a wait()
// would be analyzed as unannotated functions and rejected).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu` and blocks; re-acquires before returning.
  // Spurious wakeups happen: always wait in a predicate loop.
  void wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.m_, std::adopt_lock);
    cv_.wait(lk);
    lk.release();
  }

  // Returns true iff the wait timed out (the deadline passed without a
  // matching notify); the lock is re-acquired either way.
  template <class Clock, class Duration>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.m_, std::adopt_lock);
    const bool timed_out =
        cv_.wait_until(lk, deadline) == std::cv_status::timeout;
    lk.release();
    return timed_out;
  }

  template <class Rep, class Period>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& rel)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lk(mu.m_, std::adopt_lock);
    const bool timed_out = cv_.wait_for(lk, rel) == std::cv_status::timeout;
    lk.release();
    return timed_out;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace legion::base
