// M:N in-process runtime: a fixed work-stealing worker pool and
// per-endpoint actor mailboxes, with delivery straight into memory.
//
// ThreadRuntime spends one OS thread per serviced endpoint and
// ProcessRuntime adds one acceptor plus one reader thread per accepted
// connection — both hit the kernel's thread ceiling orders of magnitude
// before the paper's "millions of objects" target. Here threads are
// decoupled from objects:
//
//   * post() hands the envelope to the destination's mailbox on the
//     posting thread. Under the mailbox lock it fails with kStaleBinding if
//     the destination is closing (the verdict is synchronous, so nothing is
//     ever bounced), otherwise stamps queued_at, counts, appends and, if the
//     mailbox was idle, schedules it. Objects stay address-space-disjoint
//     because the Messenger marshals every payload into a Buffer; no socket
//     is needed for that. A sender's posts reach a destination in post order.
//   * A fixed pool of *workers* (default: hardware_concurrency) drains
//     mailboxes. Each endpoint is a tiny actor: kIdle until a message
//     arrives, then kScheduled on a run queue, then kRunning on exactly one
//     worker at a time — the same no-concurrent-handler guarantee the
//     thread-per-object runtimes give, without the threads. Workers pop
//     their own deque LIFO, then the shared injector, then steal from
//     victims FIFO.
//   * A worker whose handler blocks in wait() (nested call chains:
//     object -> class -> magistrate -> host) announces itself blocked and
//     the pool spawns a bounded spare so mailbox draining never deadlocks
//     behind awaiting handlers — essential on small machines where the pool
//     may be a single worker.
//
// The runtime opens no file descriptor and owns no thread but its workers.
// The fault plan is consulted on post like ThreadRuntime's, so recovery
// experiments (host down, partitions, lossy classes) run unchanged.
//
// The name is historical: this runtime used to move every message through
// an epoll reactor and a socket back into its own process. It keeps the name
// and this header because legion-bench constructs rt::EpollRuntime.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/mutex.hpp"
#include "base/rng.hpp"
#include "base/thread_annotations.hpp"
#include "rt/runtime.hpp"

namespace legion::rt {

struct EpollOptions {
  // Fixed worker-pool size; 0 = std::thread::hardware_concurrency(). The
  // pool may temporarily exceed this with spares spawned while workers
  // block in wait() (bounded at 16x).
  std::size_t workers = 0;
  // Seed for the fault-plan RNG (drop-probability draws).
  std::uint64_t seed = Rng::kDefaultSeed;
};

class EpollRuntime final : public Runtime {
 public:
  EpollRuntime();
  explicit EpollRuntime(EpollOptions options);
  ~EpollRuntime() override;

  EndpointId create_endpoint(HostId host, std::string label,
                             MessageHandler handler,
                             ExecutionMode mode) override;
  void close_endpoint(EndpointId id) override;
  [[nodiscard]] bool endpoint_alive(EndpointId id) const override;
  [[nodiscard]] HostId host_of(EndpointId id) const override;

  Status post(Envelope env) override;
  [[nodiscard]] SimTime now() const override;
  bool wait(EndpointId self, const std::function<bool()>& ready,
            SimTime timeout_us) override;
  void notify(EndpointId id) override;
  void run_until_idle() override;

  [[nodiscard]] RuntimeStats stats() const override;
  [[nodiscard]] EndpointStats endpoint_stats(EndpointId id) const override;
  [[nodiscard]] std::map<std::string, std::uint64_t> received_by_label()
      const override;
  [[nodiscard]] std::uint64_t max_received_with_label(
      const std::string& label) const override;
  void reset_stats() override;

  // Threads the runtime currently owns: its workers (spares included).
  // bench_epoll_scaling reports this against the endpoint count; it is the
  // whole point of the M:N design that it does not scale with endpoints.
  [[nodiscard]] std::size_t runtime_threads() const;

 private:
  // Actor mailbox lifecycle. Exactly one worker runs an endpoint at a time:
  //   kIdle --(first message)--> kScheduled --(worker pops)--> kRunning
  //   kRunning --(drained)--> kIdle, or --(budget left work)--> kScheduled.
  // Driver-mode endpoints stay kIdle forever; their owner drains them
  // inline from wait().
  enum class MailboxState : std::uint8_t { kIdle, kScheduled, kRunning };

  struct Endpoint {
    // Immutable after create_endpoint publishes the endpoint.
    HostId host;
    std::string label;
    MessageHandler handler;
    ExecutionMode mode = ExecutionMode::kServiced;
    EndpointId id;

    base::Mutex mutex{base::lock_rank::kEndpoint};
    base::CondVar cv;
    // FIFO as vector + head index: an idle endpoint holds no heap block
    // (libstdc++ deque allocates ~512B even when empty — real money at the
    // 1M-endpoint scale this runtime exists for).
    std::vector<Envelope> inbox GUARDED_BY(mutex);
    std::size_t inbox_head GUARDED_BY(mutex) = 0;
    bool stopping GUARDED_BY(mutex) = false;
    // See ThreadRuntime::Endpoint::wakeups.
    std::uint64_t wakeups GUARDED_BY(mutex) = 0;
    EndpointStats stats GUARDED_BY(mutex);
    MailboxState mstate GUARDED_BY(mutex) = MailboxState::kIdle;
    // Valid while mstate == kRunning: lets a nested wait() recognize "I am
    // the thread servicing this endpoint" and keep draining inline.
    std::thread::id running_thread GUARDED_BY(mutex);

    std::atomic<bool> alive{true};
  };
  using EndpointPtr = std::shared_ptr<Endpoint>;

  struct Worker {
    // Run queue: owner pops the back (LIFO, cache-warm), thieves and the
    // owner-after-own-work take the front (FIFO, oldest first).
    base::Mutex mutex{base::lock_rank::kScheduler};
    std::deque<EndpointPtr> queue GUARDED_BY(mutex);
    std::thread thread;
  };

  EndpointPtr find(EndpointId id) const;
  static bool pop_one(const EndpointPtr& ep, Envelope& out);

  // --- scheduler ---
  void schedule(const EndpointPtr& ep);  // endpoint must be kScheduled
  void worker_loop(Worker* self);
  EndpointPtr next_endpoint(Worker* self);
  void run_endpoint(const EndpointPtr& ep);
  void spawn_worker() REQUIRES(pool_mutex_);
  // RAII around a potentially-blocking region on a worker thread: tells the
  // pool so it can compensate with a spare and the system keeps draining.
  class BlockedScope;

  mutable base::SharedMutex map_mutex_{base::lock_rank::kEndpointMap};
  std::unordered_map<std::uint64_t, EndpointPtr> endpoints_
      GUARDED_BY(map_mutex_);
  std::uint64_t next_endpoint_ GUARDED_BY(map_mutex_) = 1;

  // Worker pool. `workers_` only grows (spares are kept until teardown);
  // elements are stable unique_ptrs so lock-free readers of a Worker* are
  // fine once they hold a pointer.
  mutable base::Mutex pool_mutex_{base::lock_rank::kWorkerPool};
  std::vector<std::unique_ptr<Worker>> workers_ GUARDED_BY(pool_mutex_);
  std::size_t blocked_workers_ GUARDED_BY(pool_mutex_) = 0;
  std::size_t target_workers_ = 0;  // immutable after construction

  // Injector queue for submissions from non-worker threads (external
  // posters) plus the sleep/wake epoch for idle workers.
  base::Mutex sched_mutex_{base::lock_rank::kScheduler};
  base::CondVar sched_cv_;
  std::deque<EndpointPtr> injector_ GUARDED_BY(sched_mutex_);
  std::uint64_t sched_epoch_ GUARDED_BY(sched_mutex_) = 0;
  bool sched_stopping_ GUARDED_BY(sched_mutex_) = false;

  base::Mutex rng_mutex_{base::lock_rank::kRng};
  Rng rng_ GUARDED_BY(rng_mutex_);

  // Spare workers spawned to cover blocked ones (wakeups visible in tests
  // exercising deep nested call chains).
  obs::Counter& spares_spawned_{metrics_.counter("rt.epoll.spare_workers")};

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace legion::rt
