#include "rt/epoll_runtime.hpp"

#include <algorithm>
#include <cassert>

namespace legion::rt {

namespace {

// See ThreadRuntime's kForeignPredicateSlice.
constexpr auto kForeignPredicateSlice = std::chrono::milliseconds(50);

// Messages one scheduled mailbox may drain before yielding the worker —
// bounds per-endpoint monopolization without giving up batching.
constexpr int kRunBudget = 32;

// Identifies worker threads (for work-stealing push targets and blocked
// compensation) and the endpoint a thread is currently servicing (so a
// nested wait() may keep draining that endpoint inline). Keyed by runtime
// pointer: multiple EpollRuntimes in one process must not cross wires.
struct WorkerTls {
  const void* runtime = nullptr;
  void* worker = nullptr;
  std::uint64_t current_endpoint = 0;
};
thread_local WorkerTls tl_worker;

}  // namespace

// Announces "this worker is about to block" to the pool, which spawns a
// bounded spare if the unblocked complement dropped below target. Spares
// are ordinary workers and persist until teardown — churn-free, and the
// steady-state thread count stays a small constant.
class EpollRuntime::BlockedScope {
 public:
  explicit BlockedScope(EpollRuntime* rt) {
    if (tl_worker.runtime != rt) return;  // external thread: nothing to cover
    rt_ = rt;
    base::MutexLock lock(rt->pool_mutex_);
    ++rt->blocked_workers_;
    const std::size_t cap = rt->target_workers_ * 16 + 8;
    if (rt->workers_.size() - rt->blocked_workers_ < rt->target_workers_ &&
        rt->workers_.size() < cap) {
      rt->spawn_worker();
      rt->spares_spawned_.inc();
    }
  }
  ~BlockedScope() {
    if (!rt_) return;
    base::MutexLock lock(rt_->pool_mutex_);
    --rt_->blocked_workers_;
  }

  BlockedScope(const BlockedScope&) = delete;
  BlockedScope& operator=(const BlockedScope&) = delete;

 private:
  EpollRuntime* rt_ = nullptr;
};

EpollRuntime::EpollRuntime() : EpollRuntime(EpollOptions{}) {}

EpollRuntime::EpollRuntime(EpollOptions options)
    : rng_(options.seed), epoch_(std::chrono::steady_clock::now()) {
  target_workers_ =
      options.workers != 0
          ? options.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  base::MutexLock lock(pool_mutex_);
  for (std::size_t i = 0; i < target_workers_; ++i) spawn_worker();
}

EpollRuntime::~EpollRuntime() {
  // 1. Mark every endpoint stopping: blocked waiters wake promptly, and
  //    post() refuses them from here on, so no mailbox grows and the drains
  //    below terminate.
  std::vector<EndpointPtr> eps;
  {
    base::WriterMutexLock lock(map_mutex_);
    for (auto& [_, ep] : endpoints_) eps.push_back(ep);
    endpoints_.clear();
  }
  for (auto& ep : eps) {
    ep->alive.store(false);
    {
      base::MutexLock lock(ep->mutex);
      ep->stopping = true;
      ++ep->wakeups;
    }
    ep->cv.notify_all();
  }

  // 2. Stop the scheduler; workers drain whatever is still queued, then
  //    exit. Join outside pool_mutex_ (workers take it in BlockedScope).
  {
    base::MutexLock lock(sched_mutex_);
    sched_stopping_ = true;
    ++sched_epoch_;
  }
  sched_cv_.notify_all();
  std::vector<std::thread> threads;
  {
    base::MutexLock lock(pool_mutex_);
    for (auto& w : workers_) threads.push_back(std::move(w->thread));
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

void EpollRuntime::spawn_worker() {
  auto w = std::make_unique<Worker>();
  Worker* wp = w.get();
  workers_.push_back(std::move(w));
  wp->thread = std::thread([this, wp] { worker_loop(wp); });
}

std::size_t EpollRuntime::runtime_threads() const {
  base::MutexLock lock(pool_mutex_);
  return workers_.size();
}

EndpointId EpollRuntime::create_endpoint(HostId host, std::string label,
                                         MessageHandler handler,
                                         ExecutionMode mode) {
  assert(topology_.host(host) != nullptr && "endpoint on unknown host");
  auto ep = std::make_shared<Endpoint>();
  ep->host = host;
  ep->label = std::move(label);
  ep->handler = std::move(handler);
  ep->mode = mode;

  // Creating an endpoint costs no thread and no fd — that is the whole
  // 1M-objects-per-box argument.
  EndpointId id;
  {
    base::WriterMutexLock lock(map_mutex_);
    id = EndpointId{next_endpoint_++};
    ep->id = id;
    endpoints_.emplace(id.value, ep);
  }
  return id;
}

void EpollRuntime::close_endpoint(EndpointId id) {
  EndpointPtr ep = find(id);
  if (!ep) return;
  ep->alive.store(false);
  bool self_running = false;
  {
    base::MutexLock lock(ep->mutex);
    ep->stopping = true;  // post() refuses it from here on
    ++ep->wakeups;
    self_running = ep->mstate == MailboxState::kRunning &&
                   ep->running_thread == std::this_thread::get_id();
  }
  ep->cv.notify_all();
  if (!self_running) {  // self-close from its own handler: no wait
    // Mirror the thread runtimes' join-on-close: when close_endpoint
    // returns, no handler for this endpoint is running and none will start.
    // A worker drains any queued messages first (same drain-then-exit
    // semantics as ThreadRuntime::service_loop).
    BlockedScope blocked(this);
    base::MutexLock lock(ep->mutex);
    while (ep->mstate != MailboxState::kIdle) ep->cv.wait(ep->mutex);
  }
  // Unpublish only after the drain: the handlers answering the requests
  // post() accepted before the close still post their replies from here.
  base::WriterMutexLock lock(map_mutex_);
  endpoints_.erase(id.value);
}

bool EpollRuntime::endpoint_alive(EndpointId id) const {
  EndpointPtr ep = find(id);
  return ep && ep->alive.load();
}

HostId EpollRuntime::host_of(EndpointId id) const {
  EndpointPtr ep = find(id);
  return ep ? ep->host : HostId{};
}

EpollRuntime::EndpointPtr EpollRuntime::find(EndpointId id) const {
  base::ReaderMutexLock lock(map_mutex_);
  auto it = endpoints_.find(id.value);
  return it == endpoints_.end() ? nullptr : it->second;
}

Status EpollRuntime::post(Envelope env) {
  EndpointPtr src = find(env.src);
  if (!src) return InternalError("post from unknown endpoint");
  EndpointPtr dst = find(env.dst);
  if (!dst || !dst->alive.load()) {
    return StaleBindingError("destination endpoint closed");
  }

  const net::LatencyClass cls = topology_.classify(src->host, dst->host);
  if (faults_.any_faults()) {
    // Fault checks need the shared RNG; skip the lock entirely on the
    // (common) fault-free configuration.
    base::MutexLock lock(rng_mutex_);
    if (faults_.should_drop(src->host, dst->host, cls, rng_)) {
      transport_.dropped.inc();
      return OkStatus();
    }
  }

  const std::size_t bytes = env.payload.size();
  bool sched = false;
  {
    base::MutexLock lock(dst->mutex);
    if (dst->stopping) {
      // Lost the race with close_endpoint: the caller learns it now.
      return StaleBindingError("destination endpoint closing");
    }
    dst->stats.received += 1;
    dst->stats.bytes_received += bytes;
    env.queued_at = now();  // enqueue stamp: queue time = dequeue - this
    dst->inbox.push_back(std::move(env));
    ++dst->wakeups;
    if (dst->mode == ExecutionMode::kServiced &&
        dst->mstate == MailboxState::kIdle) {
      dst->mstate = MailboxState::kScheduled;
      sched = true;
    }
  }
  {
    base::MutexLock lock(src->mutex);
    src->stats.sent += 1;
    src->stats.bytes_sent += bytes;
  }
  transport_.delivered.inc();
  transport_.by_class[static_cast<std::size_t>(cls)]->inc();
  dst->cv.notify_all();
  if (sched) schedule(dst);
  return OkStatus();
}

void EpollRuntime::schedule(const EndpointPtr& ep) {
  Worker* self = tl_worker.runtime == this
                     ? static_cast<Worker*>(tl_worker.worker)
                     : nullptr;
  if (self != nullptr) {
    base::MutexLock lock(self->mutex);
    self->queue.push_back(ep);
  } else {
    base::MutexLock lock(sched_mutex_);
    injector_.push_back(ep);
  }
  // Wake a sleeper either way: a busy worker's own pushes are stealable.
  {
    base::MutexLock lock(sched_mutex_);
    ++sched_epoch_;
  }
  sched_cv_.notify_one();
}

EpollRuntime::EndpointPtr EpollRuntime::next_endpoint(Worker* self) {
  {
    base::MutexLock lock(self->mutex);
    if (!self->queue.empty()) {
      EndpointPtr ep = std::move(self->queue.back());  // LIFO: cache-warm
      self->queue.pop_back();
      return ep;
    }
  }
  {
    base::MutexLock lock(sched_mutex_);
    if (!injector_.empty()) {
      EndpointPtr ep = std::move(injector_.front());
      injector_.pop_front();
      return ep;
    }
  }
  // Steal oldest-first from victims. Worker objects are stable (the vector
  // only grows and elements are unique_ptrs), so the snapshot stays valid
  // after pool_mutex_ is dropped.
  std::vector<Worker*> victims;
  {
    base::MutexLock lock(pool_mutex_);
    victims.reserve(workers_.size());
    for (auto& w : workers_) {
      if (w.get() != self) victims.push_back(w.get());
    }
  }
  for (Worker* v : victims) {
    base::MutexLock lock(v->mutex);
    if (!v->queue.empty()) {
      EndpointPtr ep = std::move(v->queue.front());
      v->queue.pop_front();
      return ep;
    }
  }
  return nullptr;
}

void EpollRuntime::worker_loop(Worker* self) {
  tl_worker = WorkerTls{this, self, 0};
  for (;;) {
    // Epoch before scan: any push completed after this read bumps the epoch
    // and aborts the sleep below, so no wakeup can be lost between "found
    // nothing" and "went to sleep".
    std::uint64_t seen;
    bool stopping;
    {
      base::MutexLock lock(sched_mutex_);
      seen = sched_epoch_;
      stopping = sched_stopping_;
    }
    EndpointPtr ep = next_endpoint(self);
    if (ep) {
      run_endpoint(ep);
      continue;
    }
    if (stopping) return;  // scanned everything empty after the stop signal
    base::MutexLock lock(sched_mutex_);
    while (sched_epoch_ == seen && !sched_stopping_) {
      sched_cv_.wait(sched_mutex_);
    }
  }
}

void EpollRuntime::run_endpoint(const EndpointPtr& ep) {
  {
    base::MutexLock lock(ep->mutex);
    ep->mstate = MailboxState::kRunning;
    ep->running_thread = std::this_thread::get_id();
  }
  int used = 0;
  for (;;) {
    Envelope env;
    if (!pop_one(ep, env)) break;
    if (ep->handler) {
      const std::uint64_t prev = tl_worker.current_endpoint;
      tl_worker.current_endpoint = ep->id.value;
      ep->handler(std::move(env));
      tl_worker.current_endpoint = prev;
    }
    if (++used >= kRunBudget) break;
  }
  bool resched = false;
  {
    base::MutexLock lock(ep->mutex);
    ep->running_thread = std::thread::id{};
    if (ep->inbox_head < ep->inbox.size()) {
      // Budget exhausted with work left: back of the queue, not kIdle —
      // other mailboxes get their turn (and close_endpoint's drain-then-
      // close contract still holds because stopping blocks new arrivals).
      ep->mstate = MailboxState::kScheduled;
      resched = true;
    } else {
      ep->mstate = MailboxState::kIdle;
      ++ep->wakeups;  // close_endpoint may be waiting for exactly this
    }
  }
  ep->cv.notify_all();
  if (resched) schedule(ep);
}

bool EpollRuntime::pop_one(const EndpointPtr& ep, Envelope& out) {
  base::MutexLock lock(ep->mutex);
  if (ep->inbox_head >= ep->inbox.size()) return false;
  out = std::move(ep->inbox[ep->inbox_head++]);
  if (ep->inbox_head == ep->inbox.size()) {
    ep->inbox.clear();
    ep->inbox_head = 0;
  }
  return true;
}

void EpollRuntime::notify(EndpointId id) {
  EndpointPtr ep = find(id);
  if (!ep) return;
  {
    base::MutexLock lock(ep->mutex);
    ++ep->wakeups;
  }
  ep->cv.notify_all();
}

SimTime EpollRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool EpollRuntime::wait(EndpointId self, const std::function<bool()>& ready,
                        SimTime timeout_us) {
  EndpointPtr ep = find(self);
  if (!ep) return ready();
  // Inline servicing is only safe on the thread that owns this endpoint's
  // execution right now: the driver thread for kDriver endpoints, or the
  // worker whose handler is nested beneath this wait. Any other thread
  // draining the mailbox would break the one-runner-at-a-time guarantee.
  const bool may_service =
      ep->mode == ExecutionMode::kDriver ||
      (tl_worker.runtime == this && tl_worker.current_endpoint == self.value);
  const auto deadline =
      timeout_us == kSimTimeNever
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::microseconds(timeout_us);
  for (;;) {
    if (ready()) return true;
    if (may_service) {
      Envelope env;
      if (pop_one(ep, env)) {
        if (ep->handler) ep->handler(std::move(env));
        continue;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return ready();
    // About to block: if this thread is a worker, the pool compensates so
    // the mailboxes this waiter depends on keep draining.
    BlockedScope blocked(this);
    base::MutexLock lock(ep->mutex);
    if (may_service && ep->inbox_head < ep->inbox.size()) continue;
    const std::uint64_t seen = ep->wakeups;
    const auto cap = ep->stopping ? now + std::chrono::milliseconds(1)
                                  : now + kForeignPredicateSlice;
    const auto until = std::min(deadline, cap);
    while (ep->wakeups == seen) {
      if (ep->cv.wait_until(ep->mutex, until)) break;  // timed out
    }
  }
}

void EpollRuntime::run_until_idle() {
  // Best-effort settle: inboxes empty and every mailbox back to kIdle twice
  // in a row (a handler finishing mid-sweep may have posted to a mailbox the
  // sweep already passed).
  for (int calm = 0; calm < 2;) {
    bool busy = false;
    {
      base::ReaderMutexLock lock(map_mutex_);
      for (const auto& [_, ep] : endpoints_) {
        base::MutexLock elock(ep->mutex);
        if (ep->inbox_head < ep->inbox.size() ||
            (ep->mode == ExecutionMode::kServiced &&
             ep->mstate != MailboxState::kIdle)) {
          busy = true;
          break;
        }
      }
    }
    calm = busy ? 0 : calm + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Introspection (same shape as the other real-clock runtimes).

RuntimeStats EpollRuntime::stats() const { return transport_.view(); }

EndpointStats EpollRuntime::endpoint_stats(EndpointId id) const {
  EndpointPtr ep = find(id);
  if (!ep) return EndpointStats{};
  base::MutexLock lock(ep->mutex);
  return ep->stats;
}

std::map<std::string, std::uint64_t> EpollRuntime::received_by_label() const {
  std::map<std::string, std::uint64_t> out;
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    out[ep->label] += ep->stats.received;
  }
  return out;
}

std::uint64_t EpollRuntime::max_received_with_label(
    const std::string& label) const {
  std::uint64_t best = 0;
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    if (ep->label != label) continue;
    base::MutexLock elock(ep->mutex);
    best = std::max(best, ep->stats.received);
  }
  return best;
}

void EpollRuntime::reset_stats() {
  transport_.reset();
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    ep->stats = EndpointStats{};
  }
}

}  // namespace legion::rt
