#include "rt/thread_runtime.hpp"

#include <algorithm>
#include <cassert>

namespace legion::rt {

namespace {
// Upper bound on one cv sleep when the waiter's predicate might be
// satisfied by another thread *without* any wakeup on this endpoint (a
// foreign counter, say). Message deliveries and notify() wake the cv
// immediately, so this bounds only the exotic case — it is a re-check
// period, not a delivery latency.
constexpr auto kForeignPredicateSlice = std::chrono::milliseconds(50);
}  // namespace

ThreadRuntime::ThreadRuntime(std::uint64_t seed)
    : rng_(seed), epoch_(std::chrono::steady_clock::now()) {}

ThreadRuntime::~ThreadRuntime() {
  // Stop all serviced endpoints, then reap self-closed threads.
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
  for (auto& ep : eps) {
    if (ep->service.joinable()) ep->service.join();
  }
  base::MutexLock lock(graveyard_mutex_);
  for (auto& t : graveyard_) {
    if (t.joinable()) t.join();
  }
}

EndpointId ThreadRuntime::create_endpoint(HostId host, std::string label,
                                          MessageHandler handler,
                                          ExecutionMode mode) {
  assert(topology_.host(host) != nullptr && "endpoint on unknown host");
  auto ep = std::make_shared<Endpoint>();
  ep->host = host;
  ep->label = std::move(label);
  ep->handler = std::move(handler);
  ep->mode = mode;

  EndpointId id;
  {
    base::WriterMutexLock lock(map_mutex_);
    id = EndpointId{next_endpoint_++};
    endpoints_.emplace(id.value, ep);
  }
  if (mode == ExecutionMode::kServiced) {
    ep->service = std::thread([this, ep] { service_loop(ep); });
  }
  return id;
}

void ThreadRuntime::close_endpoint(EndpointId id) {
  EndpointPtr ep = find(id);
  // The first closer owns the teardown; a concurrent second one must not
  // join the service thread again.
  if (!ep || !ep->alive.exchange(false)) return;
  {
    base::MutexLock lock(ep->mutex);
    ep->stopping = true;
    ++ep->wakeups;
  }
  ep->cv.notify_all();
  if (ep->service.joinable()) {
    if (ep->service.get_id() == std::this_thread::get_id()) {
      // An endpoint closing itself from its own handler: defer the join to
      // the runtime destructor so we do not deadlock on self-join.
      base::MutexLock lock(graveyard_mutex_);
      graveyard_.push_back(std::move(ep->service));
    } else {
      ep->service.join();
    }
  }
  // Unpublish only after the drain: the handlers answering the requests
  // post() accepted before the close still post their replies from here.
  base::WriterMutexLock lock(map_mutex_);
  endpoints_.erase(id.value);
}

bool ThreadRuntime::endpoint_alive(EndpointId id) const {
  EndpointPtr ep = find(id);
  return ep && ep->alive.load();
}

HostId ThreadRuntime::host_of(EndpointId id) const {
  EndpointPtr ep = find(id);
  return ep ? ep->host : HostId{};
}

ThreadRuntime::EndpointPtr ThreadRuntime::find(EndpointId id) const {
  base::ReaderMutexLock lock(map_mutex_);
  auto it = endpoints_.find(id.value);
  return it == endpoints_.end() ? nullptr : it->second;
}

Status ThreadRuntime::post(Envelope env) {
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

  {
    base::MutexLock lock(src->mutex);
    src->stats.sent += 1;
    src->stats.bytes_sent += env.payload.size();
  }
  {
    base::MutexLock lock(dst->mutex);
    if (dst->stopping) {
      // Lost the race with close: fail fast like a bounce.
      return StaleBindingError("destination endpoint closing");
    }
    dst->stats.received += 1;
    dst->stats.bytes_received += env.payload.size();
    env.queued_at = now();  // enqueue stamp: queue time = dequeue - this
    dst->inbox.push_back(std::move(env));
    ++dst->wakeups;
  }
  transport_.delivered.inc();
  transport_.by_class[static_cast<std::size_t>(cls)]->inc();
  dst->cv.notify_all();
  return OkStatus();
}

void ThreadRuntime::notify(EndpointId id) {
  EndpointPtr ep = find(id);
  if (!ep) return;
  {
    base::MutexLock lock(ep->mutex);
    ++ep->wakeups;
  }
  ep->cv.notify_all();
}

SimTime ThreadRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool ThreadRuntime::pop_one(const EndpointPtr& ep, Envelope& out) {
  base::MutexLock lock(ep->mutex);
  if (ep->inbox.empty()) return false;
  out = std::move(ep->inbox.front());
  ep->inbox.pop_front();
  return true;
}

void ThreadRuntime::service_loop(const EndpointPtr& ep) {
  for (;;) {
    Envelope env;
    {
      base::MutexLock lock(ep->mutex);
      while (!ep->stopping && ep->inbox.empty()) ep->cv.wait(ep->mutex);
      if (ep->inbox.empty()) return;  // stopping and drained
      env = std::move(ep->inbox.front());
      ep->inbox.pop_front();
    }
    if (ep->handler) ep->handler(std::move(env));
  }
}

bool ThreadRuntime::wait(EndpointId self, const std::function<bool()>& ready,
                         SimTime timeout_us) {
  EndpointPtr ep = find(self);
  if (!ep) return ready();
  const auto deadline =
      timeout_us == kSimTimeNever
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::microseconds(timeout_us);
  for (;;) {
    if (ready()) return true;
    Envelope env;
    if (pop_one(ep, env)) {
      if (ep->handler) ep->handler(std::move(env));
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return ready();
    {
      base::MutexLock lock(ep->mutex);
      if (!ep->inbox.empty()) continue;
      // Block until the next wakeup generation: a delivery, an explicit
      // notify(), close, or the deadline — no fixed-slice polling on the hot
      // path. A closed endpoint gets no further generations, so re-check its
      // predicate at a short period instead of sleeping out the deadline.
      const std::uint64_t seen = ep->wakeups;
      const auto cap = ep->stopping ? now + std::chrono::milliseconds(1)
                                    : now + kForeignPredicateSlice;
      const auto until = std::min(deadline, cap);
      while (ep->wakeups == seen) {
        if (ep->cv.wait_until(ep->mutex, until)) break;  // timed out
      }
    }
  }
}

void ThreadRuntime::run_until_idle() {
  // Best-effort settle: spin until all mailboxes look empty twice in a row.
  for (int calm = 0; calm < 2;) {
    bool busy = false;
    {
      base::ReaderMutexLock lock(map_mutex_);
      for (const auto& [_, ep] : endpoints_) {
        base::MutexLock elock(ep->mutex);
        if (!ep->inbox.empty()) {
          busy = true;
          break;
        }
      }
    }
    if (busy) {
      calm = 0;
    } else {
      ++calm;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

RuntimeStats ThreadRuntime::stats() const { return transport_.view(); }

EndpointStats ThreadRuntime::endpoint_stats(EndpointId id) const {
  EndpointPtr ep = find(id);
  if (!ep) return EndpointStats{};
  base::MutexLock lock(ep->mutex);
  return ep->stats;
}

std::map<std::string, std::uint64_t> ThreadRuntime::received_by_label() const {
  std::map<std::string, std::uint64_t> out;
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    out[ep->label] += ep->stats.received;
  }
  return out;
}

std::uint64_t ThreadRuntime::max_received_with_label(
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

void ThreadRuntime::reset_stats() {
  transport_.reset();
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    ep->stats = EndpointStats{};
  }
}

}  // namespace legion::rt
