// Process runtime: one OS process per Legion object, envelopes over
// Unix-domain sockets.
//
// The paper's model made literal a second time over: where EpollRuntime
// proves the M:N scheduling story, this runtime proves the address-space
// story. A parent ("host") process runs the system objects; every object
// whose OPR names an executable is fork/exec'ed as its own worker process
// (rt/spawn_child.hpp) and serves its endpoint from there. A kill -9 on a
// worker destroys exactly one object — the host and every sibling keep
// running, which no in-process runtime can promise.
//
// Transport: each endpoint — in whichever process — listens on a Unix-domain
// socket whose path is a pure function of the endpoint id
// (ConnPool::UnixSocketPath: `<dir>/ep-<id>.sock`), so parent and children
// route to each other with zero coordination: posting to endpoint N means
// dialing ep-N.sock, whoever owns it. Each message is one frame with a
// 49-byte header (rt/frame.hpp), written through a ConnPool of persistent
// client sockets (reuse / reconnect-once / stale-vs-unavailable
// classification). The receiving endpoint accepts on its socket and reads
// frames with one reader thread per connection until EOF.
//
// Failure surface: a dead worker's socket gives ECONNREFUSED/ENOENT =
// kStaleBinding on new sends, while requests already in flight to it are
// bounced kBounceUnavailable by the reaper thread the moment waitpid
// reports the death — callers get kUnavailable immediately instead of
// waiting out their deadline (see DeliveryKind::kBounceUnavailable).
//
// One class, two modes:
//   * parent (worker_endpoint_id == 0): full runtime + ProcessControl
//     (spawn/stop/kill/pause), SIGCHLD-free per-pid reaping, fault-plan
//     child injector, rt.proc.* metrics.
//   * worker (worker_endpoint_id != 0): the same transport inside a child;
//     the first created endpoint takes the id the parent assigned (so the
//     binding the parent published routes here), and process_control() is
//     null — workers do not spawn grandchildren.
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
#include "base/thread_annotations.hpp"
#include "rt/conn_pool.hpp"
#include "rt/runtime.hpp"
#include "rt/socket_util.hpp"

namespace legion::rt {

struct ProcessOptions {
  // Pool and listen-backlog knobs of the socket transport.
  SocketOptions sockets;
  // Directory holding every endpoint's socket plus the per-child OPR/handles
  // files. "" in parent mode = create (and own) a private SocketDir
  // (rt/socket_util.hpp); workers are always told the parent's directory.
  std::string socket_dir;
  // != 0 switches to worker mode: serve this parent-assigned endpoint id.
  std::uint64_t worker_endpoint_id = 0;
  // Ready-handshake deadline: how long spawn_object waits for the worker's
  // 'R' byte before declaring the spawn failed.
  SimTime spawn_timeout_us = 10'000'000;
  // stop_child grace: SIGTERM, this long to exit, then SIGKILL.
  SimTime stop_grace_us = 2'000'000;
  // Redirect each child's stderr to <dir>/child-<id>.stderr.log. "" = check
  // the LEGION_CHILD_LOG_DIR environment variable; unset = inherit stderr.
  std::string child_log_dir;
};

class ProcessRuntime final : public Runtime, public ProcessControl {
 public:
  ProcessRuntime();
  explicit ProcessRuntime(ProcessOptions options);
  ~ProcessRuntime() override;

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

  [[nodiscard]] ProcessControl* process_control() override {
    return worker_mode() ? nullptr : this;
  }

  // --- ProcessControl -------------------------------------------------
  Result<SpawnInfo> spawn_object(const SpawnSpec& spec) override;
  Status stop_child(EndpointId endpoint) override;
  Status kill_child(EndpointId endpoint) override;
  Status pause_child(EndpointId endpoint) override;
  Status resume_child(EndpointId endpoint) override;
  [[nodiscard]] bool child_alive(EndpointId endpoint) const override;
  [[nodiscard]] std::vector<ChildInfo> children() const override;

  [[nodiscard]] const ProcessOptions& options() const { return options_; }
  [[nodiscard]] const std::string& socket_dir() const {
    return socket_dir_.path();
  }
  [[nodiscard]] bool worker_mode() const {
    return options_.worker_endpoint_id != 0;
  }

 private:
  struct Endpoint {
    // host/label/handler/mode/listen_fd/socket_path are set before the
    // endpoint is published (and before its acceptor/service threads
    // start), then never written: immutable-after-init, no guard needed.
    HostId host;
    std::string label;
    MessageHandler handler;
    ExecutionMode mode = ExecutionMode::kServiced;
    int listen_fd = -1;
    std::string socket_path;

    base::Mutex mutex{base::lock_rank::kEndpoint};
    base::CondVar cv;
    std::deque<Envelope> inbox GUARDED_BY(mutex);
    bool stopping GUARDED_BY(mutex) = false;
    // See ThreadRuntime::Endpoint::wakeups.
    std::uint64_t wakeups GUARDED_BY(mutex) = 0;
    EndpointStats stats GUARDED_BY(mutex);

    std::atomic<bool> alive{true};
    std::thread acceptor;
    std::thread service;  // kServiced only

    // Accepted persistent connections: one reader thread per stream. A
    // reader closes its own fd on exit, marks the slot -1, and lists it in
    // free_slots; the acceptor reuses freed slots before growing the
    // vectors, so connection churn cannot grow them without bound.
    // Teardown shuts down every live fd, joins the readers, then closes
    // stragglers.
    base::Mutex conns_mutex{base::lock_rank::kEndpointConns};
    std::vector<int> conn_fds GUARDED_BY(conns_mutex);  // -1 = closed
    std::vector<std::thread> readers GUARDED_BY(conns_mutex);
    std::vector<std::size_t> free_slots GUARDED_BY(conns_mutex);
  };
  using EndpointPtr = std::shared_ptr<Endpoint>;

  // One spawned worker. `outstanding` maps the call_id of every Messenger
  // request posted to the child (and not yet answered) to the local caller
  // endpoint, so the reaper can bounce exactly those calls when the worker
  // dies. Bounded: a child with kMaxOutstanding in-flight calls refuses
  // further posts with kUnavailable rather than growing without limit.
  struct Child {
    EndpointId endpoint;
    std::int64_t pid = -1;
    std::string label;
    HostId host;
    bool alive = true;
    bool paused = false;
    std::unordered_map<std::uint64_t, EndpointId> outstanding;
  };
  static constexpr std::size_t kMaxOutstanding = 4096;

  EndpointPtr find(EndpointId id) const;
  void acceptor_loop(const EndpointPtr& ep);
  void reader_loop(const EndpointPtr& ep, std::size_t slot, int fd);
  void service_loop(const EndpointPtr& ep);
  static bool pop_one(const EndpointPtr& ep, Envelope& out);
  // Teardown, in two halves so the destructor can stop every endpoint
  // before it joins any: stop_endpoint closes the listener, unlinks the
  // socket file, shuts down the accepted connections and wakes the service
  // thread; join_endpoint waits for the acceptor, the service thread's
  // drain and the readers, then closes what is left. A thread joining
  // itself (a handler closing its own endpoint) is parked in the graveyard.
  void stop_endpoint(const EndpointPtr& ep);
  void join_endpoint(Endpoint& ep);

  // Parent bookkeeping around a request/reply crossing a process boundary.
  // Peeks the Messenger payload kind byte; non-Messenger payloads pass
  // through untouched.
  Status note_outgoing_request(EndpointId src, EndpointId dst,
                               const Envelope& env);
  void forget_outgoing_request(EndpointId dst, const Envelope& env);
  void note_incoming_reply(const Envelope& env);

  // Reaper thread (parent mode): per-pid waitpid(WNOHANG) — never wait(-1),
  // which would steal the exit status of a spawn_object racing us — then
  // bounce the dead child's outstanding calls as kBounceUnavailable.
  void reaper_loop();
  // Collects a dead child's outstanding calls in one phase (children lock,
  // rank 18) and delivers the bounces in a second (endpoint map lock, rank
  // 16, plus per-endpoint locks). The children lock is fully released
  // between phases because the map lock ranks BELOW it — holding both would
  // invert the order against spawn_object, which allocates an endpoint id
  // (map lock) before registering the child (children lock).
  void mark_child_dead(std::uint64_t endpoint_value);
  void deliver_local(Envelope env);

  const ProcessOptions options_;
  // options.socket_dir, or ("" in parent mode) a private directory this
  // runtime creates and removes. Declared before pool_, which dials into it.
  const SocketDir socket_dir_;
  std::string child_log_dir_;  // resolved from options/env

  mutable base::SharedMutex map_mutex_{base::lock_rank::kEndpointMap};
  std::unordered_map<std::uint64_t, EndpointPtr> endpoints_
      GUARDED_BY(map_mutex_);
  std::uint64_t next_endpoint_ GUARDED_BY(map_mutex_) = 1;
  // Worker mode: ids for endpoints beyond the first (parent-assigned) one
  // live in a namespace no parent allocation can collide with.
  std::uint64_t next_local_endpoint_ GUARDED_BY(map_mutex_) = 0;

  mutable base::Mutex children_mutex_{base::lock_rank::kProcChildren};
  std::unordered_map<std::uint64_t, Child> children_
      GUARDED_BY(children_mutex_);
  // Labels ever spawned, to count respawns of the same logical object.
  std::unordered_map<std::string, std::uint64_t> spawn_counts_
      GUARDED_BY(children_mutex_);

  ConnPool pool_;

  mutable base::Mutex rng_mutex_{base::lock_rank::kRng};
  Rng rng_ GUARDED_BY(rng_mutex_);

  obs::Counter& io_retries_{metrics_.counter("rt.eintr_retries")};
  obs::Counter& accept_retries_{metrics_.counter("rt.proc.accept_retries")};
  obs::Counter& reader_slots_{metrics_.counter("rt.proc.reader_slots")};
  // Per-child process metrics (the rt.proc.* plane the CI lane asserts on):
  // live worker processes right now, spawns total, respawns of a label seen
  // before (reactivation landing on this parent again), zombies reaped, and
  // in-flight calls bounced kUnavailable by the reaper.
  obs::Gauge& live_children_{metrics_.gauge("rt.proc.live_children")};
  obs::Counter& spawns_{metrics_.counter("rt.proc.spawns")};
  obs::Counter& respawns_{metrics_.counter("rt.proc.respawns")};
  obs::Counter& zombie_reaps_{metrics_.counter("rt.proc.zombie_reaps")};
  obs::Counter& bounced_unavailable_{
      metrics_.counter("rt.proc.bounced_unavailable")};

  base::Mutex graveyard_mutex_{base::lock_rank::kGraveyard};
  std::vector<std::thread> graveyard_ GUARDED_BY(graveyard_mutex_);

  std::thread reaper_;
  std::atomic<bool> stopping_{false};

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace legion::rt
