// Real-sockets runtime: envelopes over TCP loopback.
//
// Paper Section 3.3: "Legion uses standard protocols and the communication
// facilities of host operating systems to support communication between
// Legion objects." This runtime is that claim made literal: every endpoint
// listens on a real 127.0.0.1 TCP port and delivery failure manifests as
// ECONNREFUSED — the physical form of a stale binding.
//
// The hot path runs over *persistent* connections. A post borrows a
// keep-alive socket to the destination port from the shared ConnPool (see
// rt/conn_pool.hpp for the reuse / reconnect-once / failure-classification
// contract), writes one length-prefixed frame (rt/frame.hpp), and the
// receiving endpoint reads frames off each accepted stream until EOF with
// one reader thread per connection. The historical one-connection-per-message
// path survives behind TcpOptions::pooled = false as the measured ablation
// baseline (bench_tcp_throughput, EXPERIMENTS E11). EpollRuntime
// (rt/epoll_runtime.hpp) is the M:N in-memory answer to this design's
// thread-per-connection and thread-per-endpoint scaling walls.
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

namespace legion::rt {

class TcpRuntime final : public Runtime {
 public:
  TcpRuntime();
  explicit TcpRuntime(TcpOptions options);
  ~TcpRuntime() override;

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

  // The real TCP port an endpoint listens on (tests, curiosity).
  [[nodiscard]] std::uint16_t port_of(EndpointId id) const;

  [[nodiscard]] const TcpOptions& options() const { return options_; }

 private:
  struct Endpoint {
    // host/label/handler/mode/listen_fd/port are set before the endpoint is
    // published (and before its acceptor/service threads start), then never
    // written: immutable-after-init, no guard needed.
    HostId host;
    std::string label;
    MessageHandler handler;
    ExecutionMode mode = ExecutionMode::kServiced;
    int listen_fd = -1;
    std::uint16_t port = 0;

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
    // vectors, so connection churn cannot grow them without bound (the
    // PR 9 slot-leak fix). Teardown shutdowns every live fd, joins the
    // readers, then closes stragglers.
    base::Mutex conns_mutex{base::lock_rank::kEndpointConns};
    std::vector<int> conn_fds GUARDED_BY(conns_mutex);  // -1 = closed
    std::vector<std::thread> readers GUARDED_BY(conns_mutex);
    std::vector<std::size_t> free_slots GUARDED_BY(conns_mutex);
  };
  using EndpointPtr = std::shared_ptr<Endpoint>;

  EndpointPtr find(EndpointId id) const;
  void acceptor_loop(const EndpointPtr& ep);
  void reader_loop(const EndpointPtr& ep, std::size_t slot, int fd);
  void service_loop(const EndpointPtr& ep);
  static bool pop_one(const EndpointPtr& ep, Envelope& out);
  void stop_endpoint(const EndpointPtr& ep);

  // Immutable after construction (copied in the constructor, only read
  // thereafter) — the audited answer to the PR 6 pre-lock-config question.
  const TcpOptions options_;

  mutable base::SharedMutex map_mutex_{base::lock_rank::kEndpointMap};
  std::unordered_map<std::uint64_t, EndpointPtr> endpoints_
      GUARDED_BY(map_mutex_);
  std::uint64_t next_endpoint_ GUARDED_BY(map_mutex_) = 1;

  // Client-side connection pool, shared implementation with ProcessRuntime.
  ConnPool pool_{options_, metrics_, ConnPool::LoopbackDialer()};

  // Syscalls retried after an EINTR interruption (regression visibility for
  // the signal-mid-transfer case).
  obs::Counter& io_retries_{metrics_.counter("rt.eintr_retries")};
  // accept() failures survived without killing the acceptor (ECONNABORTED
  // retries and fd-exhaustion backoffs) — the accept-robustness regression
  // tests assert this moves while delivery continues.
  obs::Counter& accept_retries_{metrics_.counter("rt.tcp.accept_retries")};
  // Reader slots ever created (NOT currently occupied): stays flat while
  // connections churn through freed slots, so the soak test can pin the
  // slot-reuse behavior directly.
  obs::Counter& reader_slots_{metrics_.counter("rt.tcp.reader_slots")};

  base::Mutex graveyard_mutex_{base::lock_rank::kGraveyard};
  std::vector<std::thread> graveyard_ GUARDED_BY(graveyard_mutex_);

  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace legion::rt
