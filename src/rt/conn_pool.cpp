#include "rt/conn_pool.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "rt/frame.hpp"
#include "rt/socket_util.hpp"

namespace legion::rt {

std::string ConnPool::UnixSocketPath(const std::string& socket_dir,
                                     std::uint64_t key) {
  return socket_dir + "/ep-" + std::to_string(key) + ".sock";
}

ConnPool::Dialer ConnPool::UnixDialer(std::string socket_dir) {
  return [dir = std::move(socket_dir)](std::uint64_t key) -> Result<int> {
    const int fd = DialUnix(UnixSocketPath(dir, key));
    if (fd >= 0) return fd;
    const int err = errno;
    if (err == ENOENT || err == ECONNREFUSED) {
      // The socket file was never bound, was unlinked on endpoint close, or
      // belongs to a process that died: nothing serves this endpoint.
      return StaleBindingError("unix socket gone");
    }
    if (err == EMFILE || err == ENFILE) {
      return UnavailableError("connect(): fd exhausted");
    }
    return UnavailableError(std::string("connect(unix): ") +
                            std::strerror(err));
  };
}

ConnPool::ConnPool(const SocketOptions& options, obs::Registry& registry,
                   Dialer dialer, const std::string& metric_prefix)
    : options_(options),
      dialer_(std::move(dialer)),
      io_retries_(registry.counter("rt.eintr_retries")),
      dials_(registry.counter(metric_prefix + ".dials")),
      pool_hits_(registry.counter(metric_prefix + ".pool_hits")),
      reconnects_(registry.counter(metric_prefix + ".reconnects")),
      reaped_(registry.counter(metric_prefix + ".reaped")),
      open_conns_(registry.gauge(metric_prefix + ".open_connections")) {}

ConnPool::~ConnPool() { close_all(); }

void ConnPool::close_all() {
  base::MutexLock lock(mutex_);
  for (auto& [_, idle] : pool_) {
    for (auto& conn : idle) {
      ::close(conn.fd);
      open_conns_.sub(1);
    }
  }
  pool_.clear();
}

Status ConnPool::dial(std::uint64_t key, Connection& out) {
  Result<int> fd = dialer_(key);
  if (!fd.ok()) return fd.status();
  dials_.inc();
  open_conns_.add(1);
  out.fd = *fd;
  out.reused = false;
  out.last_used = std::chrono::steady_clock::now();
  return OkStatus();
}

Status ConnPool::acquire(std::uint64_t key, Connection& out) {
  {
    base::MutexLock lock(mutex_);
    auto it = pool_.find(key);
    if (it != pool_.end()) {
      auto& idle = it->second;
      // Reap idle-timeout expirees, stalest first (release appends, so the
      // vector is ordered by last use).
      const auto cutoff = std::chrono::steady_clock::now() - options_.idle_reap;
      std::size_t dead = 0;
      while (dead < idle.size() && idle[dead].last_used < cutoff) ++dead;
      for (std::size_t i = 0; i < dead; ++i) {
        ::close(idle[i].fd);
        reaped_.inc();
        open_conns_.sub(1);
      }
      idle.erase(idle.begin(),
                 idle.begin() + static_cast<std::ptrdiff_t>(dead));
      if (!idle.empty()) {
        out = idle.back();  // most recently used: warmest socket
        idle.pop_back();
        out.reused = true;
        pool_hits_.inc();
        return OkStatus();
      }
    }
  }
  return dial(key, out);
}

void ConnPool::release(std::uint64_t key, Connection conn) {
  conn.last_used = std::chrono::steady_clock::now();
  {
    base::MutexLock lock(mutex_);
    auto& idle = pool_[key];
    if (idle.size() < options_.max_idle_per_peer) {
      idle.push_back(conn);
      return;
    }
  }
  // Pool full: the bound on cached fds wins over reuse.
  close_conn(conn);
}

void ConnPool::close_conn(Connection& conn) {
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;
  open_conns_.sub(1);
}

bool ConnPool::write_frame(int fd, const Envelope& env) {
  std::uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(env, header);
  iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = kFrameHeaderBytes;
  int iovcnt = 1;
  if (!env.payload.empty()) {
    iov[1].iov_base = const_cast<std::uint8_t*>(env.payload.data());
    iov[1].iov_len = env.payload.size();
    iovcnt = 2;
  }
  return WritevAll(fd, iov, iovcnt, io_retries_);
}

Status ConnPool::send(std::uint64_t key, const Envelope& env) {
  Connection conn;
  Status st = acquire(key, conn);
  if (!st.ok()) return st;
  bool ok = write_frame(conn.fd, env);
  if (!ok && conn.reused) {
    // The cached socket's peer vanished (endpoint closed, listener
    // restarted) — exactly one reconnect. A refusal here is the stale
    // binding the Section 4.1.4 repair loop exists for.
    close_conn(conn);
    reconnects_.inc();
    st = dial(key, conn);
    if (!st.ok()) return st;
    ok = write_frame(conn.fd, env);
  }
  if (!ok) {
    close_conn(conn);
    return UnavailableError("short write on socket send");
  }
  release(key, conn);
  return OkStatus();
}

}  // namespace legion::rt
