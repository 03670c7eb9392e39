#include "rt/process_runtime.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <fstream>

#include "rt/frame.hpp"
#include "rt/socket_util.hpp"
#include "rt/spawn_child.hpp"

namespace legion::rt {
namespace {

// The first byte of a Messenger frame payload (Messenger's private
// FrameKind). The transport peeks it only to distinguish requests (tracked
// while in flight to a child, bounced on its death) from replies.
constexpr std::uint8_t kMessengerRequest = 1;
constexpr std::uint8_t kMessengerReply = 2;

bool WriteFile(const std::string& path, const Buffer& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto span = bytes.span();
  out.write(reinterpret_cast<const char*>(span.data()),
            static_cast<std::streamsize>(span.size()));
  return static_cast<bool>(out);
}

// Blocks until the worker writes its ready byte ('R') to the handshake
// pipe, the pipe closes (exec failed / worker died before binding), or the
// deadline passes. Any outcome but the ready byte is a failed spawn.
bool AwaitReadyByte(int fd, SimTime timeout_us) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    pollfd pfd{fd, POLLIN, 0};
    const int r = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // timed out
    char byte = 0;
    const ssize_t n = ::read(fd, &byte, 1);
    if (n < 0 && errno == EINTR) continue;
    return n == 1 && byte == 'R';
  }
}

}  // namespace

ProcessRuntime::ProcessRuntime() : ProcessRuntime(ProcessOptions{}) {}

ProcessRuntime::ProcessRuntime(ProcessOptions options)
    : options_(std::move(options)),
      socket_dir_(options_.socket_dir),
      pool_(options_.sockets, metrics_,
            ConnPool::UnixDialer(socket_dir_.path()), "rt.proc.pool"),
      epoch_(std::chrono::steady_clock::now()) {
  child_log_dir_ = options_.child_log_dir;
  if (child_log_dir_.empty()) {
    if (const char* env = std::getenv("LEGION_CHILD_LOG_DIR")) {
      child_log_dir_ = env;
    }
  }
  if (!worker_mode()) {
    // The fault plan's child faults act through us: kStop/kResume map to
    // SIGSTOP/SIGCONT (wedged-but-alive), kKill to kill -9 (the crash path:
    // no reap here — the reaper thread discovers the death).
    faults_.set_child_fault_injector(
        [this](std::uint64_t endpoint, net::ChildFault fault) -> Status {
          switch (fault) {
            case net::ChildFault::kKill:
              return kill_child(EndpointId{endpoint});
            case net::ChildFault::kStop:
              return pause_child(EndpointId{endpoint});
            case net::ChildFault::kResume:
              return resume_child(EndpointId{endpoint});
          }
          return InvalidArgumentError("unknown child fault");
        });
    reaper_ = std::thread([this] { reaper_loop(); });
  }
}

ProcessRuntime::~ProcessRuntime() {
  stopping_.store(true);
  if (reaper_.joinable()) reaper_.join();

  // Kill and reap every worker still alive. SIGKILL works on SIGSTOPped
  // children too, and the blocking waitpid tolerates ECHILD when the reaper
  // already collected the status.
  std::vector<std::int64_t> pids;
  {
    base::MutexLock lock(children_mutex_);
    for (auto& [_, child] : children_) {
      if (child.alive && child.pid > 0) {
        pids.push_back(child.pid);
        child.alive = false;
      }
    }
  }
  for (const std::int64_t pid : pids) {
    ::kill(static_cast<pid_t>(pid), SIGKILL);
    int status = 0;
    (void)::waitpid(static_cast<pid_t>(pid), &status, 0);
  }

  std::vector<EndpointPtr> eps;
  {
    base::ReaderMutexLock lock(map_mutex_);
    for (auto& [_, ep] : endpoints_) eps.push_back(ep);
  }
  for (auto& ep : eps) stop_endpoint(ep);
  for (auto& ep : eps) join_endpoint(*ep);
  {
    base::WriterMutexLock lock(map_mutex_);
    endpoints_.clear();
  }
  pool_.close_all();
  {
    base::MutexLock lock(graveyard_mutex_);
    for (auto& t : graveyard_) {
      if (t.joinable()) t.join();
    }
  }
}

void ProcessRuntime::stop_endpoint(const EndpointPtr& ep) {
  ep->alive.store(false);
  if (ep->listen_fd >= 0) {
    ::shutdown(ep->listen_fd, SHUT_RDWR);
    ::close(ep->listen_fd);
  }
  // Unlink the socket file so peers dialing this endpoint get ENOENT — the
  // UDS flavor of kStaleBinding — instead of connecting to a dead inode.
  if (!ep->socket_path.empty()) ::unlink(ep->socket_path.c_str());
  {
    base::MutexLock lock(ep->conns_mutex);
    for (int fd : ep->conn_fds) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  {
    base::MutexLock lock(ep->mutex);
    ep->stopping = true;
    ++ep->wakeups;
  }
  ep->cv.notify_all();
}

EndpointId ProcessRuntime::create_endpoint(HostId host, std::string label,
                                           MessageHandler handler,
                                           ExecutionMode mode) {
  assert(topology_.host(host) != nullptr && "endpoint on unknown host");
  if (socket_dir().empty()) return EndpointId{};  // mkdtemp failed
  auto ep = std::make_shared<Endpoint>();
  ep->host = host;
  ep->label = std::move(label);
  ep->handler = std::move(handler);
  ep->mode = mode;

  std::uint64_t id_value = 0;
  {
    base::WriterMutexLock lock(map_mutex_);
    if (worker_mode()) {
      // The first endpoint takes the id the parent assigned (its published
      // binding routes here); later ones get ids in a shifted namespace no
      // parent-side allocation collides with.
      id_value = next_local_endpoint_ == 0
                     ? options_.worker_endpoint_id
                     : (options_.worker_endpoint_id << 16) +
                           next_local_endpoint_;
      ++next_local_endpoint_;
    } else {
      id_value = next_endpoint_++;
    }
    ep->socket_path = ConnPool::UnixSocketPath(socket_dir(), id_value);
    ep->listen_fd =
        CreateUnixListener(ep->socket_path, options_.sockets.listen_backlog);
    if (ep->listen_fd < 0) return EndpointId{};
    endpoints_.emplace(id_value, ep);
  }
  ep->acceptor = std::thread([this, ep] { acceptor_loop(ep); });
  if (mode == ExecutionMode::kServiced) {
    ep->service = std::thread([this, ep] { service_loop(ep); });
  }
  return EndpointId{id_value};
}

void ProcessRuntime::join_endpoint(Endpoint& ep) {
  auto reap = [this](std::thread& t) {
    if (!t.joinable()) return;
    if (t.get_id() == std::this_thread::get_id()) {
      base::MutexLock lock(graveyard_mutex_);
      graveyard_.push_back(std::move(t));
    } else {
      t.join();
    }
  };
  reap(ep.acceptor);
  reap(ep.service);
  std::vector<std::thread> readers;
  {
    base::MutexLock lock(ep.conns_mutex);
    readers.swap(ep.readers);
  }
  // Readers never run handlers (they only feed the inbox), so the joining
  // thread is never one of them and a plain join is safe.
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  base::MutexLock lock(ep.conns_mutex);
  for (int& fd : ep.conn_fds) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void ProcessRuntime::close_endpoint(EndpointId id) {
  EndpointPtr ep = find(id);
  // The first closer owns the teardown; a concurrent second one must not
  // close the listener or join the threads again.
  if (!ep || !ep->alive.exchange(false)) return;
  stop_endpoint(ep);
  join_endpoint(*ep);
  // Unpublish only after the drain: the handlers answering the requests
  // accepted before the close still post their replies from here.
  base::WriterMutexLock lock(map_mutex_);
  endpoints_.erase(id.value);
}

bool ProcessRuntime::endpoint_alive(EndpointId id) const {
  EndpointPtr ep = find(id);
  if (ep) return ep->alive.load();
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(id.value);
  return it != children_.end() && it->second.alive;
}

HostId ProcessRuntime::host_of(EndpointId id) const {
  EndpointPtr ep = find(id);
  if (ep) return ep->host;
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(id.value);
  return it != children_.end() ? it->second.host : HostId{};
}

ProcessRuntime::EndpointPtr ProcessRuntime::find(EndpointId id) const {
  base::ReaderMutexLock lock(map_mutex_);
  auto it = endpoints_.find(id.value);
  return it == endpoints_.end() ? nullptr : it->second;
}

Status ProcessRuntime::note_outgoing_request(EndpointId src, EndpointId dst,
                                             const Envelope& env) {
  if (env.kind != DeliveryKind::kData) return OkStatus();
  Reader r(env.payload);
  const std::uint8_t kind = r.u8();
  const std::uint64_t call_id = r.u64();
  if (!r.ok() || kind != kMessengerRequest) return OkStatus();
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(dst.value);
  if (it == children_.end()) return OkStatus();
  if (!it->second.alive) {
    return StaleBindingError("worker process exited");
  }
  if (it->second.outstanding.size() >= kMaxOutstanding) {
    return UnavailableError("worker call backlog full");
  }
  it->second.outstanding.emplace(call_id, src);
  return OkStatus();
}

void ProcessRuntime::note_incoming_reply(const Envelope& env) {
  if (env.kind != DeliveryKind::kData) return;
  Reader r(env.payload);
  const std::uint8_t kind = r.u8();
  const std::uint64_t call_id = r.u64();
  if (!r.ok() || kind != kMessengerReply) return;
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(env.src.value);
  if (it != children_.end()) it->second.outstanding.erase(call_id);
}

Status ProcessRuntime::post(Envelope env) {
  EndpointPtr src = find(env.src);
  if (!src) return InternalError("post from unknown endpoint");
  EndpointPtr dst = find(env.dst);

  HostId dst_host{};
  bool dst_is_child = false;
  if (dst) {
    if (!dst->alive.load()) {
      return StaleBindingError("destination endpoint closed");
    }
    dst_host = dst->host;
  } else if (!worker_mode()) {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(env.dst.value);
    if (it != children_.end()) {
      if (!it->second.alive) {
        return StaleBindingError("worker process exited");
      }
      dst_host = it->second.host;
      dst_is_child = true;
    }
  }
  // An unknown destination is a peer process's endpoint (a worker replying
  // to its parent, or vice versa): attempt the dial, and let ENOENT at the
  // socket file classify as the stale binding it is.

  if (faults_.any_faults() && dst_host.valid()) {
    const net::LatencyClass cls = topology_.classify(src->host, dst_host);
    base::MutexLock lock(rng_mutex_);
    if (faults_.should_drop(src->host, dst_host, cls, rng_)) {
      transport_.dropped.inc();
      return OkStatus();
    }
  }

  bool tracked = false;
  if (dst_is_child) {
    Status st = note_outgoing_request(env.src, env.dst, env);
    if (!st.ok()) return st;
    tracked = true;
  }

  Status st = pool_.send(env.dst.value, env);
  if (!st.ok()) {
    if (tracked) forget_outgoing_request(env.dst, env);
    return st;
  }

  {
    base::MutexLock lock(src->mutex);
    src->stats.sent += 1;
    src->stats.bytes_sent += env.payload.size();
  }
  transport_.delivered.inc();
  return OkStatus();
}

void ProcessRuntime::forget_outgoing_request(EndpointId dst,
                                             const Envelope& env) {
  Reader r(env.payload);
  const std::uint8_t kind = r.u8();
  const std::uint64_t call_id = r.u64();
  if (!r.ok() || kind != kMessengerRequest) return;
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(dst.value);
  if (it != children_.end()) it->second.outstanding.erase(call_id);
}

void ProcessRuntime::notify(EndpointId id) {
  EndpointPtr ep = find(id);
  if (!ep) return;
  {
    base::MutexLock lock(ep->mutex);
    ++ep->wakeups;
  }
  ep->cv.notify_all();
}

void ProcessRuntime::acceptor_loop(const EndpointPtr& ep) {
  for (;;) {
    const int conn = AcceptConn(ep->listen_fd);
    if (conn < 0) {
      // Only a closed listener may end this loop, or the endpoint is
      // deafened while its socket file stays routable. Aborted handshakes
      // retry at once; descriptor or memory pressure backs off and retries.
      if (!ep->alive.load()) return;
      switch (errno) {
        case EINTR:
          io_retries_.inc();
          continue;
        case ECONNABORTED:
          accept_retries_.inc();
          continue;
        case EMFILE:
        case ENFILE:
        case ENOBUFS:
        case ENOMEM:
          accept_retries_.inc();
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        default:
          return;
      }
    }
    std::thread vacated;
    {
      base::MutexLock lock(ep->conns_mutex);
      if (!ep->alive.load()) {
        ::close(conn);
        return;
      }
      if (!ep->free_slots.empty()) {
        const std::size_t slot = ep->free_slots.back();
        ep->free_slots.pop_back();
        vacated = std::move(ep->readers[slot]);
        ep->conn_fds[slot] = conn;
        ep->readers[slot] = std::thread(
            [this, ep, slot, conn] { reader_loop(ep, slot, conn); });
      } else {
        const std::size_t slot = ep->conn_fds.size();
        ep->conn_fds.push_back(conn);
        ep->readers.emplace_back(
            [this, ep, slot, conn] { reader_loop(ep, slot, conn); });
        reader_slots_.inc();
      }
    }
    if (vacated.joinable()) vacated.join();
  }
}

void ProcessRuntime::reader_loop(const EndpointPtr& ep, std::size_t slot,
                                 int fd) {
  std::vector<std::uint8_t> header(kFrameHeaderBytes);
  for (;;) {
    if (!ReadAll(fd, header.data(), header.size(), io_retries_)) break;
    Envelope env;
    const std::uint32_t payload_len = DecodeFrameHeader(header.data(), env);
    if (payload_len > kMaxFrameBytes) break;
    if (payload_len > 0) {
      std::vector<std::uint8_t> payload(payload_len);
      if (!ReadAll(fd, payload.data(), payload.size(), io_retries_)) break;
      env.payload = Buffer{std::move(payload)};
    }

    // Replies crossing back from a worker settle its in-flight entry, so a
    // later crash only bounces calls that are genuinely unanswered.
    if (!worker_mode()) note_incoming_reply(env);

    bool deliver = true;
    {
      base::MutexLock lock(ep->mutex);
      if (ep->stopping) {
        deliver = false;
      } else {
        ep->stats.received += 1;
        ep->stats.bytes_received += env.payload.size();
        env.queued_at = now();
        ep->inbox.push_back(std::move(env));
        ++ep->wakeups;
      }
    }
    if (!deliver) break;
    ep->cv.notify_all();
  }
  base::MutexLock lock(ep->conns_mutex);
  ::close(fd);
  ep->conn_fds[slot] = -1;
  ep->free_slots.push_back(slot);
}

bool ProcessRuntime::pop_one(const EndpointPtr& ep, Envelope& out) {
  base::MutexLock lock(ep->mutex);
  if (ep->inbox.empty()) return false;
  out = std::move(ep->inbox.front());
  ep->inbox.pop_front();
  return true;
}

void ProcessRuntime::service_loop(const EndpointPtr& ep) {
  for (;;) {
    Envelope env;
    {
      base::MutexLock lock(ep->mutex);
      while (!ep->stopping && ep->inbox.empty()) ep->cv.wait(ep->mutex);
      if (ep->inbox.empty()) return;
      env = std::move(ep->inbox.front());
      ep->inbox.pop_front();
    }
    if (ep->handler) ep->handler(std::move(env));
  }
}

SimTime ProcessRuntime::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool ProcessRuntime::wait(EndpointId self, const std::function<bool()>& ready,
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
      const std::uint64_t seen = ep->wakeups;
      const auto cap = ep->stopping ? now + std::chrono::milliseconds(1)
                                    : now + std::chrono::milliseconds(50);
      const auto until = std::min(deadline, cap);
      while (ep->wakeups == seen) {
        if (ep->cv.wait_until(ep->mutex, until)) break;  // timed out
      }
    }
  }
}

void ProcessRuntime::run_until_idle() {
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
    calm = busy ? 0 : calm + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// --- ProcessControl ---------------------------------------------------

Result<SpawnInfo> ProcessRuntime::spawn_object(const SpawnSpec& spec) {
  if (worker_mode()) {
    return UnimplementedError("workers do not spawn grandchildren");
  }
  if (spec.executable.empty()) {
    return InvalidArgumentError("spawn spec names no executable");
  }
  if (::access(spec.executable.c_str(), X_OK) != 0) {
    return NotFoundError("worker executable not runnable: " + spec.executable);
  }
  if (socket_dir().empty()) {
    return UnavailableError("no socket directory (mkdtemp failed)");
  }

  // The child's endpoint id comes from the same allocator as local
  // endpoints, so ids never collide across the spawn/create interleaving.
  std::uint64_t id = 0;
  {
    base::WriterMutexLock lock(map_mutex_);
    id = next_endpoint_++;
  }

  // Stage the OPR and handles as files: the worker's whole activation input
  // is on disk, which is exactly the paper's claim — an executable plus a
  // persistent representation suffice to revive the object anywhere.
  const std::string stem = socket_dir() + "/child-" + std::to_string(id);
  const std::string opr_path = stem + ".opr";
  const std::string handles_path = stem + ".handles";
  if (!WriteFile(opr_path, spec.opr_bytes) ||
      !WriteFile(handles_path, spec.handles_bytes)) {
    return UnavailableError("cannot stage worker inputs in " + socket_dir());
  }

  int ready[2] = {-1, -1};
  if (::pipe2(ready, O_CLOEXEC) != 0) {
    return UnavailableError("pipe2 failed: errno " + std::to_string(errno));
  }

  SpawnChildArgs args;
  args.executable = spec.executable;
  args.argv = {spec.executable,
               "--socket-dir", socket_dir(),
               "--endpoint-id", std::to_string(id),
               "--opr", opr_path,
               "--handles", handles_path,
               "--ready-fd", "3"};
  args.ready_fd = ready[1];
  if (!child_log_dir_.empty()) {
    args.stderr_path =
        child_log_dir_ + "/child-" + std::to_string(id) + ".stderr.log";
  }

  Result<std::int64_t> spawned = SpawnChild(args);
  ::close(ready[1]);
  if (!spawned.ok()) {
    ::close(ready[0]);
    return spawned.status();
  }
  const std::int64_t pid = *spawned;

  // The worker writes 'R' to fd 3 only after its listener is bound, so a
  // successful handshake means the returned endpoint is immediately
  // dialable. EOF without the byte is how exec failure (_exit(127)) and
  // early crashes surface.
  const bool became_ready = AwaitReadyByte(ready[0], options_.spawn_timeout_us);
  ::close(ready[0]);
  if (!became_ready) {
    ::kill(static_cast<pid_t>(pid), SIGKILL);
    int status = 0;
    (void)::waitpid(static_cast<pid_t>(pid), &status, 0);
    return UnavailableError("worker failed ready handshake: " +
                            spec.executable);
  }

  bool respawn = false;
  {
    base::MutexLock lock(children_mutex_);
    Child child;
    child.endpoint = EndpointId{id};
    child.pid = pid;
    child.label = spec.label;
    child.host = spec.host;
    children_.insert_or_assign(id, std::move(child));
    respawn = ++spawn_counts_[spec.label] > 1;
  }
  live_children_.add(1);
  spawns_.inc();
  if (respawn) respawns_.inc();
  return SpawnInfo{EndpointId{id}, pid};
}

Status ProcessRuntime::stop_child(EndpointId endpoint) {
  std::int64_t pid = -1;
  bool paused = false;
  {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(endpoint.value);
    if (it == children_.end()) {
      return NotFoundError("no child serves endpoint " +
                           std::to_string(endpoint.value));
    }
    if (!it->second.alive) return OkStatus();  // already down and bounced
    pid = it->second.pid;
    paused = it->second.paused;
  }
  // A SIGSTOPped child cannot act on SIGTERM; continue it first so the
  // graceful phase is real rather than a guaranteed SIGKILL.
  if (paused) ::kill(static_cast<pid_t>(pid), SIGCONT);
  ::kill(static_cast<pid_t>(pid), SIGTERM);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(options_.stop_grace_us);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
    if (r == static_cast<pid_t>(pid) || (r < 0 && errno == ECHILD)) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(static_cast<pid_t>(pid), SIGKILL);
      (void)::waitpid(static_cast<pid_t>(pid), &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  mark_child_dead(endpoint.value);
  return OkStatus();
}

Status ProcessRuntime::kill_child(EndpointId endpoint) {
  std::int64_t pid = -1;
  {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(endpoint.value);
    if (it == children_.end()) {
      return NotFoundError("no child serves endpoint " +
                           std::to_string(endpoint.value));
    }
    if (!it->second.alive) return OkStatus();
    pid = it->second.pid;
  }
  // Deliberately no reap and no bookkeeping here: the process dies exactly
  // as a real crash would, and the reaper thread discovers it — the test
  // surface and the production surface are the same code path.
  ::kill(static_cast<pid_t>(pid), SIGKILL);
  return OkStatus();
}

Status ProcessRuntime::pause_child(EndpointId endpoint) {
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(endpoint.value);
  if (it == children_.end() || !it->second.alive) {
    return NotFoundError("no live child serves endpoint " +
                         std::to_string(endpoint.value));
  }
  if (::kill(static_cast<pid_t>(it->second.pid), SIGSTOP) != 0) {
    return UnavailableError("SIGSTOP failed: errno " + std::to_string(errno));
  }
  it->second.paused = true;
  return OkStatus();
}

Status ProcessRuntime::resume_child(EndpointId endpoint) {
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(endpoint.value);
  if (it == children_.end() || !it->second.alive) {
    return NotFoundError("no live child serves endpoint " +
                         std::to_string(endpoint.value));
  }
  if (::kill(static_cast<pid_t>(it->second.pid), SIGCONT) != 0) {
    return UnavailableError("SIGCONT failed: errno " + std::to_string(errno));
  }
  it->second.paused = false;
  return OkStatus();
}

bool ProcessRuntime::child_alive(EndpointId endpoint) const {
  base::MutexLock lock(children_mutex_);
  auto it = children_.find(endpoint.value);
  return it != children_.end() && it->second.alive;
}

std::vector<ChildInfo> ProcessRuntime::children() const {
  std::vector<ChildInfo> out;
  base::MutexLock lock(children_mutex_);
  out.reserve(children_.size());
  for (const auto& [_, child] : children_) {
    out.push_back(ChildInfo{child.endpoint, child.pid, child.label, child.host,
                            child.alive});
  }
  return out;
}

void ProcessRuntime::reaper_loop() {
  while (!stopping_.load()) {
    std::vector<std::pair<std::uint64_t, std::int64_t>> live;
    {
      base::MutexLock lock(children_mutex_);
      live.reserve(children_.size());
      for (const auto& [endpoint, child] : children_) {
        if (child.alive && child.pid > 0) live.emplace_back(endpoint, child.pid);
      }
    }
    for (const auto& [endpoint, pid] : live) {
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
      if (r == static_cast<pid_t>(pid)) {
        // The zombie is collected and its calls bounce; a paused child
        // reports no state change (WUNTRACED unset) and stays alive here.
        zombie_reaps_.inc();
        mark_child_dead(endpoint);
      } else if (r < 0 && errno == ECHILD) {
        // A concurrent stop_child won the waitpid race; just bookkeep.
        mark_child_dead(endpoint);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

void ProcessRuntime::mark_child_dead(std::uint64_t endpoint_value) {
  std::unordered_map<std::uint64_t, EndpointId> outstanding;
  {
    base::MutexLock lock(children_mutex_);
    auto it = children_.find(endpoint_value);
    if (it == children_.end() || !it->second.alive) return;
    it->second.alive = false;
    it->second.paused = false;
    outstanding.swap(it->second.outstanding);
  }
  live_children_.sub(1);
  // Phase 2 (children lock released): synthesize one kBounceUnavailable per
  // unanswered call, echoing the request prefix the Messenger's bounce
  // parser expects, so callers fail kUnavailable now instead of timing out.
  for (const auto& [call_id, caller] : outstanding) {
    Envelope bounce;
    bounce.src = EndpointId{endpoint_value};
    bounce.dst = caller;
    bounce.kind = DeliveryKind::kBounceUnavailable;
    Writer w(bounce.payload);
    w.u8(kMessengerRequest);
    w.u64(call_id);
    bounced_unavailable_.inc();
    transport_.bounced.inc();
    deliver_local(std::move(bounce));
  }
}

void ProcessRuntime::deliver_local(Envelope env) {
  EndpointPtr ep = find(env.dst);
  if (!ep) return;
  {
    base::MutexLock lock(ep->mutex);
    if (ep->stopping) return;
    ep->stats.received += 1;
    ep->stats.bytes_received += env.payload.size();
    env.queued_at = now();
    ep->inbox.push_back(std::move(env));
    ++ep->wakeups;
  }
  ep->cv.notify_all();
}

RuntimeStats ProcessRuntime::stats() const { return transport_.view(); }

EndpointStats ProcessRuntime::endpoint_stats(EndpointId id) const {
  EndpointPtr ep = find(id);
  if (!ep) return EndpointStats{};
  base::MutexLock lock(ep->mutex);
  return ep->stats;
}

std::map<std::string, std::uint64_t> ProcessRuntime::received_by_label()
    const {
  std::map<std::string, std::uint64_t> out;
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    out[ep->label] += ep->stats.received;
  }
  return out;
}

std::uint64_t ProcessRuntime::max_received_with_label(
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

void ProcessRuntime::reset_stats() {
  transport_.reset();
  base::ReaderMutexLock lock(map_mutex_);
  for (const auto& [_, ep] : endpoints_) {
    base::MutexLock elock(ep->mutex);
    ep->stats = EndpointStats{};
  }
}

}  // namespace legion::rt
