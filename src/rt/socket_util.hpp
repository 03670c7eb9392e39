// Socket helpers shared by the socket-backed runtimes.
//
// TcpRuntime (thread-per-connection, TCP loopback) and ProcessRuntime (one
// child process per object, Unix-domain sockets) create listeners, dial
// peers, and move whole frames; centralizing the syscall loops keeps the
// EINTR/EAGAIN/partial-transfer handling — and the listener socket options
// (SO_REUSEADDR on TCP, configurable backlog, close-on-exec) — identical in
// both. SocketDir is the private directory ProcessRuntime's socket files
// live in.
//
// Every socket created here is close-on-exec. ProcessRuntime fork/execs a
// worker per object; without CLOEXEC the child would inherit the parent's
// pooled client sockets and every listener (keeping dead TCP ports alive
// through TIME_WAIT and leaking peer data into an address-space-disjoint
// object).
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace legion::rt {

// A freshly bound TCP loopback listener. fd < 0 means creation failed (errno
// preserved from the failing syscall).
struct ListenerSocket {
  int fd = -1;
  std::uint16_t port = 0;
};

// Binds a TCP listener on 127.0.0.1:`port` (0 = kernel-assigned ephemeral)
// with SO_REUSEADDR set and the given backlog (<= 0 = SOMAXCONN).
//
// SO_REUSEADDR matters for recovery: a host that crashes and is revived on
// the same port must not fail bind() with EADDRINUSE while the old
// incarnation's connections drain through TIME_WAIT — exactly the E15
// stop/rebind path.
[[nodiscard]] ListenerSocket CreateLoopbackListener(std::uint16_t port,
                                                    int backlog);

// Binds a SOCK_STREAM Unix-domain listener at `path` (unlinking any stale
// socket file first). Returns the listening fd, or -1 with errno preserved.
// `path` must fit sun_path (~107 bytes) — keep socket directories short.
[[nodiscard]] int CreateUnixListener(const std::string& path, int backlog);

// The directory a runtime's Unix-domain socket files live in.
//
// An empty `path` creates a private one, `$TMPDIR/legion.XXXXXX` (`/tmp` when
// TMPDIR is unset or too long for the socket paths below it), with mkdtemp:
// mode 0700, so only the owning uid can connect to the sockets in it and
// inject frames. That directory is owned and removed, with every socket file
// in it, when the SocketDir is destroyed. A non-empty `path` is used as given
// and left in place (a ProcessRuntime worker serves from its parent's
// directory). path() is empty when mkdtemp failed.
class SocketDir {
 public:
  explicit SocketDir(std::string path = {});
  ~SocketDir();

  SocketDir(const SocketDir&) = delete;
  SocketDir& operator=(const SocketDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  bool owned_ = false;
};

// Connects a SOCK_STREAM Unix-domain client socket to `path`. Returns the
// connected fd, or -1 with errno preserved (ENOENT/ECONNREFUSED = nothing
// listens there — the UDS flavor of a stale binding).
[[nodiscard]] int DialUnix(const std::string& path);

// accept(2) with close-on-exec set atomically (accept4). Returns the
// accepted fd or -1 with errno preserved.
[[nodiscard]] int AcceptConn(int listen_fd);

// Reads exactly `n` bytes, retrying EINTR (counted in `retries`). False on
// EOF or error. For blocking sockets only.
bool ReadAll(int fd, void* data, std::size_t n, obs::Counter& retries);

// Writes the whole iovec with gathered sendmsg(MSG_NOSIGNAL), advancing on
// partial writes, retrying EINTR (counted), and parking in poll(POLLOUT) on
// EAGAIN/EWOULDBLOCK so nonblocking sockets are handled too. False on error.
bool WritevAll(int fd, iovec* iov, int iovcnt, obs::Counter& retries);

}  // namespace legion::rt
