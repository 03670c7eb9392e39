// Socket helpers of ProcessRuntime's transport (rt/process_runtime.hpp,
// rt/conn_pool.hpp): Unix-domain listeners and dials, accept, and the
// whole-frame read/write loops, with their EINTR/EAGAIN/partial-transfer
// handling in one place. SocketDir is the private directory the socket
// files live in.
//
// Every socket created here is close-on-exec. ProcessRuntime fork/execs a
// worker per object; without CLOEXEC the child would inherit the parent's
// cached client sockets and every listener (keeping a closed endpoint's
// socket reachable and leaking peer data into an address-space-disjoint
// object).
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <string>

#include "obs/metrics.hpp"

namespace legion::rt {

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
