#include "rt/socket_util.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

namespace legion::rt {

namespace {
bool FillSunPath(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof addr.sun_path) {
    errno = ENAMETOOLONG;
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}
}  // namespace

int CreateUnixListener(const std::string& path, int backlog) {
  sockaddr_un addr{};
  if (!FillSunPath(path, addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // A stale socket file from a previous (killed) incarnation makes bind()
  // fail with EADDRINUSE even though nothing listens there any more.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog > 0 ? backlog : SOMAXCONN) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

SocketDir::SocketDir(std::string path) : path_(std::move(path)) {
  if (!path_.empty()) return;
  // Every `<dir>/ep-<id>.sock` must fit sockaddr_un's ~107-byte path: the
  // longest id takes 29 bytes after the directory, and the directory adds
  // 14 bytes to its parent.
  constexpr std::size_t kMaxParent = 60;
  std::string parent = "/tmp";
  if (const char* tmpdir = std::getenv("TMPDIR");
      tmpdir != nullptr && *tmpdir != '\0' &&
      std::strlen(tmpdir) <= kMaxParent) {
    parent = tmpdir;
  }
  std::string tmpl = parent + "/legion.XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) return;
  path_ = std::move(tmpl);
  owned_ = true;
}

SocketDir::~SocketDir() {
  if (!owned_) return;
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

int DialUnix(const std::string& path) {
  sockaddr_un addr{};
  if (!FillSunPath(path, addr)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

int AcceptConn(int listen_fd) {
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
}

// A signal landing mid-transfer interrupts the syscall with EINTR; that is
// a retry, not a failure — treating it as fatal silently drops frames.
bool ReadAll(int fd, void* data, std::size_t n, obs::Counter& retries) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0) {
      if (errno == EINTR) {
        retries.inc();
        continue;
      }
      return false;
    }
    if (got == 0) return false;  // peer closed mid-frame
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

// Gathered write of the whole frame in one syscall on the fast path,
// advancing the iovec on partial writes. MSG_NOSIGNAL: a cached socket whose
// peer endpoint closed must fail with EPIPE (and reconnect), not kill the
// process with SIGPIPE. A full socket buffer on a nonblocking fd parks in
// poll(POLLOUT) instead of spinning.
bool WritevAll(int fd, iovec* iov, int iovcnt, obs::Counter& retries) {
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  while (msg.msg_iovlen > 0) {
    const ssize_t written = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) {
        retries.inc();
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd pfd{fd, POLLOUT, 0};
        if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) return false;
        continue;
      }
      return false;
    }
    std::size_t left = static_cast<std::size_t>(written);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov[0].iov_len) {
      left -= msg.msg_iov[0].iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0 && left > 0) {
      msg.msg_iov[0].iov_base =
          static_cast<char*>(msg.msg_iov[0].iov_base) + left;
      msg.msg_iov[0].iov_len -= left;
    }
  }
  return true;
}

}  // namespace legion::rt
