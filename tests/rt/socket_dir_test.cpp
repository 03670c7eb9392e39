// SocketDir: the private directory ProcessRuntime's Unix-domain sockets live
// in. Each instance makes its own mkdtemp directory (mode 0700, so only the
// owning uid can inject frames) and removes it, with every socket file in
// it, on destruction.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "rt/conn_pool.hpp"
#include "rt/socket_util.hpp"

namespace legion::rt {
namespace {

namespace fs = std::filesystem;

std::size_t CountEntries(const fs::path& dir) {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) ++n;
  return n;
}

TEST(SocketDirTest, EachInstanceOwnsAPrivateDirectory) {
  const SocketDir one;
  const SocketDir two;
  ASSERT_FALSE(one.path().empty());
  ASSERT_FALSE(two.path().empty());
  EXPECT_NE(one.path(), two.path());
  for (const std::string& dir : {one.path(), two.path()}) {
    struct stat st{};
    ASSERT_EQ(::stat(dir.c_str(), &st), 0) << dir;
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    EXPECT_EQ(st.st_mode & 0777, 0700u) << dir;
    EXPECT_EQ(st.st_uid, ::getuid());
  }
}

// Teardown removes every socket file and the directory itself; dialing a
// removed listener afterwards is a stale binding, not a hang or
// kUnavailable.
TEST(SocketDirTest, TeardownRemovesSocketDirectory) {
  std::string dir;
  std::string listener;
  int fds[2] = {-1, -1};
  {
    const SocketDir sockets;
    dir = sockets.path();
    ASSERT_FALSE(dir.empty());
    for (std::uint64_t key : {1u, 2u}) {
      fds[key - 1] =
          CreateUnixListener(ConnPool::UnixSocketPath(dir, key), 0);
      ASSERT_GE(fds[key - 1], 0);
    }
    listener = ConnPool::UnixSocketPath(dir, 1);
    EXPECT_TRUE(fs::is_socket(listener));
    EXPECT_EQ(CountEntries(dir), 2u);
  }
  EXPECT_FALSE(fs::exists(listener));
  EXPECT_FALSE(fs::exists(dir));

  // The listening socket is still open, but its path is gone.
  obs::Registry registry;
  ConnPool pool(SocketOptions{}, registry, ConnPool::UnixDialer(dir),
                "rt.proc.pool");
  EXPECT_EQ(pool.send(1, Envelope{}).code(), StatusCode::kStaleBinding);
  for (int fd : fds) ::close(fd);
}

// Creating and destroying many socket directories leaves the temporary
// directory as it was. TMPDIR points at a fresh directory so parallel tests
// cannot disturb the count.
TEST(SocketDirTest, ThousandLifecyclesLeaveTmpAsItWas) {
  char tmpl[] = "/tmp/legion-tmpdir.XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const char* saved = std::getenv("TMPDIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("TMPDIR", tmpl, 1);
  for (int i = 0; i < 1000; ++i) {
    const SocketDir sockets;
    EXPECT_EQ(fs::path(sockets.path()).parent_path(), fs::path(tmpl));
    if (i % 100 == 0) {
      // Some with a bound listener, most bare.
      const int fd =
          CreateUnixListener(ConnPool::UnixSocketPath(sockets.path(), 1), 0);
      EXPECT_GE(fd, 0);
      ::close(fd);
    }
  }
  EXPECT_EQ(CountEntries(tmpl), 0u);
  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  fs::remove_all(tmpl);
}

}  // namespace
}  // namespace legion::rt
