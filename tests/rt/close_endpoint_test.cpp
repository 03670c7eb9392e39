// close_endpoint drains before it unpublishes, on every threaded runtime.
//
// A request accepted before the close is still handled during the drain,
// and its handler must be able to post the reply: the endpoint stays known
// to post() until the drain is over. Unpublishing first turned that reply
// into kInternal ("post from unknown endpoint") — lost, with the caller left
// to wait out its deadline. Run under TSan in CI: the close races the
// handler's reply by construction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>

#include "rt/epoll_runtime.hpp"
#include "rt/process_runtime.hpp"
#include "rt/thread_runtime.hpp"

namespace legion::rt {
namespace {

template <typename RuntimeT>
class CloseEndpointTest : public ::testing::Test {};

using ThreadedRuntimes =
    ::testing::Types<ThreadRuntime, EpollRuntime, ProcessRuntime>;
TYPED_TEST_SUITE(CloseEndpointTest, ThreadedRuntimes);

TYPED_TEST(CloseEndpointTest, HandlerRepliesAfterCloseBegins) {
  TypeParam rt;
  auto j = rt.topology().add_jurisdiction("j");
  const HostId h1 = rt.topology().add_host("h1", {j}, 1e9);
  const HostId h2 = rt.topology().add_host("h2", {j}, 1e9);

  std::atomic<int> replies{0};
  const EndpointId client = rt.create_endpoint(
      h1, "client", [&](Envelope&&) { replies.fetch_add(1); },
      ExecutionMode::kServiced);

  std::promise<void> entered;
  std::promise<void> latch;
  std::shared_future<void> released = latch.get_future().share();
  std::atomic<int> reply_code{-1};
  EndpointId server;
  server = rt.create_endpoint(
      h2, "server",
      [&](Envelope&& request) {
        entered.set_value();
        released.wait();
        const Status st = rt.post(
            Envelope{server, request.src, DeliveryKind::kData, Buffer{}});
        reply_code.store(static_cast<int>(st.code()));
      },
      ExecutionMode::kServiced);

  ASSERT_TRUE(
      rt.post(Envelope{client, server, DeliveryKind::kData, Buffer{}}).ok());
  ASSERT_EQ(entered.get_future().wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  std::thread closer([&] { rt.close_endpoint(server); });
  // The close is under way (the endpoint reads dead) while the handler is
  // still blocked on the latch.
  const auto closing_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt.endpoint_alive(server) &&
         std::chrono::steady_clock::now() < closing_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(rt.endpoint_alive(server));
  latch.set_value();
  closer.join();

  // close_endpoint returned, so the handler has finished.
  EXPECT_EQ(reply_code.load(), static_cast<int>(StatusCode::kOk));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (replies.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(replies.load(), 1);
}

}  // namespace
}  // namespace legion::rt
