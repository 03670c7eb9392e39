// The object model over real Unix-domain sockets (paper Section 3.3:
// "standard protocols and the communication facilities of host operating
// systems"). ProcessRuntime in parent mode with no spawned workers: every
// endpoint listens on its own socket file, and every hop is a frame written
// through the ConnPool and read back by a per-connection reader thread.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/system.hpp"
#include "core/well_known.hpp"
#include "rt/messenger.hpp"
#include "rt/process_runtime.hpp"
#include "sim/sample_objects.hpp"

namespace legion::rt {
namespace {

class SocketTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto j = rt_.topology().add_jurisdiction("j");
    h1_ = rt_.topology().add_host("h1", {j}, 1e9);
    h2_ = rt_.topology().add_host("h2", {j}, 1e9);
  }

  ProcessRuntime rt_;
  HostId h1_, h2_;
};

TEST_F(SocketTransportTest, EndpointsListenOnDistinctSocketFiles) {
  const EndpointId a = rt_.create_endpoint(h1_, "a", [](Envelope&&) {},
                                           ExecutionMode::kServiced);
  const EndpointId b = rt_.create_endpoint(h1_, "b", [](Envelope&&) {},
                                           ExecutionMode::kServiced);
  const std::string path_a =
      ConnPool::UnixSocketPath(rt_.socket_dir(), a.value);
  const std::string path_b =
      ConnPool::UnixSocketPath(rt_.socket_dir(), b.value);
  EXPECT_NE(path_a, path_b);
  EXPECT_TRUE(std::filesystem::is_socket(path_a));
  EXPECT_TRUE(std::filesystem::is_socket(path_b));

  // The file lives exactly as long as its endpoint.
  rt_.close_endpoint(a);
  EXPECT_FALSE(std::filesystem::exists(path_a));
  EXPECT_TRUE(std::filesystem::is_socket(path_b));
}

TEST_F(SocketTransportTest, MessengerRoundTripOverSockets) {
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext& ctx, Reader& args) -> Result<Buffer> {
                     return Buffer::FromString(ctx.call.method + ":" +
                                               args.str());
                   });
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  Buffer args;
  Writer w(args);
  w.str("over-sockets");
  auto result = client.call(server.endpoint(), "Echo", std::move(args),
                            EnvTriple::System(), 5'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "Echo:over-sockets");
}

TEST_F(SocketTransportTest, ConnectionRefusedIsStaleBinding) {
  const EndpointId dead = rt_.create_endpoint(h2_, "dead", [](Envelope&&) {},
                                              ExecutionMode::kServiced);
  const EndpointId src =
      rt_.create_endpoint(h1_, "src", nullptr, ExecutionMode::kDriver);
  rt_.close_endpoint(dead);
  EXPECT_EQ(rt_.post(Envelope{src, dead, DeliveryKind::kData, Buffer{}}).code(),
            StatusCode::kStaleBinding);
}

TEST_F(SocketTransportTest, LargePayloadSurvivesFraming) {
  Buffer blob;
  for (int i = 0; i < 100'000; ++i) {
    const auto byte = static_cast<std::uint8_t>(i * 31);
    blob.append(&byte, 1);
  }
  Messenger server(rt_, h2_, "server", ExecutionMode::kServiced,
                   [](ServerContext&, Reader& args) -> Result<Buffer> {
                     return args.buffer();
                   });
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  Buffer args;
  Writer w(args);
  w.buffer(blob);
  auto result = client.call(server.endpoint(), "Blob", std::move(args),
                            EnvTriple::System(), 10'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(*result, blob);
}

TEST_F(SocketTransportTest, NestedCallsOverSockets) {
  Messenger inner(rt_, h2_, "inner", ExecutionMode::kServiced,
                  [](ServerContext&, Reader&) -> Result<Buffer> {
                    return Buffer::FromString("pong");
                  });
  Messenger outer(rt_, h2_, "outer", ExecutionMode::kServiced,
                  [&](ServerContext& ctx, Reader&) -> Result<Buffer> {
                    LEGION_ASSIGN_OR_RETURN(
                        Buffer reply,
                        ctx.messenger.call(inner.endpoint(), "Ping", Buffer{},
                                           ctx.call.env, 5'000'000));
                    return Buffer::FromString("outer+" + reply.as_string());
                  });
  Messenger client(rt_, h1_, "client", ExecutionMode::kDriver, nullptr);
  auto result = client.call(outer.endpoint(), "Go", Buffer{},
                            EnvTriple::System(), 10'000'000);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->as_string(), "outer+pong");
}

// The headline: the full Legion core bootstrapped over real sockets.
TEST_F(SocketTransportTest, WholeLegionSystemBootsOverSockets) {
  core::LegionSystem system(rt_, core::SystemConfig{});
  ASSERT_TRUE(sim::RegisterSampleObjects(system.registry()).ok());
  const Status st = system.bootstrap();
  ASSERT_TRUE(st.ok()) << st.to_string();

  auto client = system.make_client(h1_);
  core::wire::DeriveRequest derive;
  derive.name = "Worker";
  derive.instance_impl = std::string(sim::WorkerImpl::kName);
  auto cls = client->derive(core::LegionObjectLoid(), derive);
  ASSERT_TRUE(cls.ok()) << cls.status().to_string();

  auto object = client->create(cls->loid, sim::WorkerInit(0, 0));
  ASSERT_TRUE(object.ok()) << object.status().to_string();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client->ref(object->loid).call("Increment", Buffer{}).ok());
  }
  auto raw = client->ref(object->loid).call("Get", Buffer{});
  ASSERT_TRUE(raw.ok()) << raw.status().to_string();
  Reader r(*raw);
  EXPECT_EQ(r.i64(), 3);

  // Deactivate and reactivate-on-reference, with every hop a socket frame.
  core::wire::LoidRequest req{object->loid};
  auto j1 = rt_.topology().jurisdictions().front().id;
  ASSERT_TRUE(client->ref(system.magistrate_of(j1))
                  .call(core::methods::kDeactivate, req.to_buffer())
                  .ok());
  auto back = client->ref(object->loid).call("Get", Buffer{});
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  Reader r2(*back);
  EXPECT_EQ(r2.i64(), 3);
}

}  // namespace
}  // namespace legion::rt
