// Deleted objects give their storage back: a create / Increment / delete
// loop on EpollRuntime (the write path of the lifecycle_churn benchmark)
// must leave the class object's logical table and the client's binding
// cache no larger after thousands of cycles than after the warm-up, since
// every deleted object's dense id is recycled for the next one (paper
// Section 3.8: Delete removes "both Active and Inert copies of the object").
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/class_object.hpp"
#include "core/system.hpp"
#include "core/well_known.hpp"
#include "rt/epoll_runtime.hpp"
#include "sim/sample_objects.hpp"

namespace legion::core {
namespace {

constexpr int kWarmupCycles = 500;
constexpr int kMeasuredCycles = 2500;

class RetentionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const JurisdictionId j = runtime_.topology().add_jurisdiction("j");
    for (int h = 0; h < 4; ++h) {
      hosts_.push_back(
          runtime_.topology().add_host("h" + std::to_string(h), {j}, 1e9));
    }
    system_ = std::make_unique<LegionSystem>(runtime_, SystemConfig{});
    ASSERT_TRUE(sim::RegisterSampleObjects(system_->registry()).ok());
    ASSERT_TRUE(system_->bootstrap().ok());
    client_ = system_->make_client(hosts_[0], "churn");

    wire::DeriveRequest req;
    req.name = "ChurnWorker";
    req.instance_impl = std::string(sim::WorkerImpl::kName);
    req.extra_interface = sim::WorkerImpl{}.interface();
    auto cls = client_->derive(LegionObjectLoid(), req);
    ASSERT_TRUE(cls.ok()) << cls.status().to_string();
    worker_class_ = cls->loid;
  }

  void TearDown() override {
    client_.reset();
    system_.reset();
  }

  // The worker class object's implementation, wherever it was placed.
  ClassObjectImpl* worker_class_impl() {
    for (const HostId host : hosts_) {
      ActiveObject* shell = system_->host_impl(host)->find_object(worker_class_);
      if (shell == nullptr) continue;
      for (const auto& impl : shell->impls()) {
        if (auto* cls = dynamic_cast<ClassObjectImpl*>(impl.get())) return cls;
      }
    }
    return nullptr;
  }

  void Cycles(int n) {
    for (int i = 0; i < n; ++i) {
      auto created = client_->create(worker_class_, sim::WorkerInit(0, 0));
      ASSERT_TRUE(created.ok()) << created.status().to_string();
      auto reply = client_->ref(created->loid).call("Increment", Buffer{});
      ASSERT_TRUE(reply.ok()) << reply.status().to_string();
      ASSERT_TRUE(client_->delete_object(worker_class_, created->loid).ok());
    }
    runtime_.run_until_idle();
  }

  rt::EpollRuntime runtime_;
  std::vector<HostId> hosts_;
  std::unique_ptr<LegionSystem> system_;
  std::unique_ptr<Client> client_;
  Loid worker_class_;
};

TEST_F(RetentionTest, ChurnLeavesTableAndClientCacheFlat) {
  ClassObjectImpl* cls = worker_class_impl();
  ASSERT_NE(cls, nullptr);
  BindingCache& cache = client_->resolver().cache();

  Cycles(kWarmupCycles);
  const std::size_t table_bytes = cls->table().allocated_bytes();
  const std::size_t cache_bytes = cache.allocated_bytes();
  const std::size_t cache_ids = cache.id_bound();

  Cycles(kMeasuredCycles);
  EXPECT_EQ(cls->table().size(), 0u);
  EXPECT_EQ(cls->table().allocated_bytes(), table_bytes);
  EXPECT_EQ(cache.allocated_bytes(), cache_bytes);
  EXPECT_EQ(cache.id_bound(), cache_ids);
  EXPECT_LE(cache_ids, 2 * cache.capacity());
  EXPECT_TRUE(cache.consistent());
}

}  // namespace
}  // namespace legion::core
