#include "core/binding_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "base/rng.hpp"

namespace legion::core {
namespace {

Binding MakeBinding(std::uint64_t n, SimTime expires = kSimTimeNever) {
  Binding b;
  b.loid = Loid{100, n};
  b.address = ObjectAddress{ObjectAddressElement::Sim(EndpointId{n})};
  b.expires = expires;
  return b;
}

TEST(BindingCacheTest, MissThenHit) {
  BindingCache cache(8);
  EXPECT_FALSE(cache.get(Loid{100, 1}, 0).has_value());
  cache.put(MakeBinding(1));
  auto hit = cache.get(Loid{100, 1}, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->loid, (Loid{100, 1}));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BindingCacheTest, LruEvictionOrder) {
  BindingCache cache(3);
  cache.put(MakeBinding(1));
  cache.put(MakeBinding(2));
  cache.put(MakeBinding(3));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.get(Loid{100, 1}, 0).has_value());
  cache.put(MakeBinding(4));
  EXPECT_TRUE(cache.get(Loid{100, 1}, 0).has_value());
  EXPECT_FALSE(cache.get(Loid{100, 2}, 0).has_value());
  EXPECT_TRUE(cache.get(Loid{100, 3}, 0).has_value());
  EXPECT_TRUE(cache.get(Loid{100, 4}, 0).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BindingCacheTest, ZeroCapacityDisablesCaching) {
  BindingCache cache(0);
  cache.put(MakeBinding(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(Loid{100, 1}, 0).has_value());
}

TEST(BindingCacheTest, ExpiredEntryIsMissAndPurged) {
  // Section 3.5: a binding carries "the time that the binding becomes
  // invalid".
  BindingCache cache(8);
  cache.put(MakeBinding(1, /*expires=*/100));
  EXPECT_TRUE(cache.get(Loid{100, 1}, 99).has_value());
  EXPECT_FALSE(cache.get(Loid{100, 1}, 100).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BindingCacheTest, PutRefreshesExistingEntry) {
  BindingCache cache(8);
  cache.put(MakeBinding(1, 100));
  Binding updated = MakeBinding(1, kSimTimeNever);
  updated.address = ObjectAddress{ObjectAddressElement::Sim(EndpointId{42})};
  cache.put(updated);
  auto hit = cache.get(Loid{100, 1}, 500);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->address, updated.address);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(BindingCacheTest, InvalidateByLoid) {
  BindingCache cache(8);
  cache.put(MakeBinding(1));
  EXPECT_TRUE(cache.invalidate(Loid{100, 1}));
  EXPECT_FALSE(cache.invalidate(Loid{100, 1}));
  EXPECT_FALSE(cache.get(Loid{100, 1}, 0).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(BindingCacheTest, InvalidateExactSparesNewerBinding) {
  // Section 3.6's second InvalidateBinding form "remove[s] a binding if it
  // matches exactly" — so a newer replacement must survive.
  BindingCache cache(8);
  const Binding stale = MakeBinding(1);
  Binding fresh = MakeBinding(1);
  fresh.address = ObjectAddress{ObjectAddressElement::Sim(EndpointId{99})};
  cache.put(fresh);
  EXPECT_FALSE(cache.invalidate_exact(stale));  // no exact match
  EXPECT_TRUE(cache.get(Loid{100, 1}, 0).has_value());
  EXPECT_TRUE(cache.invalidate_exact(fresh));
  EXPECT_FALSE(cache.get(Loid{100, 1}, 0).has_value());
}

TEST(BindingCacheTest, InvalidBindingNotStored) {
  BindingCache cache(8);
  cache.put(Binding{});
  EXPECT_EQ(cache.size(), 0u);
}

TEST(BindingCacheTest, HitRateComputation) {
  BindingCache cache(8);
  cache.put(MakeBinding(1));
  (void)cache.get(Loid{100, 1}, 0);
  (void)cache.get(Loid{100, 1}, 0);
  (void)cache.get(Loid{100, 2}, 0);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 2.0 / 3.0);
  cache.reset_stats();
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.0);
}

class CacheCapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheCapacitySweep, SizeNeverExceedsCapacity) {
  BindingCache cache(GetParam());
  for (std::uint64_t i = 0; i < 100; ++i) cache.put(MakeBinding(i + 1));
  EXPECT_LE(cache.size(), GetParam());
  if (GetParam() > 0 && GetParam() <= 100) {
    EXPECT_EQ(cache.size(), GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacitySweep,
                         ::testing::Values(0, 1, 2, 16, 64, 1000));

TEST(BindingCacheTest, ExpiredEvictionAtCapacityKeepsLruAndMapConsistent) {
  // Interleave expiring gets, puts at capacity, and exact invalidations:
  // the expiry-eviction path erases from both the LRU list and the map, and
  // after EVERY step the two must agree (same size, positions pointing back
  // at their own nodes). A bug here corrupts eviction order silently.
  BindingCache cache(3);
  cache.put(MakeBinding(1, /*expires=*/100));
  cache.put(MakeBinding(2, /*expires=*/200));
  cache.put(MakeBinding(3));
  ASSERT_TRUE(cache.consistent());

  // Entry 1 expires on lookup; the slot reopens.
  EXPECT_FALSE(cache.get(Loid{100, 1}, 150).has_value());
  ASSERT_TRUE(cache.consistent());
  EXPECT_EQ(cache.size(), 2u);

  // Fill back to capacity, then one more: LRU eviction fires.
  cache.put(MakeBinding(4));
  ASSERT_TRUE(cache.consistent());
  cache.put(MakeBinding(5));
  ASSERT_TRUE(cache.consistent());
  EXPECT_EQ(cache.size(), 3u);

  // Expire 2 and exact-invalidate 4 back to back.
  EXPECT_FALSE(cache.get(Loid{100, 2}, 250).has_value());
  ASSERT_TRUE(cache.consistent());
  EXPECT_TRUE(cache.invalidate_exact(MakeBinding(4)));
  ASSERT_TRUE(cache.consistent());

  // Refresh-put of a surviving entry must splice, not duplicate.
  cache.put(MakeBinding(5));
  ASSERT_TRUE(cache.consistent());
  EXPECT_LE(cache.size(), 3u);

  // Survivors still resolve; the expired ones stay gone.
  EXPECT_TRUE(cache.get(Loid{100, 5}, 300).has_value());
  EXPECT_FALSE(cache.get(Loid{100, 2}, 300).has_value());
  ASSERT_TRUE(cache.consistent());
}

TEST(BindingCacheTest, ConcurrentMixedOpsAtCapacityStayConsistent) {
  // Four threads hammer one at-capacity cache with the full op mix (gets at
  // expiring timestamps, puts, exact invalidations). Correctness claim:
  // no crash, no TSan report, and the LRU/map pair is intact afterwards.
  BindingCache cache(4);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t id = 1 + ((t * kOps + i) % 7);
        switch (i % 4) {
          case 0:
            cache.put(MakeBinding(id, /*expires=*/i % 3 == 0 ? 50 : kSimTimeNever));
            break;
          case 1:
            (void)cache.get(Loid{100, id}, /*now=*/i % 2 == 0 ? 0 : 100);
            break;
          case 2:
            (void)cache.invalidate_exact(MakeBinding(id));
            break;
          default:
            (void)cache.invalidate(Loid{100, id});
            break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(cache.consistent());
  EXPECT_LE(cache.size(), 4u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * (kOps / 4));
}

TEST(BindingCacheTest, ConcurrentPutsRacingResetCapacityStayConsistent) {
  // Regression for the TSan-visible race: put() and put_negative() used to
  // read capacity_ before taking the mutex, racing with reset_capacity()'s
  // write under lock. Both checks now happen under the mutex; this test is
  // the sanitizer matrix's probe for that path.
  BindingCache cache(8);
  constexpr int kWriters = 3;
  constexpr int kOps = 3000;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t id = 1 + ((t * kOps + i) % 11);
        if (i % 3 == 0) {
          cache.put_negative(Loid{100, id}, /*expires_at=*/1000 + i);
        } else {
          cache.put(MakeBinding(id));
        }
        if (i % 7 == 0) (void)cache.get(Loid{100, id}, /*now=*/0);
      }
    });
  }
  threads.emplace_back([&cache] {
    for (int i = 0; i < kOps; ++i) {
      cache.reset_capacity(i % 2 == 0 ? 4 : 16);
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_TRUE(cache.consistent());
  EXPECT_LE(cache.size(), 16u);
  EXPECT_LE(cache.negative_size(), 16u);
}

TEST(BindingCacheTest, IdBoundStaysWithinTwiceCapacityUnderLoidStream) {
  // 10^5 distinct LOIDs pass through a 64-entry cache as positives, every
  // third one also leaving a negative entry and every fifth invalidated:
  // entries that die give their ids back, so the slot array is bounded by
  // the capacity (positives plus negatives), not by the LOIDs ever seen.
  constexpr std::size_t kCapacity = 64;
  BindingCache cache(kCapacity);
  std::size_t warm_bytes = 0;
  for (std::uint64_t n = 1; n <= 100'000; ++n) {
    cache.put(MakeBinding(n));
    if (n % 3 == 0) cache.put_negative(Loid{200, n}, /*expires_at=*/n + 50);
    if (n % 5 == 0) (void)cache.invalidate(Loid{100, n - 1});
    if (n % 7 == 0) (void)cache.negative(Loid{200, n - 60}, /*now=*/n);
    if (n == 1000) warm_bytes = cache.allocated_bytes();
    if (n % 1000 == 0) {
      ASSERT_TRUE(cache.consistent()) << "after " << n;
    }
  }
  EXPECT_LE(cache.id_bound(), 2 * kCapacity);
  EXPECT_EQ(cache.allocated_bytes(), warm_bytes);
  EXPECT_TRUE(cache.get(Loid{100, 100'000}, 0).has_value());
  EXPECT_FALSE(cache.get(Loid{100, 1}, 0).has_value());
}

TEST(BindingCacheTest, PutOverNegativeKeepsItsId) {
  // put() installs the positive entry before dropping the negative one, so
  // the slot never loses its id in between — even when the put also
  // evicts, which frees (and could hand out) another id.
  BindingCache cache(1);
  cache.put(MakeBinding(1));
  cache.put_negative(Loid{100, 2}, /*expires_at=*/1000);
  ASSERT_TRUE(cache.consistent());
  cache.put(MakeBinding(2));  // evicts 1, supersedes 2's negative entry
  EXPECT_TRUE(cache.consistent());
  EXPECT_FALSE(cache.negative(Loid{100, 2}, 0));
  EXPECT_EQ(cache.negative_size(), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Interning new LOIDs now must not reuse 2's id under it.
  cache.put_negative(Loid{100, 3}, /*expires_at=*/1000);
  cache.put_negative(Loid{100, 4}, /*expires_at=*/1000);  // drops 3
  EXPECT_TRUE(cache.consistent());
  const auto hit = cache.get(Loid{100, 2}, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(*hit == MakeBinding(2));
  EXPECT_TRUE(cache.negative(Loid{100, 4}, 0));
  EXPECT_LE(cache.id_bound(), 2u);
}

// A naive reference model of the cache's contract, mirrored operation by
// operation: entries as a map plus an explicit most-recent-first LRU
// sequence, negatives as a map plus insertion order. The property test
// drives both with the same randomized op stream and requires identical
// observable behavior, consistent() and the negative bound after every step.
struct ReferenceCache {
  std::size_t capacity;
  std::map<Loid, Binding> entries;
  std::vector<Loid> lru;  // front = most recent
  std::map<Loid, SimTime> negatives;
  std::vector<Loid> neg_order;  // front = oldest

  explicit ReferenceCache(std::size_t cap) : capacity(cap) {}

  void to_front(const Loid& loid) {
    auto it = std::find(lru.begin(), lru.end(), loid);
    if (it != lru.end()) lru.erase(it);
    lru.insert(lru.begin(), loid);
  }
  void drop_entry(const Loid& loid) {
    entries.erase(loid);
    auto it = std::find(lru.begin(), lru.end(), loid);
    if (it != lru.end()) lru.erase(it);
  }
  void drop_negative(const Loid& loid) {
    negatives.erase(loid);
    auto it = std::find(neg_order.begin(), neg_order.end(), loid);
    if (it != neg_order.end()) neg_order.erase(it);
  }

  std::optional<Binding> get(const Loid& loid, SimTime now) {
    auto it = entries.find(loid);
    if (it == entries.end()) return std::nullopt;
    if (it->second.expired_at(now)) {
      drop_entry(loid);
      return std::nullopt;
    }
    to_front(loid);
    return it->second;
  }

  void put(Binding binding) {
    if (capacity == 0 || !binding.valid()) return;
    const Loid key = binding.loid;
    drop_negative(key);
    if (entries.contains(key)) {
      entries[key] = std::move(binding);
      to_front(key);
      return;
    }
    if (entries.size() >= capacity) drop_entry(lru.back());
    to_front(key);
    entries.emplace(key, std::move(binding));
  }

  void put_negative(const Loid& loid, SimTime expires_at) {
    if (capacity == 0) return;
    if (negatives.contains(loid)) {
      negatives[loid] = expires_at;
      return;
    }
    if (negatives.size() >= capacity) {
      for (std::size_t i = 0; i < neg_order.size();) {
        if (negatives[neg_order[i]] <= expires_at) {
          negatives.erase(neg_order[i]);
          neg_order.erase(neg_order.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          ++i;
        }
      }
      if (negatives.size() >= capacity) drop_negative(neg_order.front());
    }
    negatives[loid] = expires_at;
    neg_order.push_back(loid);
  }

  bool negative(const Loid& loid, SimTime now) {
    auto it = negatives.find(loid);
    if (it == negatives.end()) return false;
    if (it->second <= now) {
      drop_negative(loid);
      return false;
    }
    return true;
  }

  bool invalidate(const Loid& loid) {
    drop_negative(loid);
    if (!entries.contains(loid)) return false;
    drop_entry(loid);
    return true;
  }

  bool invalidate_exact(const Binding& binding) {
    auto it = entries.find(binding.loid);
    if (it == entries.end() || !(it->second == binding)) return false;
    drop_entry(binding.loid);
    return true;
  }

  void reset_capacity(std::size_t cap) {
    capacity = cap;
    entries.clear();
    lru.clear();
    negatives.clear();
    neg_order.clear();
  }
};

TEST(BindingCachePropertyTest, RandomizedOpsMatchReferenceModel) {
  // ~6000 randomized steps over a small LOID universe and adversarial
  // capacities, comparing every observable result against the reference
  // and asserting the packed structure's invariants after each step.
  Rng rng(20260808);
  constexpr std::uint64_t kUniverse = 24;
  constexpr int kSteps = 6000;

  for (const std::size_t capacity : {std::size_t{0}, std::size_t{1},
                                     std::size_t{3}, std::size_t{8}}) {
    BindingCache cache(capacity);
    ReferenceCache ref(capacity);
    SimTime now = 0;
    for (int step = 0; step < kSteps; ++step) {
      const Loid loid{100, 1 + rng.below(kUniverse)};
      now += static_cast<SimTime>(rng.below(20));
      switch (rng.below(12)) {
        case 0:
        case 1:
        case 2: {  // put, sometimes with a near expiry
          Binding b;
          b.loid = loid;
          b.address =
              ObjectAddress{ObjectAddressElement::Sim(EndpointId{rng.below(5)})};
          b.expires = rng.chance(0.3)
                          ? now + static_cast<SimTime>(rng.below(40))
                          : kSimTimeNever;
          cache.put(b);
          ref.put(b);
          break;
        }
        case 3:
        case 4:
        case 5:
        case 6: {  // get at current virtual time
          const auto got = cache.get(loid, now);
          const auto want = ref.get(loid, now);
          ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
          if (got.has_value()) {
            ASSERT_TRUE(*got == *want) << "step " << step;
          }
          break;
        }
        case 7: {  // negative entry with short TTL
          const SimTime expires = now + static_cast<SimTime>(rng.below(30));
          cache.put_negative(loid, expires);
          ref.put_negative(loid, expires);
          break;
        }
        case 8: {
          ASSERT_EQ(cache.negative(loid, now), ref.negative(loid, now))
              << "step " << step;
          break;
        }
        case 9: {
          ASSERT_EQ(cache.invalidate(loid), ref.invalidate(loid))
              << "step " << step;
          break;
        }
        case 10: {  // invalidate_exact with a sometimes-matching binding
          Binding b;
          b.loid = loid;
          b.address =
              ObjectAddress{ObjectAddressElement::Sim(EndpointId{rng.below(5)})};
          const auto it = ref.entries.find(loid);
          if (it != ref.entries.end() && rng.chance(0.5)) b = it->second;
          ASSERT_EQ(cache.invalidate_exact(b), ref.invalidate_exact(b))
              << "step " << step;
          break;
        }
        default: {  // rare capacity reshuffle (the restore path)
          if (rng.chance(0.05)) {
            const auto cap = static_cast<std::size_t>(rng.below(9));
            cache.reset_capacity(cap);
            ref.reset_capacity(cap);
          }
          break;
        }
      }
      ASSERT_TRUE(cache.consistent()) << "step " << step;
      ASSERT_EQ(cache.size(), ref.entries.size()) << "step " << step;
      ASSERT_EQ(cache.negative_size(), ref.negatives.size()) << "step " << step;
      ASSERT_LE(cache.negative_size(), std::max<std::size_t>(ref.capacity, 0))
          << "step " << step;
      ASSERT_LE(cache.id_bound(), 2 * ref.capacity) << "step " << step;
    }
    // Final sweep: every LOID in the universe agrees on both polarities.
    for (std::uint64_t n = 1; n <= kUniverse; ++n) {
      const Loid probe{100, n};
      ASSERT_EQ(cache.get(probe, now).has_value(),
                ref.get(probe, now).has_value());
      ASSERT_EQ(cache.negative(probe, now), ref.negative(probe, now));
    }
  }
}

}  // namespace
}  // namespace legion::core
