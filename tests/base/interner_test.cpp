#include "base/interner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/loid.hpp"
#include "base/rng.hpp"

namespace legion {
namespace {

// Identity hash: a key's home slot is key % slot count, so tests can lay
// out collision chains (and chains that wrap past the last slot) exactly.
struct IdentityHash {
  std::size_t operator()(std::uint64_t k) const noexcept { return k; }
};
using ChainInterner = Interner<std::uint64_t, IdentityHash>;
// The initial slot array is 64 slots and stays so below 44 live keys.
constexpr std::uint64_t kSlots = 64;

// Interns `layout`, then erases it in every order, checking after each
// erase that the erased keys are gone and the rest still find their ids.
void CheckEveryEraseOrder(const std::vector<std::uint64_t>& layout) {
  std::vector<std::size_t> order(layout.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  do {
    ChainInterner interner;
    std::vector<std::uint32_t> ids;
    for (const std::uint64_t k : layout) ids.push_back(interner.intern(k));
    std::vector<bool> erased(layout.size(), false);
    for (const std::size_t victim : order) {
      interner.erase(ids[victim]);
      erased[victim] = true;
      for (std::size_t i = 0; i < layout.size(); ++i) {
        ASSERT_EQ(interner.find(layout[i]),
                  erased[i] ? ChainInterner::kNoId : ids[i])
            << "key " << layout[i] << " after erasing key " << layout[victim];
      }
    }
    ASSERT_TRUE(interner.empty());
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(InternerTest, AssignsDenseIdsInInsertionOrder) {
  Interner<std::string> interner;
  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_EQ(interner.intern("beta"), 1u);
  EXPECT_EQ(interner.intern("gamma"), 2u);
  EXPECT_EQ(interner.intern("beta"), 1u);  // duplicate: same id
  EXPECT_EQ(interner.size(), 3u);
  EXPECT_EQ(interner.key_of(0), "alpha");
  EXPECT_EQ(interner.key_of(2), "gamma");
}

TEST(InternerTest, FindDoesNotIntern) {
  Interner<std::string> interner;
  EXPECT_EQ(interner.find("missing"), Interner<std::string>::kNoId);
  (void)interner.intern("present");
  EXPECT_EQ(interner.find("present"), 0u);
  EXPECT_EQ(interner.find("missing"), Interner<std::string>::kNoId);
  EXPECT_EQ(interner.size(), 1u);
}

TEST(InternerTest, SurvivesRehashing) {
  Interner<std::uint64_t> interner;
  constexpr std::uint64_t kCount = 50'000;  // forces many doublings
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(interner.intern(i * 31), i);
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(interner.find(i * 31), i);
    ASSERT_EQ(interner.key_of(static_cast<std::uint32_t>(i)), i * 31);
  }
  EXPECT_EQ(interner.find(kCount * 31), (Interner<std::uint64_t>::kNoId));
}

TEST(InternerTest, ClearResets) {
  Interner<std::string> interner;
  (void)interner.intern("a");
  (void)interner.intern("b");
  interner.clear();
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.find("a"), Interner<std::string>::kNoId);
  EXPECT_EQ(interner.intern("b"), 0u);  // ids restart dense
}

TEST(InternerTest, LoidInternerUsesIdentityBits) {
  // LOID equality ignores the public key (Section 4.1.3's locating trick),
  // so interning must collapse key'd and keyless spellings to one id.
  LoidInterner interner;
  const Loid with_key{5, 9, {0xAA, 0xBB}};
  const Loid without_key{5, 9};
  EXPECT_EQ(interner.intern(with_key), interner.intern(without_key));
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.find(without_key), 0u);
}

TEST(InternerTest, EraseInsideCollisionChains) {
  // Four keys share home slot 5; key 6, whose home is taken, sits among
  // them at slot 8, and key 8 is displaced to slot 10. Every erase order
  // must leave the rest findable: backward shift may only pull an entry
  // into a hole its probe from home passes through.
  const std::vector<std::uint64_t> layout = {5, 5 + kSlots, 5 + 2 * kSlots,
                                             6, 5 + 3 * kSlots, 8};
  CheckEveryEraseOrder(layout);
}

TEST(InternerTest, EraseAcrossSlotArrayWraparound) {
  // Three keys home at slot 62 fill 62, 63 and wrap to 0; keys 0, 1 and 63
  // are displaced to slots 1, 2 and 3. Erasing in every order opens holes
  // on both sides of the array's end: wrapped entries must be pulled back
  // across it, and only into holes their probe from home passes through.
  const std::vector<std::uint64_t> layout = {62, 62 + kSlots, 62 + 2 * kSlots,
                                             0, 1, 63};
  CheckEveryEraseOrder(layout);
}

TEST(InternerTest, FreedIdsAreReusedLifo) {
  Interner<std::string> interner;
  for (const char* k : {"a", "b", "c", "d"}) (void)interner.intern(k);
  interner.erase(1);
  interner.erase(3);
  EXPECT_EQ(interner.size(), 2u);
  EXPECT_EQ(interner.id_bound(), 4u);
  EXPECT_EQ(interner.find("b"), Interner<std::string>::kNoId);
  EXPECT_EQ(interner.intern("e"), 3u);  // last freed, first reused
  EXPECT_EQ(interner.intern("f"), 1u);
  EXPECT_EQ(interner.intern("g"), 4u);  // free list empty: next dense id
  EXPECT_EQ(interner.size(), 5u);
  EXPECT_EQ(interner.id_bound(), 5u);
  EXPECT_EQ(interner.find("e"), 3u);
  EXPECT_EQ(interner.key_of(1), "f");
}

TEST(InternerTest, RandomOpsMatchUnorderedMapOracle) {
  // Seeded intern/find/erase over a colliding key space (identity hash,
  // keys drawn from a few thousand values), with the live population swept
  // up past several doublings and back down. The oracle maps live keys to
  // the ids the interner handed out; ids must stay unique among live keys.
  Rng rng(16);
  ChainInterner interner;
  std::unordered_map<std::uint64_t, std::uint32_t> oracle;
  std::vector<std::uint64_t> live;  // oracle's keys, for uniform victims
  std::vector<bool> id_used;
  std::size_t peak = 0;
  constexpr std::uint64_t kUniverse = 6000;
  for (int phase = 0; phase < 6; ++phase) {
    const bool growing = phase % 2 == 0;
    for (int step = 0; step < 20'000; ++step) {
      const std::uint64_t key = rng.below(kUniverse) * 3;
      const std::uint64_t op = rng.below(10);
      if (op < (growing ? 5u : 2u)) {
        const std::uint32_t id = interner.intern(key);
        if (auto it = oracle.find(key); it != oracle.end()) {
          ASSERT_EQ(id, it->second) << "step " << step;
        } else {
          if (id >= id_used.size()) id_used.resize(id + 1, false);
          ASSERT_FALSE(id_used[id]) << "id " << id << " handed out twice";
          id_used[id] = true;
          oracle.emplace(key, id);
          live.push_back(key);
          peak = std::max(peak, live.size());
        }
      } else if (op < 7 && !live.empty()) {
        const std::size_t pick = rng.below(live.size());
        const std::uint64_t victim = live[pick];
        const std::uint32_t id = oracle.at(victim);
        interner.erase(id);
        id_used[id] = false;
        oracle.erase(victim);
        live[pick] = live.back();
        live.pop_back();
      } else {
        const auto it = oracle.find(key);
        ASSERT_EQ(interner.find(key),
                  it == oracle.end() ? ChainInterner::kNoId : it->second)
            << "step " << step;
      }
      ASSERT_EQ(interner.size(), oracle.size());
    }
  }
  for (const auto& [key, id] : oracle) {
    ASSERT_EQ(interner.find(key), id);
    ASSERT_EQ(interner.key_of(id), key);
  }
  // A new dense id is taken only when no freed id is left, so the id range
  // is exactly the peak population, not the number of keys ever interned.
  EXPECT_EQ(interner.id_bound(), peak);
  EXPECT_GT(peak, 2048u);  // the slot array doubled past 4096 slots
}

TEST(InternerTest, ReusedIdCopiesIntoTheFreedKeysStorage) {
  // Instance LOIDs carry public-key bytes. A freed id keeps its key's
  // buffer, so the intern() that reuses the id copies the new key's bytes
  // into it instead of allocating a fresh one.
  LoidInterner interner;
  const std::uint32_t id =
      interner.intern(Loid{4, 1, std::vector<std::uint8_t>(8, 0xA1)});
  const std::uint8_t* buffer = interner.key_of(id).public_key().data();
  interner.erase(id);
  EXPECT_EQ(interner.find(Loid{4, 1}), LoidInterner::kNoId);
  ASSERT_EQ(interner.intern(Loid{4, 2, std::vector<std::uint8_t>(8, 0xB2)}),
            id);
  EXPECT_EQ(interner.key_of(id).public_key().data(), buffer);
  EXPECT_EQ(interner.key_of(id).public_key(),
            std::vector<std::uint8_t>(8, 0xB2));
  EXPECT_EQ(interner.key_of(id).class_specific(), 2u);
}

TEST(InternerTest, AllocatedBytesFlatUnderConstantPopulationChurn) {
  // 10^4 live LOIDs, then 10^5 cycles of erase-oldest / intern-new: every
  // new key reuses a freed id, so after the first cycle (which gives the
  // free list its one slot) neither the key segments, the slot array nor
  // the free list grow.
  LoidInterner interner;
  std::deque<std::uint32_t> fifo;
  constexpr std::uint64_t kLive = 10'000;
  std::uint64_t next = 1;
  for (; next <= kLive; ++next) fifo.push_back(interner.intern(Loid{4, next}));
  auto churn = [&](int cycles) {
    for (int cycle = 0; cycle < cycles; ++cycle, ++next) {
      interner.erase(fifo.front());
      fifo.pop_front();
      fifo.push_back(interner.intern(Loid{4, next}));
    }
  };
  churn(1);
  const std::size_t steady = interner.allocated_bytes();
  churn(100'000);
  EXPECT_EQ(interner.allocated_bytes(), steady);
  EXPECT_EQ(interner.size(), kLive);
  EXPECT_EQ(interner.id_bound(), kLive);
  EXPECT_EQ(interner.find(Loid{4, 1}), LoidInterner::kNoId);
  EXPECT_EQ(interner.find(Loid{4, next - 1}), fifo.back());
}

}  // namespace
}  // namespace legion
