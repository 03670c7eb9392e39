#include "core/logical_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "base/rng.hpp"
#include "core/class_object.hpp"

namespace legion::core {
namespace {

TableRow MakeRow(std::uint64_t n, RowKind kind = RowKind::kInstance) {
  TableRow row;
  row.loid = Loid{9, n};
  row.kind = kind;
  row.current_magistrates = {Loid{3, 1}};
  row.checkpoint_path = "vault/" + std::to_string(n);
  return row;
}

TEST(LogicalTableTest, UpsertFindEraseRoundTrip) {
  LogicalTable t;
  t.upsert(MakeRow(1));
  t.upsert(MakeRow(2));
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(Loid{9, 1}), nullptr);
  EXPECT_EQ(t.find(Loid{9, 1})->checkpoint_path, "vault/1");
  EXPECT_EQ(t.find(Loid{9, 3}), nullptr);

  EXPECT_TRUE(t.erase(Loid{9, 1}));
  EXPECT_FALSE(t.erase(Loid{9, 1}));
  EXPECT_EQ(t.find(Loid{9, 1}), nullptr);
  EXPECT_EQ(t.size(), 1u);

  // Re-insertion after erase revives the row.
  t.upsert(MakeRow(1));
  ASSERT_NE(t.find(Loid{9, 1}), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(LogicalTableTest, UpsertReplacesInPlace) {
  LogicalTable t;
  t.upsert(MakeRow(5));
  TableRow* before = t.find(Loid{9, 5});
  TableRow replacement = MakeRow(5);
  replacement.checkpoint_path = "vault/replaced";
  t.upsert(std::move(replacement));
  EXPECT_EQ(t.size(), 1u);
  // Dense ids: the row keeps its slot, so the pointer stays stable.
  EXPECT_EQ(t.find(Loid{9, 5}), before);
  EXPECT_EQ(before->checkpoint_path, "vault/replaced");
}

TEST(LogicalTableTest, RowPointersStableAcrossGrowth) {
  LogicalTable t;
  t.upsert(MakeRow(1));
  const TableRow* first = t.find(Loid{9, 1});
  for (std::uint64_t n = 2; n <= 5000; ++n) t.upsert(MakeRow(n));
  EXPECT_EQ(t.find(Loid{9, 1}), first);  // segments never move
  EXPECT_EQ(first->checkpoint_path, "vault/1");
}

TEST(LogicalTableTest, LoidsAreInsertionOrderedAndDeterministic) {
  // SweepInstances probe order and sim traces follow loids(): the sequence
  // must be a function of the insertion history, not of hash-bucket layout.
  const std::vector<std::uint64_t> scrambled = {41, 7, 1000003, 2, 99, 13};
  LogicalTable t;
  for (const std::uint64_t n : scrambled) {
    t.upsert(MakeRow(n, n % 2 == 0 ? RowKind::kInstance : RowKind::kSubclass));
  }
  std::vector<Loid> expected;
  for (const std::uint64_t n : scrambled) expected.emplace_back(9, n);
  EXPECT_EQ(t.loids(), expected);

  // Erase + immediate re-insert moves the LOID nowhere: it takes back the
  // id it just freed (reuse is last-freed-first), so replay order survives
  // row churn.
  t.erase(Loid{9, 7});
  t.upsert(MakeRow(7, RowKind::kSubclass));
  EXPECT_EQ(t.loids(), expected);

  std::vector<Loid> instances;
  for (const std::uint64_t n : scrambled) {
    if (n % 2 == 0) instances.emplace_back(9, n);
  }
  EXPECT_EQ(t.loids(RowKind::kInstance), instances);
}

TEST(LogicalTableTest, SerializeRoundTripsAllFields) {
  LogicalTable t;
  for (std::uint64_t n = 1; n <= 40; ++n) {
    t.upsert(MakeRow(n, static_cast<RowKind>(n % 3)));
  }
  t.erase(Loid{9, 20});

  Buffer bytes;
  Writer w(bytes);
  t.Serialize(w);
  Reader r(bytes);
  LogicalTable back = LogicalTable::Deserialize(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(back.size(), t.size());
  EXPECT_EQ(back.loids(), t.loids());
  EXPECT_EQ(back.find(Loid{9, 20}), nullptr);
  ASSERT_NE(back.find(Loid{9, 3}), nullptr);
  EXPECT_EQ(back.find(Loid{9, 3})->checkpoint_path, "vault/3");
}

TEST(LogicalTableTest, EveryTruncationFailsTheReader) {
  // The satellite bug: a stream cut mid-row used to deserialize into a
  // silently shorter table. Any proper prefix must now leave the reader
  // failed — there is no byte at which a truncated table reads clean.
  LogicalTable t;
  for (std::uint64_t n = 1; n <= 8; ++n) t.upsert(MakeRow(n));
  Buffer bytes;
  Writer w(bytes);
  t.Serialize(w);

  const auto full = bytes.span();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(full.subspan(0, cut));
    (void)LogicalTable::Deserialize(r);
    EXPECT_FALSE(r.ok()) << "prefix of " << cut << " bytes read clean";
  }
  Reader whole(full);
  (void)LogicalTable::Deserialize(whole);
  EXPECT_TRUE(whole.ok());
}

TEST(LogicalTableTest, HostileRowCountFailsInsteadOfTruncating) {
  Buffer bytes;
  Writer w(bytes);
  w.u32(1'000'000);  // claims a million rows, provides none
  Reader r(bytes);
  LogicalTable t = LogicalTable::Deserialize(r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(t.size(), 0u);
}

TEST(LogicalTableTest, OutOfRangeEnumBytesFailTheReader) {
  // Untrusted bytes never become an invalid RowKind or Mode.
  // The kind byte follows the LOID: patch it in a serialized row.
  auto row_with_kind = [](std::uint8_t kind) {
    Buffer loid_bytes, row_bytes;
    Writer lw(loid_bytes), rw(row_bytes);
    Loid{9, 1}.Serialize(lw);
    MakeRow(1).Serialize(rw);
    std::vector<std::uint8_t> bytes(row_bytes.span().begin(),
                                    row_bytes.span().end());
    bytes[loid_bytes.span().size()] = kind;
    return bytes;
  };
  const std::vector<std::uint8_t> good_row = row_with_kind(2);
  Reader good{std::span<const std::uint8_t>(good_row)};
  EXPECT_EQ(TableRow::Deserialize(good).kind, RowKind::kRegistered);
  EXPECT_TRUE(good.ok());
  const std::vector<std::uint8_t> bad_row = row_with_kind(3);
  Reader bad{std::span<const std::uint8_t>(bad_row)};
  (void)TableRow::Deserialize(bad);
  EXPECT_FALSE(bad.ok());

  auto candidates_with_mode = [](std::uint8_t mode) {
    Buffer bytes;
    Writer w(bytes);
    w.u8(mode);
    WriteVector(w, std::vector<Loid>{Loid{3, 1}});
    return bytes;
  };
  const Buffer good_mode = candidates_with_mode(1);
  Reader good_c(good_mode);
  EXPECT_EQ(CandidateMagistrates::Deserialize(good_c).mode,
            CandidateMagistrates::Mode::kExplicit);
  EXPECT_TRUE(good_c.ok());
  const Buffer bad_mode = candidates_with_mode(2);
  Reader bad_c(bad_mode);
  (void)CandidateMagistrates::Deserialize(bad_c);
  EXPECT_FALSE(bad_c.ok());
}

TEST(LogicalTableTest, ErasedIdGoesToTheNextNewLoid) {
  // loids() is id order: a new LOID takes the most recently erased id, and
  // with it that row's place in the walk.
  LogicalTable t;
  for (std::uint64_t n = 1; n <= 4; ++n) t.upsert(MakeRow(n));
  EXPECT_TRUE(t.erase(Loid{9, 2}));
  t.upsert(MakeRow(50));
  EXPECT_EQ(t.loids(), (std::vector<Loid>{Loid{9, 1}, Loid{9, 50}, Loid{9, 3},
                                          Loid{9, 4}}));
  EXPECT_EQ(t.find(Loid{9, 2}), nullptr);
  ASSERT_NE(t.find(Loid{9, 50}), nullptr);
  EXPECT_EQ(t.find(Loid{9, 50})->checkpoint_path, "vault/50");
}

TEST(LogicalTableTest, ChurnKeepsAllocatedBytesFlat) {
  // A constant live population under create/delete churn: every new row
  // reuses an erased row's id and slot, so once the first cycles have
  // sized the interner's free list the table stops growing.
  LogicalTable t;
  std::deque<std::uint64_t> fifo;
  std::uint64_t next = 1;
  for (; next <= 1000; ++next) {
    t.upsert(MakeRow(next));
    fifo.push_back(next);
  }
  auto churn = [&](int cycles) {
    for (int cycle = 0; cycle < cycles; ++cycle, ++next) {
      ASSERT_TRUE(t.erase(Loid{9, fifo.front()}));
      fifo.pop_front();
      t.upsert(MakeRow(next));
      fifo.push_back(next);
    }
  };
  churn(1000);
  const std::size_t steady = t.allocated_bytes();
  churn(50'000);
  EXPECT_EQ(t.allocated_bytes(), steady);
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_EQ(t.loids().size(), 1000u);
}

TEST(LogicalTableTest, ReplaysOfOneHistoryAreIdentical) {
  // loids() and Serialize() are functions of the upsert/erase history: two
  // tables fed the same seeded history agree byte for byte.
  auto replay = [] {
    LogicalTable t;
    Rng rng(1996);
    for (int step = 0; step < 5000; ++step) {
      const std::uint64_t n = 1 + rng.below(400);
      if (rng.chance(0.6)) {
        t.upsert(MakeRow(n, static_cast<RowKind>(n % 3)));
      } else {
        (void)t.erase(Loid{9, n});
      }
    }
    return t;
  };
  const LogicalTable a = replay();
  const LogicalTable b = replay();
  EXPECT_EQ(a.loids(), b.loids());
  EXPECT_EQ(a.loids(RowKind::kSubclass), b.loids(RowKind::kSubclass));
  Buffer bytes_a, bytes_b;
  Writer wa(bytes_a), wb(bytes_b);
  a.Serialize(wa);
  b.Serialize(wb);
  ASSERT_EQ(bytes_a.span().size(), bytes_b.span().size());
  EXPECT_TRUE(std::equal(bytes_a.span().begin(), bytes_a.span().end(),
                         bytes_b.span().begin()));
  EXPECT_GT(a.size(), 0u);
}

class ClassStateRestoreTest : public ::testing::Test {
 protected:
  static ClassDefinition MakeDef() {
    ClassDefinition def;
    def.class_id = 9;
    def.name = "Worker";
    def.instance_impl = "worker";
    return def;
  }
};

TEST_F(ClassStateRestoreTest, TruncatedCheckpointIsAnErrorNotAShorterTable) {
  ClassObjectImpl source(MakeDef());
  for (std::uint64_t n = 1; n <= 6; ++n) source.table().upsert(MakeRow(n));
  Buffer bytes;
  Writer w(bytes);
  source.SaveState(w);

  // Compute where the definition ends: a def-only stream is the legitimate
  // Derive() layout, so truncation testing starts one byte past it.
  Buffer def_only;
  Writer dw(def_only);
  source.definition().Serialize(dw);
  const std::size_t def_size = def_only.span().size();

  const auto full = bytes.span();
  std::size_t failures = 0;
  for (std::size_t cut = def_size + 1; cut < full.size(); ++cut) {
    ClassObjectImpl restored;
    Reader r(full.subspan(0, cut));
    if (!restored.RestoreState(r).ok()) ++failures;
  }
  // Every strictly-partial checkpoint beyond the definition must fail.
  EXPECT_EQ(failures, full.size() - def_size - 1);

  ClassObjectImpl restored;
  Reader whole(full);
  ASSERT_TRUE(restored.RestoreState(whole).ok());
  EXPECT_EQ(restored.table().size(), 6u);
  EXPECT_EQ(restored.table().loids(), source.table().loids());
}

TEST_F(ClassStateRestoreTest, DefinitionOnlyStreamIsAFreshClass) {
  // Derive() ships a definition with no table/counters; that layout must
  // keep restoring as an empty class, not as a truncation error.
  Buffer bytes;
  Writer w(bytes);
  MakeDef().Serialize(w);
  ClassObjectImpl restored;
  Reader r(bytes);
  ASSERT_TRUE(restored.RestoreState(r).ok());
  EXPECT_EQ(restored.table().size(), 0u);
  EXPECT_EQ(restored.definition().name, "Worker");
}

}  // namespace
}  // namespace legion::core
