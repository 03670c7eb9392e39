// E16 — packed core tables hold millions of entries without per-entry heap
// nodes (ROADMAP "compact, cache-friendly core tables"; paper §3.7 / §4.1
// put the logical table and binding caches on the million-object hot path).
//
// Sweeps 10^4..10^7 entries through the dense-id LogicalTable and
// BindingCache and reports, per size:
//   bytes_per_object   structure residency (interner + segments) / entries —
//                      deterministic, computed from the containers' own
//                      accounting, excluding payload heap the caller owns.
//   *_allocs_per_1k    global operator-new invocations per 1000 operations,
//                      counted by overriding operator new in this binary.
//                      Fill shows O(entries / segment) segment allocation;
//                      steady-state refreshes show ~0: no per-entry nodes.
//   lookup/hit ns      wall-clock per lookup — machine-dependent, excluded
//                      from the CI shape gate by the two-run masking in
//                      scripts/check_bench_shapes.py; the claim (flat from
//                      10^4 to 10^7) is recorded in EXPERIMENTS.md.
//
// E16c holds a constant live population and runs create/delete churn
// through both tables (erase + upsert; invalidate + put) with instance
// LOIDs that carry an 8-byte public key, as ClassObjectImpl::make_key
// issues them. Deleted entries give their dense ids back, so residency
// after 10^6 cycles equals residency after the fill, and the tables' own
// churn work (the caller builds each row or binding first) allocates
// nothing: a reused id's key cell already owns a key buffer.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "base/rng.hpp"
#include "core/binding_cache.hpp"
#include "core/logical_table.hpp"
#include "sim/table.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace legion::bench {
namespace {

constexpr std::uint64_t kClassId = 7;
constexpr std::size_t kLookups = 1'000'000;

[[nodiscard]] double Ns(std::chrono::steady_clock::duration d,
                        std::size_t ops) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()) /
         static_cast<double>(ops);
}

void RunLogicalTable(sim::Table& out, std::size_t entries) {
  core::LogicalTable table;
  const std::uint64_t fill_start = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < entries; ++i) {
    core::TableRow row;
    row.loid = Loid{kClassId, i + 1};
    row.kind = core::RowKind::kInstance;
    table.upsert(std::move(row));
  }
  const std::uint64_t fill_allocs =
      g_allocs.load(std::memory_order_relaxed) - fill_start;

  Rng rng(17);
  std::uint64_t found = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    const Loid probe{kClassId, rng.below(entries) + 1};
    if (table.find(probe) != nullptr) ++found;
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  if (found != kLookups) std::abort();  // every probe names a live row

  out.row({sim::Table::num(static_cast<std::uint64_t>(entries)),
           sim::Table::num(static_cast<double>(table.allocated_bytes()) /
                               static_cast<double>(entries),
                           1),
           sim::Table::num(static_cast<double>(fill_allocs) * 1000.0 /
                               static_cast<double>(entries),
                           2),
           sim::Table::num(Ns(elapsed, kLookups), 3)});
}

[[nodiscard]] core::Binding MakeBinding(std::uint64_t n) {
  core::Binding b;
  b.loid = Loid{kClassId, n};
  b.address = core::ObjectAddress{core::ObjectAddressElement::Sim(EndpointId{n})};
  return b;
}

void RunBindingCache(sim::Table& out, std::size_t entries) {
  core::BindingCache cache(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    cache.put(MakeBinding(i + 1));
  }

  // Steady state: refresh existing entries with pre-built payloads, so the
  // only allocations the loop could perform are the cache's own. The packed
  // layout performs none.
  Rng rng(23);
  constexpr std::size_t kRefreshes = 100'000;
  std::vector<core::Binding> prebuilt;
  prebuilt.reserve(kRefreshes);
  for (std::size_t i = 0; i < kRefreshes; ++i) {
    prebuilt.push_back(MakeBinding(rng.below(entries) + 1));
  }
  const std::uint64_t steady_start = g_allocs.load(std::memory_order_relaxed);
  for (auto& binding : prebuilt) {
    cache.put(std::move(binding));
  }
  const std::uint64_t steady_allocs =
      g_allocs.load(std::memory_order_relaxed) - steady_start;

  std::uint64_t hits = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kLookups; ++i) {
    const Loid probe{kClassId, rng.below(entries) + 1};
    if (cache.get(probe, /*now=*/0).has_value()) ++hits;
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  if (hits != kLookups) std::abort();  // capacity == entries: no evictions

  out.row({sim::Table::num(static_cast<std::uint64_t>(entries)),
           sim::Table::num(static_cast<double>(cache.allocated_bytes()) /
                               static_cast<double>(entries),
                           1),
           sim::Table::num(static_cast<double>(steady_allocs) * 1000.0 /
                               static_cast<double>(kRefreshes),
                           2),
           sim::Table::num(Ns(elapsed, kLookups), 3)});
}

constexpr std::size_t kChurnLive = 10'000;
constexpr std::size_t kChurnCycles = 1'000'000;

[[nodiscard]] std::string PerLive(std::size_t bytes) {
  return sim::Table::num(
      static_cast<double>(bytes) / static_cast<double>(kChurnLive), 1);
}
[[nodiscard]] std::string PerThousand(std::uint64_t allocs) {
  return sim::Table::num(static_cast<double>(allocs) * 1000.0 /
                             static_cast<double>(kChurnCycles),
                         2);
}

// An instance LOID with a public key of the default instance_key_bytes (8).
[[nodiscard]] Loid KeyedLoid(std::uint64_t n) {
  std::vector<std::uint8_t> key(8);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(n >> (8 * i));
  }
  return Loid{kClassId, n, std::move(key)};
}

[[nodiscard]] core::TableRow KeyedRow(std::uint64_t n) {
  core::TableRow row;
  row.loid = KeyedLoid(n);
  row.kind = core::RowKind::kInstance;
  return row;
}

// One churn cycle deletes the oldest live object (LOIDs are sequential, so
// that is `next - kChurnLive`) and creates a new one. Only the tables' own
// allocations are counted: each row or binding is built (its key and
// address allocate) before the window opens.
void RunLogicalTableChurn(sim::Table& out) {
  core::LogicalTable table;
  std::uint64_t next = 1;
  for (; next <= kChurnLive; ++next) table.upsert(KeyedRow(next));
  const std::size_t fill_bytes = table.allocated_bytes();
  std::uint64_t allocs = 0;
  for (std::size_t i = 0; i < kChurnCycles; ++i, ++next) {
    core::TableRow row = KeyedRow(next);
    const std::uint64_t start = g_allocs.load(std::memory_order_relaxed);
    if (!table.erase(Loid{kClassId, next - kChurnLive})) std::abort();
    table.upsert(std::move(row));
    allocs += g_allocs.load(std::memory_order_relaxed) - start;
  }
  if (table.size() != kChurnLive) std::abort();
  out.row({"logical_table", sim::Table::num(std::uint64_t{kChurnLive}),
           sim::Table::num(std::uint64_t{kChurnCycles}), PerLive(fill_bytes),
           PerLive(table.allocated_bytes()), PerThousand(allocs)});
}

[[nodiscard]] core::Binding KeyedBinding(std::uint64_t n) {
  core::Binding b = MakeBinding(n);
  b.loid = KeyedLoid(n);
  return b;
}

void RunBindingCacheChurn(sim::Table& out) {
  core::BindingCache cache(kChurnLive);
  std::uint64_t next = 1;
  for (; next <= kChurnLive; ++next) cache.put(KeyedBinding(next));
  const std::size_t fill_bytes = cache.allocated_bytes();
  std::uint64_t allocs = 0;
  for (std::size_t i = 0; i < kChurnCycles; ++i, ++next) {
    core::Binding binding = KeyedBinding(next);
    const std::uint64_t start = g_allocs.load(std::memory_order_relaxed);
    if (!cache.invalidate(Loid{kClassId, next - kChurnLive})) std::abort();
    cache.put(std::move(binding));
    allocs += g_allocs.load(std::memory_order_relaxed) - start;
  }
  if (cache.size() != kChurnLive) std::abort();
  out.row({"binding_cache", sim::Table::num(std::uint64_t{kChurnLive}),
           sim::Table::num(std::uint64_t{kChurnCycles}), PerLive(fill_bytes),
           PerLive(cache.allocated_bytes()), PerThousand(allocs)});
}

void Run() {
  sim::Table logical(
      "E16a logical table density (dense ids + segmented rows)",
      {"entries", "bytes_per_object", "fill_allocs_per_1k", "lookup_ns"});
  sim::Table cache(
      "E16b binding cache density (intrusive uint32 LRU)",
      {"entries", "bytes_per_object", "steady_put_allocs_per_1k", "hit_ns"});
  for (const std::size_t entries :
       {std::size_t{10'000}, std::size_t{100'000}, std::size_t{1'000'000},
        std::size_t{10'000'000}}) {
    RunLogicalTable(logical, entries);
    RunBindingCache(cache, entries);
  }
  logical.print();
  cache.print();

  sim::Table churn(
      "E16c churn at constant population (deleted ids recycled)",
      {"structure", "live", "cycles", "fill_bytes_per_live",
       "churned_bytes_per_live", "churn_allocs_per_1k"});
  RunLogicalTableChurn(churn);
  RunBindingCacheChurn(churn);
  churn.print();
}

}  // namespace
}  // namespace legion::bench

int main() {
  legion::bench::Run();
  return 0;
}
