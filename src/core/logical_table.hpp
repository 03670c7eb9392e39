// The class object's logical table, paper Section 3.7 / Figure 16.
//
// One row per object the class created (instance or subclass), with the
// paper's five fields: LOID, Object Address (NIL when Inert or unknown),
// Current Magistrate List, Scheduling Agent, and Candidate Magistrate List.
// Registered rows additionally cover bootstrap components (host objects,
// magistrates, binding agents) that "contact their class" on startup
// (Section 4.2.1).
//
// Storage layout: LOIDs are interned to dense uint32_t ids; rows live in
// one segmented slot array indexed by id (no per-row heap node), with a
// parallel liveness column. erase() gives the row's id back to the
// interner, which hands it to the next new LOID, so the table's storage is
// bounded by its peak live population, not by every object it ever created.
// find() returns pointers directly into the segments — segments never
// move, but a pointer is only good until its row is erased: the slot may
// then hold another LOID's row. A handler that makes a nested call (during
// which re-entrant service may erase rows) must find() its row again
// afterwards. Iteration (loids(), Serialize()) walks ids in order, so probe
// sequences and serialized bytes are deterministic functions of the
// upsert/erase history, not unordered_map artifacts.
//
// Externally synchronized — deliberately lock-free. A logical table is
// owned by exactly one class object, and every mutation or read happens in
// that object's dispatch context (active objects process one invocation at
// a time). There is no mutex here; do not share a LogicalTable across
// contexts. See DESIGN.md "Concurrency discipline".
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/loid.hpp"
#include "base/segmented_vector.hpp"
#include "core/object_address.hpp"

namespace legion::core {

enum class RowKind : std::uint8_t {
  kInstance = 0,   // created via Create()
  kSubclass = 1,   // created via Derive()
  kRegistered = 2, // bootstrap component that registered itself
};

// Candidate Magistrate List: "this field could be implemented as a simple
// list, but more likely it will need to encapsulate more sophisticated
// information, such as 'no restriction'".
struct CandidateMagistrates {
  enum class Mode : std::uint8_t { kNoRestriction = 0, kExplicit = 1 };
  Mode mode = Mode::kNoRestriction;
  std::vector<Loid> magistrates;

  [[nodiscard]] bool permits(const Loid& magistrate) const {
    if (mode == Mode::kNoRestriction) return true;
    for (const Loid& m : magistrates) {
      if (m == magistrate) return true;
    }
    return false;
  }

  void Serialize(Writer& w) const {
    w.u8(static_cast<std::uint8_t>(mode));
    WriteVector(w, magistrates);
  }
  static CandidateMagistrates Deserialize(Reader& r) {
    CandidateMagistrates c;
    const std::uint8_t mode = r.u8();
    if (mode > static_cast<std::uint8_t>(Mode::kExplicit)) r.mark_failed();
    c.mode = static_cast<Mode>(mode);
    c.magistrates = ReadVector<Loid>(r);
    return c;
  }
};

struct TableRow {
  Loid loid;
  RowKind kind = RowKind::kInstance;
  ObjectAddress address;                 // invalid == the paper's NIL
  std::vector<Loid> current_magistrates; // who holds / can produce the OPR
  Loid scheduling_agent;
  CandidateMagistrates candidates;
  // Failure-detection bookkeeping: the Host Object the activation was placed
  // on (the probe target of SweepInstances) and the vault location of the
  // object's last OPR checkpoint at its current magistrate. Invalid / zero
  // while the object is Inert or unplaced.
  Loid placed_host;
  std::uint32_t checkpoint_disk = 0;
  std::string checkpoint_path;

  void clear_placement() {
    placed_host = Loid{};
    checkpoint_disk = 0;
    checkpoint_path.clear();
  }

  void Serialize(Writer& w) const {
    loid.Serialize(w);
    w.u8(static_cast<std::uint8_t>(kind));
    address.Serialize(w);
    WriteVector(w, current_magistrates);
    scheduling_agent.Serialize(w);
    candidates.Serialize(w);
    placed_host.Serialize(w);
    w.u32(checkpoint_disk);
    w.str(checkpoint_path);
  }
  static TableRow Deserialize(Reader& r) {
    TableRow row;
    row.loid = Loid::Deserialize(r);
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(RowKind::kRegistered)) r.mark_failed();
    row.kind = static_cast<RowKind>(kind);
    row.address = ObjectAddress::Deserialize(r);
    row.current_magistrates = ReadVector<Loid>(r);
    row.scheduling_agent = Loid::Deserialize(r);
    row.candidates = CandidateMagistrates::Deserialize(r);
    row.placed_host = Loid::Deserialize(r);
    row.checkpoint_disk = r.u32();
    row.checkpoint_path = r.str();
    return row;
  }
};

class LogicalTable {
 public:
  void upsert(TableRow row) {
    const std::uint32_t id = ids_.intern(row.loid);
    if (rows_.size() < ids_.id_bound()) {
      rows_.resize(ids_.id_bound());
      live_.resize(ids_.id_bound());
    }
    rows_[id] = std::move(row);
    live_[id] = 1;
  }

  bool erase(const Loid& loid) {
    const std::uint32_t id = ids_.find(loid);
    if (id == LoidInterner::kNoId) return false;
    live_[id] = 0;
    rows_[id] = TableRow{};  // release the row's heap state
    ids_.erase(id);          // and the id, for the next new LOID
    return true;
  }

  [[nodiscard]] TableRow* find(const Loid& loid) {
    const std::uint32_t id = ids_.find(loid);
    return id == LoidInterner::kNoId ? nullptr : &rows_[id];
  }
  [[nodiscard]] const TableRow* find(const Loid& loid) const {
    const std::uint32_t id = ids_.find(loid);
    return id == LoidInterner::kNoId ? nullptr : &rows_[id];
  }

  [[nodiscard]] std::size_t size() const { return ids_.size(); }

  // Live LOIDs in id order — deterministic, so SweepInstances probe order
  // and sim traces replay identically run to run. The walk covers ids up to
  // the peak live population, not every LOID the table ever held.
  [[nodiscard]] std::vector<Loid> loids(
      std::optional<RowKind> kind = std::nullopt) const {
    std::vector<Loid> out;
    out.reserve(ids_.size());
    for (std::size_t id = 0; id < rows_.size(); ++id) {
      if (live_[id] == 0) continue;
      if (!kind || rows_[id].kind == *kind) out.push_back(rows_[id].loid);
    }
    return out;
  }

  // Allocation accounting for bench_memory_per_object.
  [[nodiscard]] std::size_t allocated_bytes() const {
    return ids_.allocated_bytes() + rows_.allocated_bytes() +
           live_.allocated_bytes();
  }

  void Serialize(Writer& w) const {
    w.u32(static_cast<std::uint32_t>(ids_.size()));
    for (std::size_t id = 0; id < rows_.size(); ++id) {
      if (live_[id] != 0) rows_[id].Serialize(w);
    }
  }
  // A short or corrupt stream leaves `r` failed (its sticky flag) and the
  // returned table partial: callers MUST check r.ok() before trusting the
  // result, or a truncated OPR/checkpoint silently restores fewer rows.
  static LogicalTable Deserialize(Reader& r) {
    LogicalTable t;
    const std::uint32_t n = r.u32();
    // Each row consumes >= 1 byte: a count beyond the remaining bytes is
    // structurally impossible, so fail the stream up front.
    if (r.ok() && n > r.remaining()) r.mark_failed();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      TableRow row = TableRow::Deserialize(r);
      if (r.ok()) t.upsert(std::move(row));
    }
    return t;
  }

 private:
  // An id is interned exactly while its row is live; live_ marks the same
  // thing per slot, for the id-order walks that must skip freed ids.
  LoidInterner ids_;
  SegmentedVector<TableRow> rows_;       // one slot per id
  SegmentedVector<std::uint8_t> live_;   // 1 == row present
};

}  // namespace legion::core
