// Dense-id interning for the packed core tables.
//
// Interner<Key> assigns each distinct key a dense uint32_t id (the
// fast-downward StateRegistry idea): long-lived references hold the 4-byte
// id, fat keys live exactly once in segmented storage, and every per-id
// payload becomes an array slot instead of a hash-map node. The index is
// open-addressing over a flat uint32_t slot array — probing touches ids,
// keys are only compared on a hash hit — so steady-state lookups and inserts
// perform no per-entry heap allocation.
//
// Unlike StateRegistry, entries can die: erase() gives the id back. Freed
// ids go on a free list that intern() drains first, last-freed first, so
// id assignment stays a deterministic function of the intern/erase history
// and the id range — and with it every per-id array — is bounded by the
// peak live population, not by the number of keys ever interned. Erase uses
// backward-shift deletion, so the slot array holds no tombstones and probe
// chains never lengthen under churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "base/segmented_vector.hpp"

namespace legion {

template <typename Key, typename Hash = std::hash<Key>>
class Interner {
 public:
  // The reserved "no such key" id; real ids are below id_bound().
  static constexpr std::uint32_t kNoId = 0xFFFFFFFFu;

  // Returns the id of `key`, assigning one on first sight: the most
  // recently freed id if any, else the next dense id.
  std::uint32_t intern(const Key& key) {
    grow_if_needed();
    const std::size_t slot = probe(key);
    if (slots_[slot] != kNoId) return slots_[slot];
    std::uint32_t id;
    if (free_ids_.empty()) {
      id = static_cast<std::uint32_t>(keys_.size());
      keys_.push_back(key);
    } else {
      id = free_ids_.back();
      free_ids_.pop_back();
      keys_[id] = key;
    }
    slots_[slot] = id;
    ++live_;
    return id;
  }

  // Returns the id of `key`, or kNoId without interning (the read path).
  [[nodiscard]] std::uint32_t find(const Key& key) const {
    if (slots_.empty()) return kNoId;
    return slots_[probe(key)];
  }

  // Forgets the key behind a live `id` and frees the id for reuse. The id's
  // key cell keeps its old value, now unreachable from the slot array, so
  // the intern() that reuses the id copy-assigns into the storage the key
  // already owns (a LOID's public-key bytes) instead of allocating anew.
  // What freed ids keep is bounded by id_bound() keys.
  void erase(std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = Hash{}(keys_[id]) & mask;
    while (slots_[hole] != id) hole = (hole + 1) & mask;
    // Backward shift: pull each later member of the probe run whose home
    // slot is not cyclically in (hole, i] back into the hole, so find()
    // never stops early at the emptied slot.
    for (std::size_t i = (hole + 1) & mask; slots_[i] != kNoId;
         i = (i + 1) & mask) {
      const std::size_t home = Hash{}(keys_[slots_[i]]) & mask;
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = kNoId;
    free_ids_.push_back(id);
    --live_;
  }

  // The key behind a live id (a freed id's cell holds a stale key).
  [[nodiscard]] const Key& key_of(std::uint32_t id) const { return keys_[id]; }
  // Live keys.
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  // One past the largest id ever assigned: the length per-id arrays need.
  [[nodiscard]] std::size_t id_bound() const { return keys_.size(); }

  void clear() {
    keys_.clear();
    slots_.clear();
    free_ids_.clear();
    live_ = 0;
  }

  [[nodiscard]] std::size_t allocated_bytes() const {
    return keys_.allocated_bytes() +
           (slots_.capacity() + free_ids_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  // Linear probing; returns the slot holding `key`'s id or the empty slot
  // where it would be inserted. slots_ is always a non-full power of two
  // when called (grow_if_needed guarantees a free slot).
  [[nodiscard]] std::size_t probe(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = Hash{}(key)&mask;
    while (slots_[i] != kNoId && !(keys_[slots_[i]] == key)) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      slots_.assign(kInitialSlots, kNoId);
      return;
    }
    // Rehash at 70% load: doubling keeps probe chains short and costs
    // O(log n) reallocations over a table's lifetime. The walk is over the
    // old slot array, not the id range: a freed id's stale key must not be
    // re-indexed.
    if ((live_ + 1) * 10 <= slots_.size() * 7) return;
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kNoId);
    const std::size_t mask = slots_.size() - 1;
    for (const std::uint32_t id : old) {
      if (id == kNoId) continue;
      std::size_t i = Hash{}(keys_[id]) & mask;
      while (slots_[i] != kNoId) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  static constexpr std::size_t kInitialSlots = 64;

  SegmentedVector<Key> keys_;             // indexed by id; freed ids hold stale keys
  std::vector<std::uint32_t> slots_;      // open addressing; kNoId == empty
  std::vector<std::uint32_t> free_ids_;   // reused LIFO by intern()
  std::size_t live_ = 0;
};

}  // namespace legion
