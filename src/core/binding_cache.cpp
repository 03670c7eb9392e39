#include "core/binding_cache.hpp"

namespace legion::core {

namespace {
void Bump(obs::Counter* counter) {
  if (counter != nullptr) counter->inc();
}
}  // namespace

void BindingCache::bind_metrics(obs::Registry& registry) {
  base::MutexLock lock(mutex_);
  agg_hits_ = &registry.counter("binding_cache.hits");
  agg_misses_ = &registry.counter("binding_cache.misses");
  agg_evictions_ = &registry.counter("binding_cache.evictions");
  agg_invalidations_ = &registry.counter("binding_cache.invalidations");
}

std::uint32_t BindingCache::intern_slot(const Loid& loid) {
  const std::uint32_t id = ids_.intern(loid);
  if (slots_.size() < ids_.id_bound()) slots_.resize(ids_.id_bound());
  return id;
}

void BindingCache::release_if_empty(std::uint32_t id) {
  if (slots_[id].flags == 0) ids_.erase(id);
}

void BindingCache::lru_link_front(std::uint32_t id) {
  Slot& slot = slots_[id];
  slot.lru_prev = kNil;
  slot.lru_next = lru_head_;
  if (lru_head_ != kNil) slots_[lru_head_].lru_prev = id;
  lru_head_ = id;
  if (lru_tail_ == kNil) lru_tail_ = id;
}

void BindingCache::lru_unlink(std::uint32_t id) {
  Slot& slot = slots_[id];
  if (slot.lru_prev != kNil) {
    slots_[slot.lru_prev].lru_next = slot.lru_next;
  } else {
    lru_head_ = slot.lru_next;
  }
  if (slot.lru_next != kNil) {
    slots_[slot.lru_next].lru_prev = slot.lru_prev;
  } else {
    lru_tail_ = slot.lru_prev;
  }
  slot.lru_prev = slot.lru_next = kNil;
}

void BindingCache::neg_link_back(std::uint32_t id) {
  Slot& slot = slots_[id];
  slot.neg_next = kNil;
  slot.neg_prev = neg_tail_;
  if (neg_tail_ != kNil) slots_[neg_tail_].neg_next = id;
  neg_tail_ = id;
  if (neg_head_ == kNil) neg_head_ = id;
}

void BindingCache::neg_unlink(std::uint32_t id) {
  Slot& slot = slots_[id];
  if (slot.neg_prev != kNil) {
    slots_[slot.neg_prev].neg_next = slot.neg_next;
  } else {
    neg_head_ = slot.neg_next;
  }
  if (slot.neg_next != kNil) {
    slots_[slot.neg_next].neg_prev = slot.neg_prev;
  } else {
    neg_tail_ = slot.neg_prev;
  }
  slot.neg_prev = slot.neg_next = kNil;
}

void BindingCache::drop_positive(std::uint32_t id) {
  lru_unlink(id);
  Slot& slot = slots_[id];
  slot.flags &= static_cast<std::uint8_t>(~kPositive);
  slot.binding = Binding{};  // release the payload's heap state
  --size_;
  release_if_empty(id);
}

void BindingCache::drop_negative(std::uint32_t id) {
  neg_unlink(id);
  slots_[id].flags &= static_cast<std::uint8_t>(~kNegative);
  --negative_size_;
  release_if_empty(id);
}

void BindingCache::drop_contents() {
  ids_.clear();
  slots_.clear();
  lru_head_ = lru_tail_ = neg_head_ = neg_tail_ = kNil;
  size_ = negative_size_ = 0;
}

std::optional<Binding> BindingCache::get(const Loid& loid, SimTime now) {
  base::MutexLock lock(mutex_);
  const std::uint32_t id = ids_.find(loid);
  if (id == LoidInterner::kNoId || (slots_[id].flags & kPositive) == 0) {
    ++stats_.misses;
    Bump(agg_misses_);
    return std::nullopt;
  }
  if (slots_[id].binding.expired_at(now)) {
    // Expired entries are misses *and* are removed so they cannot be
    // resurrected by a later lookup at an earlier virtual time.
    drop_positive(id);
    ++stats_.misses;
    Bump(agg_misses_);
    return std::nullopt;
  }
  if (id != lru_head_) {
    lru_unlink(id);
    lru_link_front(id);
  }
  ++stats_.hits;
  Bump(agg_hits_);
  return slots_[id].binding;
}

void BindingCache::put_negative(const Loid& loid, SimTime expires_at) {
  base::MutexLock lock(mutex_);
  if (capacity_ == 0) return;
  std::uint32_t id = ids_.find(loid);
  if (id != LoidInterner::kNoId && (slots_[id].flags & kNegative) != 0) {
    slots_[id].neg_expires = expires_at;
    return;
  }
  // Make room before interning, so the cache never holds more than
  // 2 x capacity ids. The drops cannot free `id`: it is not negative.
  if (negative_size_ >= capacity_) {
    // Full: drop entries expiring no later than the incoming one; if all
    // survive, sacrifice the oldest — a negative entry only saves a
    // consult, so losing one is merely a missed optimization.
    for (std::uint32_t n = neg_head_; n != kNil;) {
      const std::uint32_t next = slots_[n].neg_next;
      if (slots_[n].neg_expires <= expires_at) drop_negative(n);
      n = next;
    }
    if (negative_size_ >= capacity_) drop_negative(neg_head_);
  }
  if (id == LoidInterner::kNoId) id = intern_slot(loid);
  slots_[id].neg_expires = expires_at;
  slots_[id].flags |= kNegative;
  neg_link_back(id);
  ++negative_size_;
}

bool BindingCache::negative(const Loid& loid, SimTime now) {
  base::MutexLock lock(mutex_);
  const std::uint32_t id = ids_.find(loid);
  if (id == LoidInterner::kNoId || (slots_[id].flags & kNegative) == 0) {
    return false;
  }
  if (slots_[id].neg_expires <= now) {
    drop_negative(id);
    return false;
  }
  return true;
}

void BindingCache::put(Binding binding) {
  base::MutexLock lock(mutex_);
  if (capacity_ == 0 || !binding.valid()) return;
  std::uint32_t id = ids_.find(binding.loid);
  if (id != LoidInterner::kNoId && (slots_[id].flags & kPositive) != 0) {
    lru_unlink(id);
  } else {
    // Evict before interning, as in put_negative(); the victim is
    // positive, so it is never `id`.
    if (size_ >= capacity_) {
      drop_positive(lru_tail_);
      ++stats_.evictions;
      Bump(agg_evictions_);
    }
    if (id == LoidInterner::kNoId) id = intern_slot(binding.loid);
    slots_[id].flags |= kPositive;
    ++size_;
  }
  slots_[id].binding = std::move(binding);
  lru_link_front(id);
  // The real binding supersedes a negative entry. Dropping it only now,
  // with kPositive already set, keeps the slot's id interned.
  if ((slots_[id].flags & kNegative) != 0) drop_negative(id);
}

bool BindingCache::invalidate(const Loid& loid) {
  base::MutexLock lock(mutex_);
  const std::uint32_t id = ids_.find(loid);
  if (id == LoidInterner::kNoId) return false;
  // "Drop whatever is cached" covers both polarities.
  if ((slots_[id].flags & kNegative) != 0) drop_negative(id);
  if ((slots_[id].flags & kPositive) == 0) return false;
  drop_positive(id);
  ++stats_.invalidations;
  Bump(agg_invalidations_);
  return true;
}

bool BindingCache::invalidate_exact(const Binding& binding) {
  base::MutexLock lock(mutex_);
  const std::uint32_t id = ids_.find(binding.loid);
  if (id == LoidInterner::kNoId || (slots_[id].flags & kPositive) == 0 ||
      !(slots_[id].binding == binding)) {
    return false;
  }
  drop_positive(id);
  ++stats_.invalidations;
  Bump(agg_invalidations_);
  return true;
}

void BindingCache::clear() {
  base::MutexLock lock(mutex_);
  drop_contents();
}

bool BindingCache::consistent() const {
  base::MutexLock lock(mutex_);
  // Walk the LRU list: every node positive, back-pointers intact, count
  // matching size_ (the count guard also catches accidental cycles).
  std::size_t seen = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t id = lru_head_; id != kNil; id = slots_[id].lru_next) {
    if (seen++ > size_) return false;
    if ((slots_[id].flags & kPositive) == 0) return false;
    if (slots_[id].lru_prev != prev) return false;
    prev = id;
  }
  if (seen != size_ || lru_tail_ != prev) return false;

  seen = 0;
  prev = kNil;
  for (std::uint32_t id = neg_head_; id != kNil; id = slots_[id].neg_next) {
    if (seen++ > negative_size_) return false;
    if ((slots_[id].flags & kNegative) == 0) return false;
    if (slots_[id].neg_prev != prev) return false;
    prev = id;
  }
  if (seen != negative_size_ || neg_tail_ != prev) return false;

  // No flagged slot may be missing from its list, every flagged slot's id
  // must be interned to it, and the interner may hold no other id (the
  // counts match): a slot keeps its id exactly while it holds an entry.
  std::size_t positives = 0, negatives = 0, flagged = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    const std::uint8_t flags = slots_[id].flags;
    if ((flags & kPositive) != 0) ++positives;
    if ((flags & kNegative) != 0) ++negatives;
    if (flags == 0) continue;
    ++flagged;
    if (ids_.find(ids_.key_of(static_cast<std::uint32_t>(id))) != id) {
      return false;
    }
  }
  if (positives != size_ || negatives != negative_size_) return false;
  return flagged == ids_.size() && size_ <= capacity_ &&
         negative_size_ <= capacity_ && slots_.size() == ids_.id_bound();
}

}  // namespace legion::core
