// Copyright 2026 The kwsc Authors. Licensed under the Apache License 2.0.
//
// Minimal open-addressing hash containers for integral keys.
//
// Linear-probing tables with power-of-two capacities and a strong 64-bit
// mixer: O(1) expected probes. They serve build-time scratch (the
// directory builder's keyword counts and tuple deduplication), the
// vocabulary, the workload generator and the baselines; the stored
// secondary structures T_u are sorted arrays instead (DESIGN.md,
// substitutions 2 and 4). The containers are insert-only, which keeps the
// implementation free of tombstones.

#ifndef KWSC_COMMON_FLAT_HASH_H_
#define KWSC_COMMON_FLAT_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"

namespace kwsc {

namespace internal_flat_hash {

/// Smallest power of two >= max(8, 2 * n), so load factor stays <= 0.5 after
/// reserving for n elements.
inline size_t TableCapacityFor(size_t n) {
  size_t cap = 8;
  while (cap < 2 * n) cap <<= 1;
  return cap;
}

/// Widens a key to 64 bits without sign-extension: a negative signed key
/// must hash by its bit pattern, not by its sign-extended value.
template <typename Key>
uint64_t KeyBits(Key key) {
  return static_cast<uint64_t>(
      static_cast<std::make_unsigned_t<Key>>(key));
}

/// The linear-probing table both containers are: a slot is the key itself
/// (set) or a key-value pair (map), and a byte per slot marks it used.
template <typename Key, typename Slot>
class Table {
 public:
  /// Pre-sizes the table for `n` insertions (optional but avoids rehashing).
  void Reserve(size_t n) {
    const size_t cap = TableCapacityFor(n);
    if (cap > slots_.size()) Rehash(cap);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool Contains(Key key) const { return FindSlot(key) != nullptr; }

  /// Removes all entries. Keeps the allocated capacity when occupancy is
  /// reasonable, but shrinks the probe range when the last batch filled less
  /// than 1/8 of the table: a scratch table reused across batches of
  /// shrinking size (e.g. one DirectoryBuilder walking a whole kd-tree)
  /// would otherwise keep its largest batch's capacity forever, making every
  /// later Clear and ForEach pay O(max capacity) instead of O(batch).
  void Clear() {
    if (slots_.size() > 64 && 8 * size_ < slots_.size()) {
      const size_t cap = TableCapacityFor(2 * size_);
      slots_.assign(cap, {});
      used_.assign(cap, 0);
      mask_ = cap - 1;
      size_ = 0;
      return;
    }
    std::fill(used_.begin(), used_.end(), 0);
    size_ = 0;
  }

  /// Heap bytes held by the table (for the space benchmarks).
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) + used_.capacity();
  }

 protected:
  static const Key& KeyOf(const Slot& slot) {
    if constexpr (std::is_same_v<Slot, Key>) {
      return slot;
    } else {
      return slot.first;
    }
  }

  /// The slot holding `key`, inserting a fresh one (a map's value
  /// value-initialized) when absent; `*inserted` says which.
  Slot& InsertSlot(Key key, bool* inserted) {
    if (KWSC_PREDICT_FALSE(slots_.empty() || 2 * (size_ + 1) > slots_.size())) {
      Rehash(TableCapacityFor(size_ + 1));
    }
    const size_t i = Probe(key);
    *inserted = !used_[i];
    if (*inserted) {
      used_[i] = 1;
      if constexpr (std::is_same_v<Slot, Key>) {
        slots_[i] = key;
      } else {
        slots_[i] = Slot{key, {}};
      }
      ++size_;
    }
    return slots_[i];
  }

  /// The slot holding `key`, or nullptr.
  const Slot* FindSlot(Key key) const {
    if (slots_.empty()) return nullptr;
    const size_t i = Probe(key);
    return used_[i] ? &slots_[i] : nullptr;
  }

  template <typename Fn>
  void ForEachSlot(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (used_[i]) fn(slots_[i]);
    }
  }

 private:
  /// The slot holding `key`, or the empty slot that ends its probe run.
  size_t Probe(Key key) const {
    size_t i = static_cast<size_t>(Mix64(KeyBits(key))) & mask_;
    while (used_[i] && KeyOf(slots_[i]) != key) i = (i + 1) & mask_;
    return i;
  }

  void Rehash(size_t new_cap) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_used = std::move(used_);
    slots_.assign(new_cap, {});
    used_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_used[i]) continue;
      const size_t j = Probe(KeyOf(old_slots[i]));
      used_[j] = 1;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> used_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace internal_flat_hash

/// Insert-only hash map from an integral key to a value.
template <typename Key, typename Value>
class FlatHashMap
    : public internal_flat_hash::Table<Key, std::pair<Key, Value>> {
 public:
  /// Inserts `key` if absent and returns a reference to its value slot.
  Value& operator[](Key key) {
    bool inserted;
    return this->InsertSlot(key, &inserted).second;
  }

  /// Returns a pointer to the value for `key`, or nullptr if absent.
  const Value* Find(Key key) const {
    const auto* slot = this->FindSlot(key);
    return slot == nullptr ? nullptr : &slot->second;
  }

  Value* Find(Key key) {
    return const_cast<Value*>(static_cast<const FlatHashMap*>(this)->Find(key));
  }

  /// Invokes `fn(key, value)` for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    this->ForEachSlot([&fn](const auto& slot) { fn(slot.first, slot.second); });
  }
};

/// Insert-only hash set of integral keys.
template <typename Key>
class FlatHashSet : public internal_flat_hash::Table<Key, Key> {
 public:
  /// Inserts `key`; returns true if it was newly added.
  bool Insert(Key key) {
    bool inserted;
    this->InsertSlot(key, &inserted);
    return inserted;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    this->ForEachSlot(fn);
  }
};

}  // namespace kwsc

#endif  // KWSC_COMMON_FLAT_HASH_H_
