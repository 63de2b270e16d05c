#pragma once

/// \file flat_hash_table.h
/// \brief Open-addressing hash map from uint64 keys to uint32 values.
///
/// The banding index maps band keys (64-bit hashes of r signature rows) to
/// dense bucket ids. std::unordered_map's node allocations dominate build
/// time at that fan-in, so this is a flat, linear-probing, power-of-two
/// table in the spirit of the Swiss/F14 tables used across database
/// engines. Insert-only (the index never deletes), which keeps probing
/// tombstone-free.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace lshclust {

/// \brief Insert-only flat hash map: uint64 -> uint32.
class FlatHashMap64 {
 public:
  /// \param expected_entries sizing hint; the table grows automatically
  explicit FlatHashMap64(size_t expected_entries = 0) {
    Rehash(CapacityFor(expected_entries));
  }

  /// Number of stored entries.
  size_t size() const { return size_; }

  /// Current slot count (power of two).
  size_t capacity() const { return keys_.size(); }

  /// Pre-sizes the table for `expected_entries` insertions.
  void Reserve(size_t expected_entries) {
    const size_t needed = CapacityFor(expected_entries);
    if (needed > keys_.size()) Rehash(needed);
  }

  /// Rehashes into CapacityFor(size()) slots when the table has more,
  /// e.g. after a Reserve for far more keys than were inserted.
  void ShrinkToFit() {
    const size_t fitted = CapacityFor(size_);
    if (fitted < keys_.size()) Rehash(fitted);
  }

  /// Slot count for `entries` entries: the smallest power of two, at least
  /// 16, that keeps the load factor under 0.7.
  static size_t CapacityFor(size_t entries) {
    size_t capacity = 16;
    while (capacity * 7 < entries * 10) capacity *= 2;
    return capacity;
  }

  /// Removes all entries, keeping the current capacity.
  void Clear() {
    std::fill(occupied_.begin(), occupied_.end(), 0);
    size_ = 0;
  }

  /// Returns a pointer to the value slot of `key`, inserting it with
  /// `initial` when absent. The pointer is invalidated by the next insert.
  uint32_t* FindOrInsert(uint64_t key, uint32_t initial) {
    if ((size_ + 1) * 10 >= keys_.size() * 7) {  // load factor 0.7
      Rehash(keys_.size() * 2);
    }
    size_t slot = Probe(key);
    if (!occupied_[slot]) {
      occupied_[slot] = 1;
      keys_[slot] = key;
      values_[slot] = initial;
      ++size_;
    }
    return &values_[slot];
  }

  /// Returns a pointer to the value of `key`, or nullptr when absent.
  const uint32_t* Find(uint64_t key) const {
    const size_t slot = Probe(key);
    return occupied_[slot] ? &values_[slot] : nullptr;
  }

  /// Calls `fn(key, value)` for every entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t slot = 0; slot < keys_.size(); ++slot) {
      if (occupied_[slot]) fn(keys_[slot], values_[slot]);
    }
  }

 private:
  /// Returns the slot of `key` or the first empty slot of its probe chain.
  size_t Probe(uint64_t key) const {
    const size_t mask = keys_.size() - 1;
    size_t slot = static_cast<size_t>(Mix64(key)) & mask;
    while (occupied_[slot] && keys_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void Rehash(size_t new_capacity) {
    LSHC_DCHECK((new_capacity & (new_capacity - 1)) == 0)
        << "capacity must be a power of two";
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_values = std::move(values_);
    std::vector<uint8_t> old_occupied = std::move(occupied_);
    keys_.assign(new_capacity, 0);
    values_.assign(new_capacity, 0);
    occupied_.assign(new_capacity, 0);
    for (size_t slot = 0; slot < old_keys.size(); ++slot) {
      if (!old_occupied[slot]) continue;
      const size_t target = Probe(old_keys[slot]);
      occupied_[target] = 1;
      keys_[target] = old_keys[slot];
      values_[target] = old_values[slot];
    }
  }

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  std::vector<uint8_t> occupied_;
  size_t size_ = 0;
};

}  // namespace lshclust
