// Open-addressing hash map over flat arrays, for simulator hot paths.
//
// std::unordered_map costs one heap node per element and a pointer chase
// per probe; on the per-read lookup paths (BER cache, LRU indices) that
// is the dominant cache-miss source. FlatHashMap stores slots contiguously
// with linear probing over a power-of-two table, erases via backward
// shifting (no tombstones, so probe chains never rot), and grows by
// rehashing in slot order.
//
// Determinism contract: raw slot order depends on capacity history, so the
// map offers no iteration at all — only keyed find/insert/erase, whose
// results do not depend on the slot layout.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"

namespace flex {

/// SplitMix64 finalizer: a full-avalanche mix for integer keys. Identity
/// hashing would alias badly with the structured keys used on hot paths
/// (packed (pe << 16) | bucket, page numbers), which share low bits.
struct SplitMix64Hash {
  std::uint64_t operator()(std::uint64_t x) const {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
};

template <class Value, class Hash = SplitMix64Hash>
class FlatHashMap {
 public:
  using Key = std::uint64_t;

  struct Entry {
    Key key;
    Value value;
  };

  FlatHashMap() = default;
  explicit FlatHashMap(std::size_t capacity_hint) { reserve(capacity_hint); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    std::fill(full_.begin(), full_.end(), std::uint8_t{0});
    size_ = 0;
  }

  /// Grows the table so `n` elements fit without rehashing.
  void reserve(std::size_t n) {
    std::size_t want = min_capacity_;
    while (want * 3 < n * 4) want *= 2;  // keep load factor <= 0.75
    if (want > slots_.size()) rehash(want);
  }

  Value* find(Key key) {
    if (size_ == 0) return nullptr;
    const std::size_t i = find_index(key);
    return i == npos ? nullptr : &slots_[i].value;
  }
  const Value* find(Key key) const {
    return const_cast<FlatHashMap*>(this)->find(key);
  }
  bool contains(Key key) const { return find(key) != nullptr; }

  /// Inserts `value` under `key` if absent. Returns {slot value pointer,
  /// inserted?}; the pointer stays valid until the next insert/erase.
  std::pair<Value*, bool> insert(Key key, Value value) {
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      rehash(std::max(min_capacity_, slots_.size() * 2));
    }
    std::size_t i = hasher_(key) & mask_;
    while (full_[i]) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
      i = (i + 1) & mask_;
    }
    slots_[i] = Entry{key, std::move(value)};
    full_[i] = 1;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Erases `key` via backward shifting; returns false if absent.
  bool erase(Key key) {
    if (size_ == 0) return false;
    std::size_t i = find_index(key);
    if (i == npos) return false;
    // Backward-shift deletion: walk the probe chain after the hole and
    // pull back any element whose home slot precedes the hole (cyclically),
    // so lookups never need tombstones.
    std::size_t hole = i;
    std::size_t j = (i + 1) & mask_;
    while (full_[j]) {
      const std::size_t home = hasher_(slots_[j].key) & mask_;
      // `j - home` is the element's current probe distance; it may move
      // into `hole` iff hole lies within that distance of its home.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    full_[hole] = 0;
    --size_;
    return true;
  }

 private:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr std::size_t min_capacity_ = 16;

  std::size_t find_index(Key key) const {
    std::size_t i = hasher_(key) & mask_;
    while (full_[i]) {
      if (slots_[i].key == key) return i;
      i = (i + 1) & mask_;
    }
    return npos;
  }

  void rehash(std::size_t new_capacity) {
    FLEX_ASSERT((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Entry> old_slots = std::move(slots_);
    std::vector<std::uint8_t> old_full = std::move(full_);
    slots_.assign(new_capacity, Entry{});
    full_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      if (!old_full[i]) continue;
      std::size_t j = hasher_(old_slots[i].key) & mask_;
      while (full_[j]) j = (j + 1) & mask_;
      slots_[j] = std::move(old_slots[i]);
      full_[j] = 1;
    }
  }

  std::vector<Entry> slots_;
  std::vector<std::uint8_t> full_;  ///< 1 = occupied (separate for scan locality)
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  [[no_unique_address]] Hash hasher_{};
};

}  // namespace flex
