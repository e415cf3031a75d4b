// Intrusive doubly-linked LRU over a flat slot array.
//
// Replaces the std::list + std::unordered_map<key, list::iterator> pattern
// for small sparse key sets (the write buffer's recency order): one node
// allocation per *slot* instead of per *operation*, O(1)
// touch with no iterator indirection, and every structure lives in two
// contiguous vectors. Slots are recycled through a free stack, so the
// steady state allocates nothing once the high-water mark is reached.
//
// Determinism: recency order is an explicit doubly-linked list threaded
// through the slot array, so iteration (for_each_oldest_first) depends only
// on the operation history — never on hash layout or slot numbering.
//
// The FlexLevel ReducedCell pool does not use it: its keys are LPNs of a
// large dense range, so it threads its LRU through an LPN-indexed link
// array instead (flexlevel::ReducedCellPool).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/flat_hash_map.h"

namespace flex {

template <class Value>
class LruMap {
 public:
  LruMap() = default;
  explicit LruMap(std::size_t capacity_hint) : index_(capacity_hint) {
    nodes_.reserve(capacity_hint);
  }

  std::size_t size() const { return index_.size(); }
  bool empty() const { return index_.empty(); }
  bool contains(std::uint64_t key) const { return index_.contains(key); }

  /// Value of `key`, or nullptr; does not change recency.
  Value* find(std::uint64_t key) {
    const std::uint32_t* slot = index_.find(key);
    return slot ? &nodes_[*slot].value : nullptr;
  }
  const Value* find(std::uint64_t key) const {
    return const_cast<LruMap*>(this)->find(key);
  }

  /// Moves `key` to the most-recent end; returns false when absent.
  bool touch(std::uint64_t key) {
    const std::uint32_t* slot = index_.find(key);
    if (!slot) return false;
    if (head_ != *slot) {
      unlink(*slot);
      link_front(*slot);
    }
    return true;
  }

  /// Inserts `key` (must be absent) as most recent.
  Value& push_front(std::uint64_t key, Value value) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      FLEX_ASSERT(nodes_.size() < kNil);
      nodes_.emplace_back();
      slot = static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    Node& node = nodes_[slot];
    node.key = key;
    node.value = std::move(value);
    link_front(slot);
    const bool inserted = index_.insert(key, slot).second;
    FLEX_ASSERT(inserted && "LruMap::push_front: key already present");
    return node.value;
  }

  bool erase(std::uint64_t key) {
    const std::uint32_t* slot = index_.find(key);
    if (!slot) return false;
    const std::uint32_t s = *slot;
    unlink(s);
    free_.push_back(s);
    index_.erase(key);
    return true;
  }

  /// Least-recently-used key; undefined when empty.
  std::uint64_t back_key() const {
    FLEX_EXPECTS(tail_ != kNil);
    return nodes_[tail_].key;
  }

  /// Evicts the least-recently-used entry; its key is returned.
  std::uint64_t pop_back() {
    const std::uint64_t key = back_key();
    erase(key);
    return key;
  }

  /// Visits every entry from least to most recent: fn(key, Value&).
  template <class Fn>
  void for_each_oldest_first(Fn&& fn) {
    for (std::uint32_t slot = tail_; slot != kNil; slot = nodes_[slot].prev) {
      fn(nodes_[slot].key, nodes_[slot].value);
    }
  }

  void clear() {
    nodes_.clear();
    free_.clear();
    head_ = kNil;
    tail_ = kNil;
    index_.clear();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::uint64_t key = 0;
    Value value{};
    std::uint32_t prev = kNil;  ///< toward the most-recent end
    std::uint32_t next = kNil;  ///< toward the least-recent end
  };

  void link_front(std::uint32_t slot) {
    Node& node = nodes_[slot];
    node.prev = kNil;
    node.next = head_;
    if (head_ != kNil) nodes_[head_].prev = slot;
    head_ = slot;
    if (tail_ == kNil) tail_ = slot;
  }

  void unlink(std::uint32_t slot) {
    Node& node = nodes_[slot];
    if (node.prev != kNil) nodes_[node.prev].next = node.next;
    if (node.next != kNil) nodes_[node.next].prev = node.prev;
    if (head_ == slot) head_ = node.next;
    if (tail_ == slot) tail_ = node.prev;
    node.prev = kNil;
    node.next = kNil;
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;  ///< recycled slots (LIFO)
  std::uint32_t head_ = kNil;        ///< most recent
  std::uint32_t tail_ = kNil;        ///< least recent
  FlatHashMap<std::uint32_t> index_;  ///< key -> slot
};

}  // namespace flex
