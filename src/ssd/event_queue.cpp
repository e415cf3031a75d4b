#include "ssd/event_queue.h"

#include <algorithm>

#include "common/assert.h"

namespace flex::ssd {

std::uint32_t EventQueue::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  FLEX_ASSERT(slab_.size() < kNotQueued);
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
  Record& record = slab_[slot];
  record.invoke = nullptr;
  record.heap_pos = kNotQueued;
  ++record.gen;  // stale handles to this slot now fail cancel()
  free_slots_.push_back(slot);
}

void EventQueue::push_queued(std::uint32_t slot, SimTime when,
                             std::uint64_t seq) {
  const HeapEntry entry{when, seq, slot};
  // Monotone schedules (a feed's pending arrival, pre-scheduled streams,
  // end-of-trace completions) take the FIFO lane. The full (when, seq)
  // key decides: a reserved ordinal can be smaller than the lane's last
  // one at the same `when`. Everything else goes through the heap.
  if (fifo_.empty() || when > fifo_.back().when ||
      (when == fifo_.back().when && seq > fifo_.back().seq)) {
    if (fifo_head_ >= kFifoReclaimMin &&
        8 * (fifo_.size() - fifo_head_) <= fifo_head_) {
      reclaim_fifo_prefix();
    }
    FLEX_ASSERT(fifo_.size() < kFifoTag);
    slab_[slot].heap_pos =
        kFifoTag | (fifo_base_ + static_cast<std::uint32_t>(fifo_.size()));
    fifo_.push_back(entry);
    ++fifo_live_;
  } else {
    heap_.push_back(entry);
    slab_[slot].heap_pos = static_cast<std::uint32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
  }
}

void EventQueue::reclaim_fifo_prefix() {
  // Pending entries slide to the front; their positions (heap_pos) stay
  // valid because the base advances by exactly the erased count.
  fifo_.erase(fifo_.begin(),
              fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
  fifo_base_ += static_cast<std::uint32_t>(fifo_head_);
  fifo_head_ = 0;
}

bool EventQueue::cancel(EventId id) {
  if (id.slot >= slab_.size()) return false;
  Record& record = slab_[id.slot];
  if (record.gen != id.gen || record.heap_pos == kNotQueued) return false;
  if (record.heap_pos & kFifoTag) {
    // FIFO entries tombstone in place (the lane must stay sorted);
    // run_next() skips tombstones at the head.
    HeapEntry& entry = fifo_[(record.heap_pos - fifo_base_) & kPosMask];
    FLEX_ASSERT(entry.slot == id.slot);
    entry.slot = kNotQueued;
    --fifo_live_;
  } else {
    heap_remove(record.heap_pos);
  }
  release_slot(id.slot);
  return true;
}

bool EventQueue::run_next() {
  // Tombstoned (cancelled) FIFO entries are dead; skip them so the head
  // compare below always sees a live candidate.
  while (fifo_head_ < fifo_.size() && fifo_[fifo_head_].slot == kNotQueued) {
    ++fifo_head_;
  }
  const bool have_fifo = fifo_head_ < fifo_.size();
  if (!have_fifo && heap_.empty()) return false;
  HeapEntry top;
  if (have_fifo && (heap_.empty() || before(fifo_[fifo_head_], heap_[0]))) {
    top = fifo_[fifo_head_];
    ++fifo_head_;
    --fifo_live_;
  } else {
    top = heap_[0];
    heap_remove(0);
  }
  Record& record = slab_[top.slot];
  // Copy the callable out of the slab before releasing the slot: the
  // callback may re-enter schedule() and reuse this very record.
  auto* const invoke = record.invoke;
  alignas(std::max_align_t) unsigned char storage[kInlineStorage];
  std::memcpy(storage, record.storage, kInlineStorage);
  release_slot(top.slot);
  now_ = top.when;
  ++fired_;
  invoke(storage, top.when);
  return true;
}

void EventQueue::run_all() {
  while (run_next()) {
  }
}

std::size_t EventQueue::drop_pending() {
  const std::size_t dropped = heap_.size() + fifo_live_;
  // Release in heap order, then FIFO order (deterministic), so the
  // post-crash free stack — and therefore slot reuse — replays identically
  // run-to-run.
  for (const HeapEntry& entry : heap_) release_slot(entry.slot);
  heap_.clear();
  for (std::size_t i = fifo_head_; i < fifo_.size(); ++i) {
    if (fifo_[i].slot != kNotQueued) release_slot(fifo_[i].slot);
  }
  fifo_.clear();
  fifo_head_ = 0;
  fifo_live_ = 0;
  return dropped;
}

void EventQueue::heap_remove(std::size_t pos) {
  const std::size_t last = heap_.size() - 1;
  if (pos == last) {
    heap_.pop_back();
    return;
  }
  heap_[pos] = heap_[last];
  slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
  heap_.pop_back();
  // The displaced last element may violate order in exactly one direction.
  if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / 4])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = entry;
  slab_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t size = heap_.size();
  const HeapEntry entry = heap_[pos];
  while (true) {
    const std::size_t first_child = pos * 4 + 1;
    if (first_child >= size) break;
    const std::size_t last_child = std::min(first_child + 4, size);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], entry)) break;
    heap_[pos] = heap_[best];
    slab_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = best;
  }
  heap_[pos] = entry;
  slab_[entry.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

EventQueue::~EventQueue() {
  if (telemetry_) telemetry_->metrics.unbind(this);
}

void EventQueue::attach_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry_) telemetry_->metrics.unbind(this);
  telemetry_ = telemetry;
  if (!telemetry_) return;
  telemetry_->metrics.bind(this, "event_queue.scheduled",
                           [this] { return next_seq_; });
  telemetry_->metrics.bind(this, "event_queue.fired",
                           [this] { return fired_; });
}

}  // namespace flex::ssd
