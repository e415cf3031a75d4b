#include "ssd/event_queue.h"

#include <algorithm>

namespace flex::ssd {

void EventQueue::push(const Entry& entry) {
  FLEX_EXPECTS(entry.when >= now_);
  // Monotone schedules (a feed's pending arrival, pre-scheduled streams,
  // end-of-trace completions) take the FIFO lane; everything else goes
  // through the heap.
  if (fifo_.empty() || before(fifo_.back(), entry)) {
    if (fifo_head_ >= kLaneReclaimMin &&
        8 * (fifo_.size() - fifo_head_) <= fifo_head_) {
      fifo_.erase(fifo_.begin(),
                  fifo_.begin() + static_cast<std::ptrdiff_t>(fifo_head_));
      fifo_head_ = 0;
    }
    fifo_.push_back(entry);
  } else {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1);
  }
}

bool EventQueue::run_next() {
  const bool have_fifo = fifo_head_ < fifo_.size();
  if (!have_fifo && heap_.empty()) return false;
  const bool from_fifo =
      have_fifo && (heap_.empty() || before(fifo_[fifo_head_], heap_[0]));
  // A local copy: the callback may re-enter schedule(), which can
  // reallocate either lane (or reclaim the one this entry came from).
  const Entry top = from_fifo ? fifo_[fifo_head_] : heap_[0];
  if (from_fifo) {
    ++fifo_head_;
  } else {
    pop_heap_root();
  }
  now_ = top.when;
  ++fired_;
  top.invoke(top.storage, top.when);
  return true;
}

void EventQueue::run_all() {
  while (run_next()) {
  }
}

std::size_t EventQueue::drop_pending() {
  const std::size_t dropped = pending();
  heap_.clear();
  fifo_.clear();
  fifo_head_ = 0;
  return dropped;
}

void EventQueue::pop_heap_root() {
  const std::size_t last = heap_.size() - 1;
  if (last > 0) heap_[0] = heap_[last];
  heap_.pop_back();
  if (last > 1) sift_down(0);
}

void EventQueue::sift_up(std::size_t pos) {
  const Entry entry = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 4;
    if (!before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
}

void EventQueue::sift_down(std::size_t pos) {
  const std::size_t size = heap_.size();
  const Entry entry = heap_[pos];
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
    pos = best;
  }
  heap_[pos] = entry;
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
