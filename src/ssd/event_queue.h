// Deterministic discrete-event kernel for the SSD simulator.
//
// Two pending-event lanes, each a flat array of fixed-size POD entries
// that carry their callable inline:
//  * a sorted FIFO lane for the common monotone case — an event whose
//    (when, seq) key sorts after the lane's last entry is appended, so
//    streams scheduled in nondecreasing order (a stream pre-scheduled by a
//    caller, the one pending arrival of an ArrivalFeed, end-of-trace
//    completions) need no heap at all, just an append and a head cursor;
//  * a 4-ary min-heap for everything scheduled out of order (chip
//    completions land before already-queued arrivals). The heap only ever
//    holds the in-flight dynamic events (tens), which keeps sift depth
//    tiny.
// run_next() fires the smaller of the two lane heads. Determinism is
// load-bearing — identical seeds must give bit-identical results,
// including when independent simulations run on different threads of the
// bench harness — so the kernel holds no global state and draws no entropy
// of its own.
//
// Ordering contract (the tie-break rule): every event carries a 64-bit
// ordinal (`seq`) from a monotonically increasing counter that never
// repeats and never resets (not even across power loss — see
// drop_pending()); schedule() takes the next one. Events are fired in
// lexicographic (when, seq) order, so events scheduled for the same
// simulated instant fire in scheduling order. The ordinal is part of the
// lane entry, not a fallback comparator detail: any future heap
// implementation must preserve (when, seq) as the total order or
// byte-identical replay breaks.
//
// Clock contract: an event is scheduled at or after the clock
// (`when >= now()`, a checked precondition), so the clock never steps
// back. Callers with a time that may lie in the past clamp it to `now()`
// first, as ArrivalFeed does for every arrival.
//
// A scheduled event cannot be withdrawn: schedule() returns no handle, and
// only drop_pending() (power loss) discards pending events, all at once.
//
// Memory contract: a lane entry is 48 B — the callable's capture blob
// (no std::function, no per-event heap allocation), its (when, seq) key
// and an invoke thunk — and the two lanes are the kernel's only storage
// (lane_capacity()). They are sized by *pending* events. In the
// simulators, pending = in-flight events + one arrival per feed:
// ArrivalFeed streams a trace, so its length does not count. The FIFO
// lane reclaims its consumed prefix once that prefix dominates the lane,
// so the lane too stays within a constant factor (plus a fixed floor) of
// its pending entries. Containers are reused, never shrunk, so the steady
// state allocates nothing. Callables must be trivially copyable and at
// most kInlineStorage bytes — in practice small capturing lambdas like
// `[this, chip]`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "common/assert.h"
#include "common/units.h"
#include "telemetry/telemetry.h"

namespace flex::ssd {

class EventQueue {
 public:
  /// Max inline callable size; sized for `this` plus two words of capture.
  static constexpr std::size_t kInlineStorage = 24;
  /// The FIFO lane's consumed prefix is reclaimed, on append, once it is
  /// at least this long and at least 8x the unconsumed rest: the memmove
  /// then costs at most one entry per 8 consumed, and the lane never holds
  /// more than 9x its unconsumed entries plus this floor.
  static constexpr std::size_t kLaneReclaimMin = 4096;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Schedules `fn` at `when`, which must not lie before now(). Events at
  /// the same `when` fire in scheduling order (ordinals never tie). The
  /// callable is copied into the lane entry; it receives the simulated
  /// time the event fires at.
  template <class Fn>
  void schedule(SimTime when, Fn fn) {
    push(make_entry(when, next_seq_++, fn));
  }

  /// Pops and runs the earliest event; returns false when none is pending.
  bool run_next();

  /// Drains the queue, including events scheduled by running events.
  void run_all();

  /// Discards every pending event without firing it — power loss. The
  /// clock (`now()`) and the fired/ordinal counters are preserved so a
  /// post-crash mount continues on the same timeline.
  /// Returns the number of events dropped.
  std::size_t drop_pending();

  /// Time of the most recently fired event.
  SimTime now() const { return now_; }
  std::size_t pending() const {
    return heap_.size() + fifo_.size() - fifo_head_;
  }
  bool empty() const { return pending() == 0; }
  /// Total events fired since construction.
  std::uint64_t fired() const { return fired_; }
  /// Entries the two lanes can hold without allocating: the kernel's
  /// whole footprint, lane_capacity() * sizeof(entry) bytes. Stops growing
  /// once the pending-event peak (and the FIFO lane's reclaim floor) is
  /// reached, since the lanes are reused, never shrunk.
  std::size_t lane_capacity() const {
    return heap_.capacity() + fifo_.capacity();
  }

  /// Binds `event_queue.scheduled` and `event_queue.fired` to the
  /// kernel's ordinal and fired counts (see telemetry.h); nullptr
  /// detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

 private:
  /// Lane entry. POD by construction: the callable is a trivially
  /// copyable capture blob plus a type-erasing invoke thunk, next to the
  /// full (when, seq) sort key, so compares and moves stay inside the
  /// contiguous lane arrays.
  struct Entry {
    alignas(std::max_align_t) unsigned char storage[kInlineStorage];
    SimTime when;
    std::uint64_t seq;
    void (*invoke)(const void* storage, SimTime now);
  };
  static_assert(std::is_trivially_copyable_v<Entry>);
  static_assert(sizeof(Entry) == 48);

  static bool before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  template <class Fn>
  static Entry make_entry(SimTime when, std::uint64_t seq, Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event callables are memcpy'd into a POD lane entry");
    static_assert(sizeof(Fn) <= kInlineStorage,
                  "callable capture exceeds inline event storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    Entry entry{};
    std::memcpy(entry.storage, &fn, sizeof(Fn));
    entry.when = when;
    entry.seq = seq;
    entry.invoke = [](const void* storage, SimTime now) {
      // The blob is a byte-copy of a trivially copyable Fn; run_next()
      // calls it from a local copy of the entry, so re-entrant schedule()
      // calls cannot move it mid-invoke.
      (*std::launder(reinterpret_cast<const Fn*>(storage)))(now);
    };
    return entry;
  }

  void push(const Entry& entry);
  void pop_heap_root();
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::vector<Entry> heap_;  ///< 4-ary min-heap on (when, seq)
  /// Sorted FIFO lane: entries appended in nondecreasing (when, seq),
  /// consumed from fifo_head_. The consumed prefix is erased on append
  /// (storage kept, not shrunk) under the kLaneReclaimMin rule.
  std::vector<Entry> fifo_;
  std::size_t fifo_head_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  SimTime now_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;

  /// Test seam (tests/ssd/event_queue_test.cc): the FIFO lane's length.
  friend struct EventQueueTestPeer;
};

}  // namespace flex::ssd
