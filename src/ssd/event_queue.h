// Deterministic discrete-event kernel for the SSD simulator.
//
// Two pending-event lanes over a slab of fixed-size POD event records:
//  * a sorted FIFO lane for the common monotone case — the simulator
//    pre-schedules every trace arrival in nondecreasing time order, so
//    those events need no heap at all, just an append and a head cursor;
//  * an indexed 4-ary min-heap for everything scheduled out of order
//    (chip completions land before already-queued arrivals). The heap
//    only ever holds the in-flight dynamic events (tens), not the whole
//    trace (hundreds of thousands), which keeps sift depth tiny.
// An event is appended to the FIFO lane iff its (when, seq) key is >= the
// lane's last entry (seq is monotone, so `when >= back.when` suffices);
// run_next() fires the smaller of the two lane heads. Determinism is
// load-bearing — identical seeds must give bit-identical results,
// including when independent simulations run on different threads of the
// bench harness — so the kernel holds no global state and draws no entropy
// of its own.
//
// Ordering contract (the tie-break rule): every schedule() call stamps the
// event with a 64-bit ordinal (`seq`) taken from a monotonically increasing
// counter that never repeats and never resets (not even across power loss —
// see drop_pending()). Events are fired in lexicographic (when, seq) order,
// so events scheduled for the same simulated instant fire in exactly the
// order they were scheduled. The ordinal is part of the heap entry, not a
// fallback comparator detail: any future heap implementation must preserve
// (when, seq) as the total order or byte-identical replay breaks.
//
// Memory contract: callbacks are stored inline in the event record (no
// std::function, no per-event heap allocation). The slab and heap grow to
// the high-water mark of pending events and are reused thereafter, so the
// steady state allocates nothing. Callables must be trivially copyable and
// at most kInlineStorage bytes — in practice small capturing lambdas like
// `[this, chip]`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#include "common/units.h"
#include "telemetry/telemetry.h"

namespace flex::ssd {

class EventQueue {
 public:
  /// Max inline callable size; sized for `this` plus two words of capture.
  static constexpr std::size_t kInlineStorage = 24;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;
  ~EventQueue();

  /// Handle for cancel(). `gen` guards against slot reuse: a handle goes
  /// stale the moment its event fires, is cancelled, or is dropped.
  struct EventId {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Schedules `fn` at `when`. Events at the same `when` fire in
  /// scheduling order (ordinals never tie). The callable is copied into
  /// the event record; it receives the simulated time the event fires at.
  template <class Fn>
  EventId schedule(SimTime when, Fn fn) {
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event callables are memcpy'd into a POD slab record");
    static_assert(sizeof(Fn) <= kInlineStorage,
                  "callable capture exceeds inline event storage");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    const std::uint32_t slot = acquire_slot();
    Record& record = slab_[slot];
    record.invoke = [](const void* storage, SimTime now) {
      // The blob is a byte-copy of a trivially copyable Fn; run_next()
      // copies it to a stack buffer before the call, so re-entrant
      // schedule() calls cannot clobber it mid-invoke.
      (*std::launder(reinterpret_cast<const Fn*>(storage)))(now);
    };
    std::memcpy(record.storage, &fn, sizeof(Fn));
    const EventId id{slot, record.gen};
    push_queued(slot, when);
    return id;
  }

  /// Removes a pending event without firing it. Returns false when the
  /// handle is stale (already fired, cancelled, or dropped). The event's
  /// ordinal is consumed either way; cancelling never renumbers survivors.
  bool cancel(EventId id);

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
  std::size_t pending() const { return heap_.size() + fifo_live_; }
  bool empty() const { return pending() == 0; }
  /// Total events fired since construction.
  std::uint64_t fired() const { return fired_; }
  /// Slab high-water mark: number of event records ever allocated. Stops
  /// growing once the pending-event peak is reached (slots are recycled).
  std::size_t slab_slots() const { return slab_.size(); }

  /// Binds `event_queue.scheduled` and `event_queue.fired` to the
  /// kernel's ordinal and fired counts (see telemetry.h); nullptr
  /// detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

 private:
  /// Marks a slot as not currently pending in either lane.
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  /// Tag bit in Record::heap_pos: set = index into the FIFO lane, clear =
  /// index into the heap lane.
  static constexpr std::uint32_t kFifoTag = 0x80000000u;

  /// Slab record. POD by construction: the callable is a trivially
  /// copyable capture blob plus a type-erasing invoke thunk.
  struct Record {
    void (*invoke)(const void* storage, SimTime now) = nullptr;
    alignas(std::max_align_t) unsigned char storage[kInlineStorage];
    std::uint32_t gen = 0;
    /// Pending position: kNotQueued, heap index, or kFifoTag | fifo index.
    std::uint32_t heap_pos = kNotQueued;
  };

  /// Lane entries carry the full (when, seq) sort key so compares stay
  /// inside the contiguous lane arrays instead of chasing into the slab.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void push_queued(std::uint32_t slot, SimTime when);
  void heap_remove(std::size_t pos);
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);

  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_slots_;  ///< LIFO recycle stack
  std::vector<HeapEntry> heap_;            ///< 4-ary min-heap on (when, seq)
  /// Sorted FIFO lane: entries appended in nondecreasing (when, seq),
  /// consumed from fifo_head_. Cancelled entries become tombstones
  /// (slot == kNotQueued) and are skipped at the head. The vector is
  /// recycled (cleared, not shrunk) once fully consumed.
  std::vector<HeapEntry> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_live_ = 0;  ///< non-tombstone entries in fifo_
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
  SimTime now_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace flex::ssd
