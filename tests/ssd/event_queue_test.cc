#include "ssd/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace flex::ssd {

/// Reaches the kernel's lane storage: the FIFO position base (to start a
/// queue just below the 31-bit wrap) and the container capacities, which
/// are the kernel's only allocations.
struct EventQueueTestPeer {
  static void set_fifo_base(EventQueue& queue, std::uint32_t base) {
    queue.fifo_base_ = base;
  }
  static std::uint32_t fifo_base(const EventQueue& queue) {
    return queue.fifo_base_;
  }
  static std::size_t fifo_length(const EventQueue& queue) {
    return queue.fifo_.size();
  }
  static std::vector<std::size_t> capacities(const EventQueue& queue) {
    return {queue.slab_.capacity(), queue.free_slots_.capacity(),
            queue.heap_.capacity(), queue.fifo_.capacity()};
  }
};

namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  // 30 first, then 10, then 20: 10 and 20 are behind the lane back so
  // they take the heap; the pop must still interleave by time.
  queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 30);
  EXPECT_EQ(queue.fired(), 3u);
}

TEST(EventQueueTest, SameTimestampFiresInScheduleOrder) {
  // The ordinal tie-break contract: equal `when` resolves by scheduling
  // order, across lanes. Events 0..3 are monotone (FIFO lane); event 4
  // arrives after a later event exists, forcing it through the heap —
  // its ordinal still slots it after event 2, before nothing earlier.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(5, [&order](SimTime) { order.push_back(0); });
  queue.schedule(5, [&order](SimTime) { order.push_back(1); });
  queue.schedule(5, [&order](SimTime) { order.push_back(2); });
  queue.schedule(9, [&order](SimTime) { order.push_back(3); });
  queue.schedule(5, [&order](SimTime) { order.push_back(4); });  // heap lane
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 4, 3}));
}

TEST(EventQueueTest, MixedLaneInterleaving) {
  EventQueue queue;
  std::vector<SimTime> fired_at;
  for (const SimTime when : {10, 20, 30, 40}) {  // FIFO lane
    queue.schedule(when, [&fired_at](SimTime now) { fired_at.push_back(now); });
  }
  for (const SimTime when : {15, 35, 5}) {  // heap lane (out of order)
    queue.schedule(when, [&fired_at](SimTime now) { fired_at.push_back(now); });
  }
  queue.run_all();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{5, 10, 15, 20, 30, 35, 40}));
}

TEST(EventQueueTest, CallbackReceivesItsOwnDeadline) {
  EventQueue queue;
  SimTime seen = -1;
  queue.schedule(1234, [&seen](SimTime now) { seen = now; });
  EXPECT_TRUE(queue.run_next());
  EXPECT_EQ(seen, 1234);
  EXPECT_FALSE(queue.run_next());
}

TEST(EventQueueTest, ReentrantScheduleFromCallback) {
  // The chip-service pattern: a firing arrival schedules its completion.
  EventQueue queue;
  std::vector<SimTime> fired_at;
  for (int i = 1; i <= 3; ++i) {
    queue.schedule(i * 10, [&queue, &fired_at](SimTime now) {
      fired_at.push_back(now);
      queue.schedule(now + 5, [&fired_at](SimTime t) { fired_at.push_back(t); });
    });
  }
  queue.run_all();
  EXPECT_EQ(fired_at, (std::vector<SimTime>{10, 15, 20, 25, 30, 35}));
  EXPECT_EQ(queue.fired(), 6u);
}

TEST(EventQueueTest, CancelHeapEvent) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  const EventQueue::EventId id =
      queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));  // stale handle
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

TEST(EventQueueTest, CancelFifoEventTombstones) {
  // Cancelling inside the sorted lane must not disturb its order; the
  // tombstone is skipped when it reaches the head.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  const EventQueue::EventId mid =
      queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_TRUE(queue.cancel(mid));
  EXPECT_EQ(queue.pending(), 2u);
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(queue.fired(), 2u);  // cancelled events never count as fired
}

TEST(EventQueueTest, CancelFifoHeadSkipsToNextLive) {
  EventQueue queue;
  std::vector<int> order;
  const EventQueue::EventId head =
      queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  EXPECT_TRUE(queue.cancel(head));
  EXPECT_TRUE(queue.run_next());
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueueTest, HandleGoesStaleAfterFiring) {
  EventQueue queue;
  const EventQueue::EventId id = queue.schedule(10, [](SimTime) {});
  queue.run_all();
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueTest, SlabSlotsReusedAfterCancel) {
  // Cancelled slots return to the free stack: scheduling the same number
  // again must not grow the slab.
  EventQueue queue;
  std::vector<EventQueue::EventId> ids;
  for (SimTime t = 1; t <= 100; ++t) {
    ids.push_back(queue.schedule(t, [](SimTime) {}));
  }
  const std::size_t high_water = queue.slab_slots();
  EXPECT_EQ(high_water, 100u);
  for (const auto& id : ids) EXPECT_TRUE(queue.cancel(id));
  EXPECT_TRUE(queue.empty());
  for (SimTime t = 101; t <= 200; ++t) queue.schedule(t, [](SimTime) {});
  EXPECT_EQ(queue.slab_slots(), high_water);  // no new allocations
  queue.run_all();
  EXPECT_EQ(queue.fired(), 100u);
}

TEST(EventQueueTest, SlabStopsGrowingInSteadyState) {
  EventQueue queue;
  for (int round = 0; round < 3; ++round) {
    const SimTime base = queue.now();
    for (SimTime i = 1; i <= 50; ++i) queue.schedule(base + i, [](SimTime) {});
    queue.run_all();
    EXPECT_EQ(queue.slab_slots(), 50u) << round;
  }
}

TEST(EventQueueTest, DropPendingDiscardsBothLanes) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  EXPECT_TRUE(queue.run_next());
  // Pending mix: two FIFO entries (one later cancelled), one heap entry.
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  const EventQueue::EventId doomed =
      queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  queue.schedule(15, [&order](SimTime) { order.push_back(4); });
  EXPECT_TRUE(queue.cancel(doomed));
  EXPECT_EQ(queue.pending(), 2u);

  EXPECT_EQ(queue.drop_pending(), 2u);
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.run_next());
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(queue.now(), 10);    // clock survives the power loss
  EXPECT_EQ(queue.fired(), 1u);  // dropped events never fire

  // Ordinals are not reset: same-instant events scheduled after the drop
  // still fire in scheduling order.
  queue.schedule(50, [&order](SimTime) { order.push_back(5); });
  queue.schedule(50, [&order](SimTime) { order.push_back(6); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 5, 6}));
}

TEST(EventQueueTest, PendingCountsBothLanes) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  queue.schedule(10, [](SimTime) {});
  queue.schedule(20, [](SimTime) {});  // FIFO lane
  queue.schedule(5, [](SimTime) {});   // heap lane
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_FALSE(queue.empty());
  queue.run_all();
  EXPECT_TRUE(queue.empty());
}

// An arrival stream plus the completions its handlers schedule, replayed
// either pre-scheduled (every arrival scheduled up front) or streamed
// (arrival i+1 scheduled when arrival i fires, under a reserved ordinal).
// Arrivals and completion delays sit on a coarse 10 ns grid, so
// completions often land in the same ns as an arrival.
class ArrivalReplay {
 public:
  explicit ArrivalReplay(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    SimTime t = 0;
    for (int i = 0; i < 3000; ++i) {
      t += 10 * static_cast<SimTime>(rng.below(4));
      arrivals_.push_back(t);
    }
  }

  std::vector<std::uint64_t> run(bool streamed) {
    queue_ = std::make_unique<EventQueue>();
    log_.clear();
    // Something pending before the stream, as in a second trace segment.
    queue_->schedule(15, [this](SimTime) { log_.push_back(~0ull); });
    if (streamed) {
      base_ = queue_->reserve_ordinals(arrivals_.size());
      schedule_arrival(0);
    } else {
      for (std::size_t i = 0; i < arrivals_.size(); ++i) {
        queue_->schedule(arrivals_[i], [this, i](SimTime now) {
          on_arrival(i, now);
        });
      }
    }
    queue_->run_all();
    return std::move(log_);
  }

 private:
  // Streamed: arrival i schedules arrival i + 1 when it fires.
  void schedule_arrival(std::size_t i) {
    queue_->schedule_at_ordinal(arrivals_[i], base_ + i,
                                [this, i](SimTime now) {
                                  if (i + 1 < arrivals_.size()) {
                                    schedule_arrival(i + 1);
                                  }
                                  on_arrival(i, now);
                                });
  }

  // Each arrival schedules 0-2 completions 0-40 ns out (a pure function of
  // the seed and the arrival index); an odd-tagged completion chains one
  // more.
  void on_arrival(std::size_t i, SimTime now) {
    log_.push_back(i);
    Rng rng(seed_ * 1'000'003 + i);
    const std::uint64_t count = rng.below(3);
    for (std::uint64_t c = 0; c < count; ++c) {
      const SimTime delay = 10 * static_cast<SimTime>(rng.below(5));
      const std::uint64_t tag = (i + 1) * 1000 + c;
      queue_->schedule(now + delay, [this, tag, delay](SimTime at) {
        log_.push_back(tag);
        if (tag % 2 == 1) {
          queue_->schedule(at + delay, [this, tag](SimTime) {
            log_.push_back(tag + 500);
          });
        }
      });
    }
  }

  std::uint64_t seed_;
  std::vector<SimTime> arrivals_;
  std::unique_ptr<EventQueue> queue_;
  std::vector<std::uint64_t> log_;
  std::uint64_t base_ = 0;
};

TEST(EventQueueTest, ReservedOrdinalStreamFiresLikePreScheduling) {
  // Streaming an arrival sequence under ordinals reserved up front must
  // reproduce the pre-scheduled firing order exactly, ties included: an
  // arrival in the same ns as a completion fires first because its
  // ordinal is older, even though it was scheduled later. The FIFO lane
  // must therefore take the full (when, seq) key into account.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    ArrivalReplay replay(seed);
    const std::vector<std::uint64_t> pre = replay.run(/*streamed=*/false);
    const std::vector<std::uint64_t> streamed = replay.run(/*streamed=*/true);
    ASSERT_GT(pre.size(), 3000u) << seed;
    EXPECT_EQ(pre, streamed) << seed;
  }
}

TEST(EventQueueTest, ReservedOrdinalTiesWithLaterScheduledCompletion) {
  // The minimal tie: a completion at t=20 is appended to the FIFO lane
  // before the arrival at t=20 is streamed in under an older ordinal. The
  // arrival must not be appended behind it.
  EventQueue queue;
  std::vector<int> order;
  const std::uint64_t base = queue.reserve_ordinals(2);
  queue.schedule_at_ordinal(10, base, [&](SimTime now) {
    queue.schedule(now + 10, [&order](SimTime) { order.push_back(2); });
    queue.schedule_at_ordinal(20, base + 1,
                              [&order](SimTime) { order.push_back(1); });
    order.push_back(0);
  });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, ReserveOrdinalsCountsAsScheduled) {
  // A reservation moves the ordinal counter (and so the
  // `event_queue.scheduled` metric) as scheduling that many events would.
  EventQueue queue;
  EXPECT_EQ(queue.reserve_ordinals(5), 0u);
  EXPECT_EQ(queue.reserve_ordinals(0), 5u);
  std::vector<int> order;
  queue.schedule(7, [&order](SimTime) { order.push_back(5); });
  queue.schedule_at_ordinal(7, 4, [&order](SimTime) { order.push_back(4); });
  queue.schedule_at_ordinal(7, 0, [&order](SimTime) { order.push_back(0); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 4, 5}));
  EXPECT_EQ(queue.reserve_ordinals(1), 6u);
}

/// Appends `count` monotone events to the FIFO lane at `first` + 0, 1,
/// ..., each logging first_label + its index; returns their handles.
std::vector<EventQueue::EventId> fill_fifo(EventQueue& queue, SimTime first,
                                           int count, int first_label,
                                           std::vector<int>& log) {
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < count; ++i) {
    const int label = first_label + i;
    ids.push_back(queue.schedule(first + i, [&log, label](SimTime) {
      log.push_back(label);
    }));
  }
  return ids;
}

void cancel_after_reclaims(std::uint32_t initial_base) {
  EventQueue queue;
  EventQueueTestPeer::set_fifo_base(queue, initial_base);
  std::vector<int> log;
  for (int round = 0; round < 4; ++round) {
    // 5000 monotone entries; consume 4600 so the consumed prefix is at
    // least 8x the 400 left, then append once more to reclaim it.
    const int label = round * 10'000;
    const SimTime start = queue.now() + 1;
    const std::vector<EventQueue::EventId> ids =
        fill_fifo(queue, start, 5000, label, log);
    for (int i = 0; i < 4600; ++i) ASSERT_TRUE(queue.run_next());
    EXPECT_TRUE(queue.cancel(ids[4800]));  // before the reclaim
    const std::uint32_t base_before = EventQueueTestPeer::fifo_base(queue);
    fill_fifo(queue, start + 5000, 1, label + 5000, log);
    EXPECT_NE(EventQueueTestPeer::fifo_base(queue), base_before) << round;
    EXPECT_EQ(EventQueueTestPeer::fifo_length(queue), 401u) << round;
    // Cancel two more survivors, now behind a moved base, then drain.
    EXPECT_TRUE(queue.cancel(ids[4700]));
    EXPECT_TRUE(queue.cancel(ids[4999]));
    EXPECT_FALSE(queue.cancel(ids[4000]));  // already fired
    log.clear();
    queue.run_all();
    std::vector<int> expected;
    for (int i = 4600; i <= 5000; ++i) {
      if (i != 4700 && i != 4800 && i != 4999) expected.push_back(label + i);
    }
    EXPECT_EQ(log, expected) << round;
  }
}

TEST(EventQueueTest, CancelFifoEntryAfterPrefixReclaim) {
  cancel_after_reclaims(0);
}

TEST(EventQueueTest, CancelFifoEntryAcrossPositionWraparound) {
  // Positions are 31 bits and wrap; start just below the wrap so both the
  // entries' positions and the base cross it during the rounds.
  cancel_after_reclaims(0x7fffffffu - 6000);
}

TEST(EventQueueTest, OpenLoopMixStopsGrowingAfterWarmup) {
  // One pending monotone arrival whose firing schedules its successor 1 us
  // out and a completion 1.5 us out: the completion lands behind the next
  // arrival in the FIFO lane, so the lane never runs empty. Every third
  // arrival adds a completion before the next arrival (heap lane). Once
  // warm, a million more events must not grow any of the kernel's
  // containers (its only allocations), and the FIFO lane stays bounded
  // by its pending entries.
  EventQueue queue;
  std::uint64_t remaining = 0;
  struct Pump {
    EventQueue* queue;
    std::uint64_t* remaining;
    void operator()(SimTime now) const {
      if (*remaining == 0) return;
      --*remaining;
      queue->schedule(now + 1000, *this);
      queue->schedule(now + 1500, [](SimTime) {});
      if (*remaining % 3 == 0) queue->schedule(now + 300, [](SimTime) {});
    }
  };
  remaining = 30'000;
  queue.schedule(1, Pump{&queue, &remaining});
  queue.run_all();
  const std::vector<std::size_t> warm = EventQueueTestPeer::capacities(queue);
  const std::uint64_t fired_before = queue.fired();

  remaining = 450'000;
  queue.schedule(queue.now() + 1, Pump{&queue, &remaining});
  std::size_t longest_lane = 0;
  while (queue.run_next()) {
    longest_lane =
        std::max(longest_lane, EventQueueTestPeer::fifo_length(queue));
  }
  EXPECT_GE(queue.fired() - fired_before, 1'000'000u);
  EXPECT_EQ(EventQueueTestPeer::capacities(queue), warm);
  EXPECT_LE(longest_lane, 4096u + 9 * 3);
}

}  // namespace
}  // namespace flex::ssd
