#include "ssd/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "telemetry/telemetry.h"

namespace flex::ssd {

/// Reaches the kernel's lanes: the FIFO lane's length and consumed
/// prefix, and each lane's size and capacity.
struct EventQueueTestPeer {
  static std::size_t fifo_length(const EventQueue& queue) {
    return queue.fifo_.size();
  }
  static std::size_t fifo_head(const EventQueue& queue) {
    return queue.fifo_head_;
  }
  static std::size_t heap_size(const EventQueue& queue) {
    return queue.heap_.size();
  }
  static std::size_t heap_capacity(const EventQueue& queue) {
    return queue.heap_.capacity();
  }
  static std::size_t fifo_capacity(const EventQueue& queue) {
    return queue.fifo_.capacity();
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

TEST(EventQueueTest, SlabStopsGrowingInSteadyState) {
  // Rounds of 50 monotone events, each round drained before the next. The
  // lanes are the kernel's only storage: once the FIFO lane has passed its
  // reclaim floor (4,096 consumed entries) the consumed prefix is erased
  // instead of grown past, so 300 rounds (15,000 events) fit in what the
  // floor plus one round needs, and later rounds allocate nothing.
  EventQueue queue;
  const auto round = [&queue] {
    const SimTime base = queue.now();
    for (SimTime i = 1; i <= 50; ++i) queue.schedule(base + i, [](SimTime) {});
    queue.run_all();
  };
  for (int r = 0; r < 100; ++r) round();
  const std::size_t warm = queue.lane_capacity();
  for (int r = 0; r < 200; ++r) {
    round();
    ASSERT_EQ(queue.lane_capacity(), warm) << r;
  }
  EXPECT_EQ(queue.fired(), 15'000u);
  EXPECT_LE(warm, 2 * (4096u + 50u));
}

TEST(EventQueueTest, DropPendingDiscardsBothLanes) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(10, [&order](SimTime) { order.push_back(1); });
  EXPECT_TRUE(queue.run_next());
  // Pending mix: two FIFO entries, one heap entry.
  queue.schedule(20, [&order](SimTime) { order.push_back(2); });
  queue.schedule(30, [&order](SimTime) { order.push_back(3); });
  queue.schedule(15, [&order](SimTime) { order.push_back(4); });
  EXPECT_EQ(queue.pending(), 3u);

  EXPECT_EQ(queue.drop_pending(), 3u);
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

TEST(EventQueueDeathTest, SchedulingBeforeTheClockAborts) {
  // The clock never steps back: an event before now() is refused, one at
  // now() is not.
  EventQueue queue;
  queue.schedule(100, [](SimTime) {});
  queue.run_all();
  queue.schedule(100, [](SimTime) {});
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_DEATH(queue.schedule(99, [](SimTime) {}), "precondition");
}

TEST(EventQueueTest, OpenLoopMixStopsGrowingAfterWarmup) {
  // One pending monotone arrival whose firing schedules its successor 1 us
  // out and a completion 1.5 us out: the completion lands behind the next
  // arrival in the FIFO lane, so the lane never runs empty. Every third
  // arrival adds a completion before the next arrival (heap lane). Once
  // warm, a million more events must not grow either lane (the kernel's
  // only allocations), and the FIFO lane stays bounded by its pending
  // entries.
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
  const std::size_t warm = queue.lane_capacity();
  const std::uint64_t fired_before = queue.fired();

  remaining = 450'000;
  queue.schedule(queue.now() + 1, Pump{&queue, &remaining});
  std::size_t longest_lane = 0;
  while (queue.run_next()) {
    longest_lane =
        std::max(longest_lane, EventQueueTestPeer::fifo_length(queue));
  }
  EXPECT_GE(queue.fired() - fired_before, 1'000'000u);
  EXPECT_EQ(queue.lane_capacity(), warm);
  EXPECT_LE(longest_lane, 4096u + 9 * 3);
}

// Drives a kernel with a randomized mix and checks every firing against an
// independent reference: a std::set of the pending events ordered by
// (when, seq), with the ordinals counted here, not read from the kernel.
// The mix covers both lanes and the paths that move entries: deep heap
// sifts, FIFO prefix reclaims, streams whose elements are scheduled one at
// a time as their predecessors fire (an ArrivalFeed), power-loss drops, and
// callbacks that grow both lanes while they run.
class ReferenceMix {
 public:
  explicit ReferenceMix(std::uint64_t seed) : rng_(seed) {
    queue_.attach_telemetry(&telemetry_);
  }
  ~ReferenceMix() { queue_.attach_telemetry(nullptr); }

  void run(std::uint64_t events) {
    inner_drop_at_ = events - events / 6;
    seed_roots();
    while (!queue_.empty()) {
      const std::size_t head = EventQueueTestPeer::fifo_head(queue_);
      ASSERT_TRUE(queue_.run_next());
      if (failed_) return;
      // A reclaim inside the callback erased the prefix consumed so far:
      // `head` entries plus the one just fired.
      if (EventQueueTestPeer::fifo_head(queue_) < head && !dropped_now_) {
        longest_reclaim_ = std::max(longest_reclaim_, head + 1);
      }
      dropped_now_ = false;
      longest_heap_ =
          std::max(longest_heap_, EventQueueTestPeer::heap_size(queue_));
      // Power loss between events, twice per run, then new work.
      if (queue_.fired() % (events / 3) == 0 && queue_.fired() < events) {
        drop();
        seed_roots();
      }
      if (queue_.fired() >= events) break;
      if (queue_.empty()) seed_roots();  // after a drop inside a callback
    }
    EXPECT_EQ(queue_.pending(), pending_.size());
    EXPECT_EQ(telemetry_.metrics.snapshot().counters.at(
                  "event_queue.scheduled"),
              next_seq_);
  }

  std::size_t longest_reclaim() const { return longest_reclaim_; }
  std::size_t longest_heap() const { return longest_heap_; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t bursts() const { return bursts_; }
  std::uint64_t bursts_growing_both() const { return bursts_growing_both_; }
  std::uint64_t streamed_fired() const { return streamed_fired_; }

 private:
  /// A full 24 B capture: the tag is a function of the id, so a capture
  /// that was torn or overwritten while its entry moved shows at fire time.
  struct Probe {
    ReferenceMix* mix;
    std::uint64_t id;
    std::uint64_t tag;
    void operator()(SimTime now) const { mix->fire(*this, now); }
  };
  static_assert(sizeof(Probe) == EventQueue::kInlineStorage);

  using Key = std::tuple<SimTime, std::uint64_t, std::uint64_t>;

  /// A nondecreasing run of times streamed like an ArrivalFeed segment:
  /// element i schedules element i + 1 when it fires.
  struct Stream {
    std::vector<SimTime> times;
  };
  /// What an id does when it fires (beyond the random mix).
  struct Role {
    std::int64_t stream = -1;  ///< index into streams_, or -1
    std::size_t element = 0;
    bool outgrow = false;  ///< fires the burst that outgrows both lanes
  };

  static std::uint64_t tag_of(std::uint64_t id) {
    return (id + 1) * 0x9E3779B97F4A7C15ull ^ 0xD1B54A32D192ED03ull;
  }

  void schedule(SimTime when, Role role) {
    const std::uint64_t id = keys_.size();
    keys_.push_back({when, next_seq_++, id});
    roles_.push_back(role);
    pending_.insert(keys_.back());
    queue_.schedule(when, Probe{this, id, tag_of(id)});
  }
  void schedule(SimTime when) { schedule(when, Role{}); }

  /// Delays on a coarse grid, so same-ns ties between lanes are common.
  SimTime delay() {
    if (rng_.chance(0.01)) return 10 * static_cast<SimTime>(rng_.below(200));
    return 10 * static_cast<SimTime>(rng_.below(5));
  }

  void start_stream(SimTime now, std::size_t length) {
    Stream stream;
    SimTime t = now;
    for (std::size_t i = 0; i < length; ++i) {
      t += 10 * static_cast<SimTime>(rng_.below(4));
      stream.times.push_back(t);
    }
    streams_.push_back(std::move(stream));
    const auto index = static_cast<std::int64_t>(streams_.size() - 1);
    schedule(streams_.back().times[0], Role{index, 0});
  }

  /// New work: a stream, a pre-scheduled monotone run
  /// long enough for the FIFO lane to pass its reclaim floor, and a few
  /// plain events.
  void seed_roots() {
    const SimTime now = queue_.now();
    start_stream(now, 6000);
    for (int i = 1; i < 5000; ++i) schedule(now + 2 * i);
    // The run's last event is later than anything pending, so it sits in
    // the FIFO lane; the first run's last event outgrows both lanes when
    // it fires, reallocating the lane its own entry came from.
    schedule(now + 2 * 5000,
             Role{.outgrow = std::exchange(first_run_, false)});
    for (int i = 0; i < 8; ++i) schedule(now + delay());
  }

  void drop() {
    EXPECT_EQ(queue_.drop_pending(), pending_.size());
    pending_.clear();
    dropped_now_ = true;
    ++drops_;
  }

  void fire(const Probe& probe, SimTime now) {
    if (probe.tag != tag_of(probe.id) || pending_.empty() ||
        *pending_.begin() != keys_[probe.id] ||
        std::get<0>(keys_[probe.id]) != now || queue_.now() != now) {
      ADD_FAILURE() << "event " << probe.id << " fired out of order at "
                    << now;
      failed_ = true;
      queue_.drop_pending();
      return;
    }
    pending_.erase(pending_.begin());
    const Role role = roles_[probe.id];
    if (role.stream >= 0) {
      ++streamed_fired_;
      const Stream& stream = streams_[static_cast<std::size_t>(role.stream)];
      const std::size_t next = role.element + 1;
      if (next < stream.times.size()) {
        schedule(stream.times[next], Role{role.stream, next});
      }
    }
    // 0.7 children per event on average, so the in-flight population
    // stays bounded and each stream keeps simulated time moving.
    const double roll = rng_.uniform();
    const int children = roll < 0.5 ? 0 : roll < 0.8 ? 1 : 2;
    for (int c = 0; c < children; ++c) schedule(now + delay());
    if (role.outgrow || rng_.chance(0.0002)) {
      // A burst: a monotone run past the FIFO lane's back and as many
      // out-of-order events for the heap. Once per run it is sized to
      // outgrow both lanes mid-call (nothing is consumed during a call, so
      // capacity + 1 appends must reallocate even after a reclaim).
      ++bursts_;
      const std::size_t heap_before = EventQueueTestPeer::heap_capacity(queue_);
      const std::size_t fifo_before = EventQueueTestPeer::fifo_capacity(queue_);
      const std::size_t count =
          role.outgrow ? std::max(heap_before, fifo_before) + 1 : 300;
      // Past every pending event and every heap-bound one below.
      SimTime far = now + 5000;
      if (!pending_.empty()) {
        far = std::max(far, std::get<0>(*pending_.rbegin()));
      }
      for (std::size_t i = 0; i < count; ++i) {
        schedule(far + 1 + static_cast<SimTime>(i));
        schedule(now + 10 * static_cast<SimTime>(rng_.below(500)));
      }
      if (EventQueueTestPeer::heap_capacity(queue_) > heap_before &&
          EventQueueTestPeer::fifo_capacity(queue_) > fifo_before) {
        ++bursts_growing_both_;
      }
    }
    if (queue_.fired() == inner_drop_at_) drop();  // from inside a callback
    // The capture is read again after the lanes may have moved.
    EXPECT_EQ(probe.tag, tag_of(probe.id));
  }

  Rng rng_;
  telemetry::Telemetry telemetry_;
  EventQueue queue_;
  std::set<Key> pending_;
  std::vector<Key> keys_;  ///< indexed by id
  std::vector<Role> roles_;
  std::vector<Stream> streams_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t streamed_fired_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t bursts_ = 0;
  std::uint64_t bursts_growing_both_ = 0;
  std::size_t longest_reclaim_ = 0;
  std::size_t longest_heap_ = 0;
  std::uint64_t inner_drop_at_ = 0;
  bool first_run_ = true;
  bool dropped_now_ = false;
  bool failed_ = false;
};

TEST(EventQueueTest, RandomMixMatchesReferenceOrder) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    ReferenceMix mix(seed);
    mix.run(150'000);
    if (::testing::Test::HasFailure()) return;
    // The mix reached every path it exists to cover.
    EXPECT_GE(mix.longest_reclaim(), 4096u) << seed;
    EXPECT_GE(mix.longest_heap(), 100u) << seed;
    EXPECT_EQ(mix.drops(), 3u) << seed;
    EXPECT_GE(mix.bursts(), 10u) << seed;
    EXPECT_GE(mix.bursts_growing_both(), 1u) << seed;
    EXPECT_GE(mix.streamed_fired(), 2000u) << seed;
  }
}

}  // namespace
}  // namespace flex::ssd
