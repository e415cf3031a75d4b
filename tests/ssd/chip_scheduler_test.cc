// Pins the contention semantics of the ChipScheduler (two reads arriving
// simultaneously for one chip serialize; reads for distinct chips overlap)
// and the determinism contract of the event kernel. These invariants are
// what Fig. 6's queueing behaviour rests on — a refactor that silently
// changes them would shift every system-level result.
#include "ssd/chip_scheduler.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ssd/event_queue.h"
#include "telemetry/telemetry.h"

namespace flex::ssd {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&](SimTime) { order.push_back(3); });
  q.schedule(10, [&](SimTime) { order.push_back(1); });
  q.schedule(20, [&](SimTime) { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
  EXPECT_EQ(q.fired(), 3u);
}

TEST(EventQueueTest, EqualTimesFireInSchedulingOrder) {
  // The determinism keystone: ties break by sequence number, so identical
  // schedules replay identically.
  EventQueue q;
  std::string order;
  for (char c : {'a', 'b', 'c', 'd'}) {
    q.schedule(5, [&order, c](SimTime) { order.push_back(c); });
  }
  q.run_all();
  EXPECT_EQ(order, "abcd");
}

TEST(EventQueueTest, EventsMayScheduleFurtherEvents) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&](SimTime now) {
    order.push_back(1);
    q.schedule(now + 5, [&](SimTime) { order.push_back(2); });
  });
  q.schedule(12, [&](SimTime) { order.push_back(3); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
  EXPECT_TRUE(q.empty());
}

class ChipSchedulerTest : public ::testing::Test {
 protected:
  EventQueue events_;
};

TEST_F(ChipSchedulerTest, SimultaneousReadsOnOneChipSerialize) {
  ChipScheduler sched(4, events_);
  const ChipCommand read{.channel = 25, .die = 90, .controller = 10};
  const SimTime first = sched.submit(0, 1000, read);
  const SimTime second = sched.submit(0, 1000, read);
  EXPECT_EQ(first, 1000 + read.total());
  // The second read queues behind the first: same chip, zero overlap.
  EXPECT_EQ(second, first + read.total());
  events_.run_all();
  EXPECT_EQ(sched.stats()[0].commands, 2u);
  EXPECT_EQ(sched.stats()[0].queued_commands, 1u);
  EXPECT_EQ(sched.stats()[0].wait_time, read.total());
  EXPECT_EQ(sched.stats()[0].max_queue_depth, 2u);
}

TEST_F(ChipSchedulerTest, ReadsOnDistinctChipsOverlap) {
  ChipScheduler sched(4, events_);
  const ChipCommand read{.channel = 25, .die = 90, .controller = 10};
  const SimTime a = sched.submit(0, 1000, read);
  const SimTime b = sched.submit(1, 1000, read);
  // Full parallelism: both complete as if alone.
  EXPECT_EQ(a, 1000 + read.total());
  EXPECT_EQ(b, 1000 + read.total());
  events_.run_all();
  EXPECT_EQ(sched.stats()[0].queued_commands, 0u);
  EXPECT_EQ(sched.stats()[1].queued_commands, 0u);
  EXPECT_EQ(sched.stats()[0].wait_time, 0);
  EXPECT_EQ(sched.stats()[1].wait_time, 0);
}

TEST_F(ChipSchedulerTest, LateArrivalStartsAtArrival) {
  ChipScheduler sched(2, events_);
  sched.submit(0, 0, ChipCommand{.die = 100});
  // Arrives after the chip went idle: no queueing delay.
  const SimTime done = sched.submit(0, 500, ChipCommand{.die = 100});
  EXPECT_EQ(done, 600);
  EXPECT_EQ(sched.free_at(0), 600);
}

TEST_F(ChipSchedulerTest, OccupancySplitIsAccounted) {
  ChipScheduler sched(1, events_);
  sched.submit(0, 0, ChipCommand{.channel = 20, .die = 90, .controller = 18});
  sched.submit(0, 0, ChipCommand{.die = 1000});
  const ChipStats& stats = sched.stats()[0];
  EXPECT_EQ(stats.channel_busy, 20);
  EXPECT_EQ(stats.die_busy, 1090);
  EXPECT_EQ(stats.controller_busy, 18);
  EXPECT_EQ(stats.busy_time(), 1128);
  EXPECT_DOUBLE_EQ(stats.utilization(2256), 0.5);
}

TEST_F(ChipSchedulerTest, ChipOfStripesPagesAcrossChips) {
  ChipScheduler sched(8, events_);
  // Page-level channel striping: consecutive physical pages land on
  // consecutive chips.
  for (std::uint64_t ppn = 0; ppn < 32; ++ppn) {
    EXPECT_EQ(sched.chip_of(ppn), ppn % 8);
  }
}

TEST_F(ChipSchedulerTest, BackgroundTrainSpreadsRoundRobin) {
  ChipScheduler sched(4, events_);
  LatencyModel latency;
  // A flush with 2 GC relocations and 1 erase: host program on the page's
  // chip, relocations and erase on successive round-robin chips.
  ftl::WriteResult result{.ppn = 0, .page_programs = 3, .erases = 1};
  sched.submit_background(0, result, latency);
  EXPECT_EQ(sched.free_at(0), latency.program());  // host program
  const Duration move = latency.program() + latency.spec.read_latency;
  EXPECT_EQ(sched.free_at(1), move);
  EXPECT_EQ(sched.free_at(2), move);
  EXPECT_EQ(sched.free_at(3), latency.erase());
}

TEST_F(ChipSchedulerTest, TrainsMatchOnBothBackends) {
  // One GC write result and one refresh train, all issued at t=0, walk the
  // same round-robin chips in the same order whether they are reserved
  // (legacy) or queued as background work (QoS mode): the per-chip
  // command counts, busy time and the order and timing of every chip
  // span agree.
  LatencyModel latency;
  const ftl::WriteResult result{.ppn = 1, .page_programs = 4, .erases = 2};
  const auto run = [&](bool qos) {
    EventQueue events;
    telemetry::Telemetry telemetry;
    telemetry.trace = true;
    ChipScheduler sched(3, events);
    if (qos) sched.enable_qos(QosConfig{}, nullptr);
    sched.attach_telemetry(&telemetry);
    sched.submit_background(0, result, latency);
    sched.submit_maintenance(0, /*moves=*/2, /*erases=*/1, latency);
    events.run_all();
    std::vector<std::vector<std::string>> ops(sched.chips());
    for (const telemetry::Span& span : telemetry.spans.spans()) {
      ops[static_cast<std::size_t>(span.tid)].push_back(
          std::string(span.name) + "@" + std::to_string(span.start) + "+" +
          std::to_string(span.dur));
    }
    return std::make_pair(sched.stats(), ops);
  };
  const auto [legacy_stats, legacy_ops] = run(false);
  const auto [qos_stats, qos_ops] = run(true);
  EXPECT_EQ(legacy_stats, qos_stats);
  EXPECT_EQ(legacy_ops, qos_ops);
  // 1 program + 3 + 2 relocations + 2 + 1 erases, chips 1, 2, 0, 1, ...
  std::uint64_t commands = 0;
  for (const ChipStats& stats : legacy_stats) commands += stats.commands;
  EXPECT_EQ(commands, 9u);
  ASSERT_FALSE(legacy_ops[1].empty());
  EXPECT_EQ(legacy_ops[1][0].rfind("program@0+", 0), 0u);
}

TEST_F(ChipSchedulerTest, SubmitBehindTheClockIsClamped) {
  // A caller may drain the kernel and then submit with an arrival the
  // clock has passed; the command starts no earlier than now, so its
  // completion never lands in the past.
  ChipScheduler sched(2, events_);
  sched.submit(0, 0, ChipCommand{.die = 100});
  events_.run_all();
  ASSERT_EQ(events_.now(), 100);
  EXPECT_EQ(sched.submit(1, 50, ChipCommand{.die = 10}), 110);
  EXPECT_EQ(sched.stats()[1].queued_commands, 0u);
  EXPECT_EQ(sched.stats()[1].wait_time, 0);
  events_.run_all();
  EXPECT_EQ(events_.now(), 110);
}

TEST_F(ChipSchedulerTest, ResetStatsKeepsOccupancy) {
  ChipScheduler sched(2, events_);
  sched.submit(0, 0, ChipCommand{.die = 100});
  sched.reset_stats();
  EXPECT_EQ(sched.stats()[0].commands, 0u);
  // The chip is still busy: reset clears measurements, not state.
  EXPECT_EQ(sched.free_at(0), 100);
  const SimTime done = sched.submit(0, 0, ChipCommand{.die = 50});
  EXPECT_EQ(done, 150);
  EXPECT_EQ(sched.stats()[0].queued_commands, 1u);
}

}  // namespace
}  // namespace flex::ssd
