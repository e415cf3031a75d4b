// Property tests for the QoS chip-scheduling mode: dispatch-order
// invariants (submission order under uniform budgets, FIFO within
// tenant+priority, deadline class separation, priority tightening),
// starvation freedom of throttled background work, weighted-fair share
// bounds under overload, and the bounded-queue accounting the overload
// tests lean on. Everything runs on the raw ChipScheduler + EventQueue —
// no simulator, and fixed seeds where arrivals are randomized — so each
// property is exact, not statistical.
#include "ssd/chip_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "ssd/event_queue.h"

namespace flex::ssd {
namespace {

/// Records tagged completions in delivery order.
class RecordingSink : public QosSink {
 public:
  struct Record {
    std::uint64_t tag = 0;
    SimTime arrival = 0;
    SimTime start = 0;
    SimTime completion = 0;
  };

  void on_qos_complete(const QosCompletion& done) override {
    records.push_back(
        {done.tag, done.arrival, done.start, done.completion});
  }

  std::vector<std::uint64_t> tags() const {
    std::vector<std::uint64_t> out;
    out.reserve(records.size());
    for (const Record& r : records) out.push_back(r.tag);
    return out;
  }

  std::vector<Record> records;
};

constexpr ChipCommand kRead100us{.channel = 20'000,
                                 .die = 70'000,
                                 .controller = 10'000};

class QosSchedulerTest : public ::testing::Test {
 protected:
  EventQueue events_;
  RecordingSink sink_;
};

/// The FIFO configuration of the one EDF rule: every class budget equal
/// to the background budget and the weighted-fair override off. The
/// budget is 1 ms here (50 ms in the benches) so that throttled
/// background commands also expire within a short run.
QosConfig fifo_config(std::uint64_t throttle_depth) {
  QosConfig config;
  config.background_deadline = 1 * kMillisecond;
  config.read_deadline = config.background_deadline;
  config.write_deadline = config.background_deadline;
  config.fair_share_slack = std::numeric_limits<Duration>::max();
  config.tenant_weights = {3.0, 1.0, 0.5};
  config.gc_throttle_queue_depth = throttle_depth;
  return config;
}

TEST_F(QosSchedulerTest, UniformBudgetEdfDispatchesInSeqOrder) {
  // With one budget for every class, priority 0 and the fair-share
  // override off, a deadline is arrival + budget, which never decreases
  // with seq, so EDF must serve the lowest eligible seq — strict
  // submission order across classes and tenants, where the GC throttle
  // is the only thing that may pass over a (background) command.
  // Randomized arrivals on two chips; every arrival is a whole number of
  // microseconds and every service time a whole number plus 1 ns, so with
  // fewer than 1,000 commands per run no completion coincides with an
  // arrival and "queued at the dispatch instant" is unambiguous.
  for (const std::uint64_t throttle : {0u, 2u}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      EventQueue events;
      RecordingSink sink;
      ChipScheduler sched(2, events);
      const QosConfig config = fifo_config(throttle);
      sched.enable_qos(config, &sink);

      struct Submitted {
        std::size_t chip = 0;
        QosClass klass = QosClass::kRead;
        std::uint16_t tenant = 0;
        ChipCommand cmd;
      };
      std::vector<Submitted> submitted;
      std::mt19937_64 rng(seed);
      SimTime t = 0;
      for (std::uint64_t i = 0; i < 400; ++i) {
        t += static_cast<SimTime>(rng() % 120) * kMicrosecond;
        Submitted s{.chip = static_cast<std::size_t>(rng() % 2),
                    .klass = static_cast<QosClass>(rng() % 3),
                    .tenant = static_cast<std::uint16_t>(rng() % 3),
                    .cmd = {.die = static_cast<Duration>(20 + rng() % 200) *
                                       kMicrosecond +
                                   1}};
        submitted.push_back(s);
        events.schedule(t, [&sched, &submitted, i](SimTime now) {
          const Submitted& e = submitted[i];
          EXPECT_EQ(sched.submit_qos(e.chip, now, e.cmd, e.klass, e.tenant,
                                     /*priority=*/0, /*tag=*/i),
                    i);
        });
      }
      events.run_all();
      ASSERT_EQ(sink.records.size(), submitted.size());

      std::vector<SimTime> start(submitted.size());
      std::vector<SimTime> arrival(submitted.size());
      for (const auto& r : sink.records) {
        start[r.tag] = r.start;
        arrival[r.tag] = r.arrival;
      }
      std::uint64_t passed_over = 0;
      for (std::uint64_t r = 0; r < submitted.size(); ++r) {
        const SimTime at = start[r];
        // The chip's queue at the dispatch of `r`: its commands that had
        // arrived and not yet started (`r` itself included).
        std::uint64_t host_waiting = 0;
        for (std::uint64_t q = 0; q < submitted.size(); ++q) {
          if (submitted[q].chip == submitted[r].chip && arrival[q] <= at &&
              start[q] >= at &&
              submitted[q].klass != QosClass::kBackground) {
            ++host_waiting;
          }
        }
        for (std::uint64_t q = 0; q < r; ++q) {
          if (submitted[q].chip != submitted[r].chip || arrival[q] > at ||
              start[q] <= at) {
            continue;
          }
          // A lower seq still waiting: only a throttled, un-expired
          // background command may be passed over.
          ++passed_over;
          EXPECT_EQ(submitted[q].klass, QosClass::kBackground)
              << "seed " << seed << ": " << r << " overtook " << q;
          EXPECT_GT(throttle, 0u);
          EXPECT_GE(host_waiting, throttle);
          EXPECT_LT(at, arrival[q] + config.background_deadline);
        }
      }
      EXPECT_EQ(sched.qos_fairness_overrides(), 0u);
      if (throttle == 0) {
        EXPECT_EQ(passed_over, 0u);
        EXPECT_EQ(sched.qos_background_deferrals(), 0u);
      } else {
        EXPECT_GT(passed_over, 0u) << "seed " << seed;
        EXPECT_GT(sched.qos_background_deferrals(), 0u);
      }
    }
  }
}

TEST_F(QosSchedulerTest, DeadlineKeepsFifoWithinTenantAndPriority) {
  ChipScheduler sched(1, events_);
  sched.enable_qos(QosConfig{}, &sink_);
  // One tenant, one priority, one class: every command carries the same
  // deadline offset, so EDF ties break by sequence — FIFO.
  for (std::uint64_t i = 0; i < 20; ++i) {
    sched.submit_qos(0, 0, kRead100us, QosClass::kRead, /*tenant=*/0,
                     /*priority=*/0, /*tag=*/i);
  }
  events_.run_all();
  std::vector<std::uint64_t> expected(20);
  for (std::uint64_t i = 0; i < 20; ++i) expected[i] = i;
  EXPECT_EQ(sink_.tags(), expected);
}

TEST_F(QosSchedulerTest, DeadlineReadsOvertakeQueuedWrites) {
  ChipScheduler sched(1, events_);
  sched.enable_qos(QosConfig{}, &sink_);
  // Occupy the chip, then queue writes before reads. The read budget
  // (2 ms) undercuts the write budget (10 ms), so every queued read
  // dispatches ahead of every queued write despite arriving later.
  sched.submit_qos(0, 0, kRead100us, QosClass::kBackground, 0, 0,
                   ChipScheduler::kNoTag);
  for (std::uint64_t i = 0; i < 3; ++i) {
    sched.submit_qos(0, 0, kRead100us, QosClass::kWrite, 0, 0,
                     /*tag=*/100 + i);
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    sched.submit_qos(0, 0, kRead100us, QosClass::kRead, 0, 0, /*tag=*/i);
  }
  events_.run_all();
  EXPECT_EQ(sink_.tags(),
            (std::vector<std::uint64_t>{0, 1, 2, 100, 101, 102}));
}

TEST_F(QosSchedulerTest, HigherPriorityTightensTheDeadline) {
  ChipScheduler sched(1, events_);
  sched.enable_qos(QosConfig{}, &sink_);
  sched.submit_qos(0, 0, kRead100us, QosClass::kBackground, 0, 0,
                   ChipScheduler::kNoTag);  // occupy
  // Same class and arrival; priority 1 halves the budget, so it wins.
  sched.submit_qos(0, 0, kRead100us, QosClass::kRead, 0, /*priority=*/0,
                   /*tag=*/0);
  sched.submit_qos(0, 0, kRead100us, QosClass::kRead, 1, /*priority=*/1,
                   /*tag=*/1);
  events_.run_all();
  EXPECT_EQ(sink_.tags(), (std::vector<std::uint64_t>{1, 0}));
}

TEST_F(QosSchedulerTest, ThrottledBackgroundIsDeferredButNotStarved) {
  ChipScheduler sched(1, events_);
  QosConfig config;
  config.background_deadline = 1 * kMillisecond;
  config.gc_throttle_queue_depth = 1;
  sched.enable_qos(config, &sink_);

  // Background queued at t=0 behind an in-service command, then a host
  // read arrives every 50 µs for 40 ms — service is 100 µs/command, so
  // the host queue never empties (sustained 2x overload) and the
  // throttle keeps vetoing the background entry... until its deadline
  // expires at t=1 ms, after which EDF must dispatch it next: its
  // deadline is a millisecond older than any live read's.
  sched.submit_qos(0, 0, kRead100us, QosClass::kRead, 0, 0,
                   ChipScheduler::kNoTag);
  sched.submit_qos(0, 0, kRead100us, QosClass::kBackground, 0, 0,
                   /*tag=*/999);
  ChipScheduler* scheduler = &sched;
  for (std::uint64_t i = 0; i < 800; ++i) {
    events_.schedule(
        static_cast<SimTime>(i * 50'000),
        [scheduler](SimTime now) {
          scheduler->submit_qos(0, now, kRead100us, QosClass::kRead, 0, 0,
                                ChipScheduler::kNoTag);
        });
  }
  events_.run_all();
  ASSERT_EQ(sink_.records.size(), 1u);
  EXPECT_EQ(sink_.records[0].tag, 999u);
  // Deferred past its naive FIFO slot (~200 µs)...
  EXPECT_GT(sink_.records[0].start, 500 * kMicrosecond);
  // ...but served promptly once expired: bounded delay, not starvation.
  EXPECT_LT(sink_.records[0].completion, 2 * kMillisecond);
  EXPECT_GT(sched.qos_background_deferrals(), 0u);
}

TEST_F(QosSchedulerTest, WeightedFairShareBoundsUnderOverload) {
  ChipScheduler sched(1, events_);
  QosConfig config;
  config.tenant_weights = {3.0, 1.0};
  config.fair_share_slack = 200 * kMicrosecond;
  sched.enable_qos(config, &sink_);

  // Both tenants flood the chip at t=0 with identical commands — same
  // class, same deadlines, alternating submission. Raw EDF would serve
  // them 1:1; the weighted-fair override must steer service toward the
  // weight-3 tenant at ~3:1.
  for (std::uint64_t i = 0; i < 150; ++i) {
    sched.submit_qos(0, 0, kRead100us, QosClass::kRead, /*tenant=*/0, 0,
                     /*tag=*/i * 2);
    sched.submit_qos(0, 0, kRead100us, QosClass::kRead, /*tenant=*/1, 0,
                     /*tag=*/i * 2 + 1);
  }
  events_.run_all();
  ASSERT_EQ(sink_.records.size(), 300u);
  std::uint64_t heavy = 0;
  for (std::size_t i = 0; i < 100; ++i) {  // first 100 services
    if (sink_.records[i].tag % 2 == 0) ++heavy;
  }
  // Weight 3 of 4 => ~75 of the first 100 services; allow slop for the
  // override's slack hysteresis.
  EXPECT_GE(heavy, 65u);
  EXPECT_LE(heavy, 85u);
  EXPECT_GT(sched.qos_fairness_overrides(), 0u);
}

TEST_F(QosSchedulerTest, EveryCommandCompletesExactlyOnce) {
  // Conservation under everything at once: two chips, three tenants,
  // mixed classes/priorities, throttling and fairness active.
  ChipScheduler sched(2, events_);
  QosConfig config;
  config.tenant_weights = {2.0, 1.0, 1.0};
  config.gc_throttle_queue_depth = 2;
  sched.enable_qos(config, &sink_);
  std::uint64_t submitted = 0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const auto klass = static_cast<QosClass>(i % 3);
    sched.submit_qos(i % 2, (i / 6) * 30'000, kRead100us, klass,
                     static_cast<std::uint16_t>(i % 3),
                     static_cast<std::uint8_t>(i % 2), /*tag=*/i);
    ++submitted;
  }
  events_.run_all();
  ASSERT_EQ(sink_.records.size(), submitted);
  std::vector<std::uint64_t> tags = sink_.tags();
  std::sort(tags.begin(), tags.end());
  for (std::uint64_t i = 0; i < submitted; ++i) EXPECT_EQ(tags[i], i);
  // Service never overlaps on a chip and never precedes arrival.
  for (const auto& r : sink_.records) {
    EXPECT_GE(r.start, r.arrival);
    EXPECT_EQ(r.completion, r.start + kRead100us.total());
  }
}

TEST_F(QosSchedulerTest, PendingHighWaterTracksBacklog) {
  ChipScheduler sched(1, events_);
  sched.enable_qos(QosConfig{}, &sink_);
  for (std::uint64_t i = 0; i < 8; ++i) {
    sched.submit_qos(0, 0, kRead100us, QosClass::kRead, 0, 0, /*tag=*/i);
  }
  // One in service, seven queued.
  EXPECT_EQ(sched.qos_pending_high_water(), 7u);
  events_.run_all();
  EXPECT_EQ(sched.qos_pending_high_water(), 7u);  // sticky high water
  sched.reset_stats();
  EXPECT_EQ(sched.qos_pending_high_water(), 0u);  // re-based on empty queue
}

TEST_F(QosSchedulerTest, LegacySubmitUnaffectedByQosMode) {
  // The legacy immediate-reservation path must answer identically with
  // QoS enabled (it serves the prefill/preconditioning phases).
  EventQueue legacy_events;
  ChipScheduler legacy(2, legacy_events);
  ChipScheduler qos(2, events_);
  qos.enable_qos(QosConfig{}, &sink_);
  for (int i = 0; i < 10; ++i) {
    const auto chip = static_cast<std::size_t>(i % 2);
    const SimTime arrival = i * 40'000;
    EXPECT_EQ(legacy.submit(chip, arrival, kRead100us),
              qos.submit(chip, arrival, kRead100us));
  }
  legacy_events.run_all();
  events_.run_all();
  EXPECT_EQ(legacy.stats(), qos.stats());
}

}  // namespace
}  // namespace flex::ssd
