#include "ssd/latency_model.h"

#include <vector>

#include <gtest/gtest.h>

namespace flex::ssd {
namespace {

TEST(LatencyModelTest, HardReadAnatomy) {
  const LatencyModel model;
  // 90 us sense + 40 us transfer + 10 us decode.
  EXPECT_EQ(model.read_fixed(0), 140 * kMicrosecond);
}

TEST(LatencyModelTest, FixedGrowsLinearlyWithLevels) {
  const LatencyModel model;
  const Duration base = model.read_fixed(0);
  const Duration per_level = model.extra_sense_per_level +
                             model.extra_transfer_per_level +
                             model.decode_per_level;
  for (int levels = 1; levels <= 6; ++levels) {
    EXPECT_EQ(model.read_fixed(levels), base + levels * per_level);
  }
}

TEST(LatencyModelTest, PlanEqualsFixedWhenHardSucceeds) {
  const LatencyModel model;
  const reliability::SensingRequirement ladder;
  EXPECT_EQ(model.read_latency({.required_levels = 0}, ladder),
            model.read_fixed(0));
}

TEST(LatencyModelTest, PlanPaysRetryDecodes) {
  const LatencyModel model;
  const reliability::SensingRequirement ladder;
  // Needing 1 level: failed hard decode + incremental sense/transfer +
  // second decode at 1 level.
  const Duration expected = model.read_fixed(0) + model.extra_sense_per_level +
                            model.extra_transfer_per_level +
                            model.decode_base + model.decode_per_level;
  EXPECT_EQ(model.read_latency({.required_levels = 1}, ladder), expected);
}

TEST(LatencyModelTest, PlanBelowFixedWorstCaseForShallowReads) {
  // The whole point of progressive sensing: cheap reads stay cheap even on
  // a controller provisioned for 6 levels.
  const LatencyModel model;
  const reliability::SensingRequirement ladder;
  EXPECT_LT(model.read_latency({.required_levels = 0}, ladder),
            model.read_fixed(6));
  EXPECT_LT(model.read_latency({.required_levels = 2}, ladder),
            model.read_fixed(6));
}

TEST(LatencyModelTest, PlanAboveFixedAtSameDepth) {
  // ...but a deep progressive read pays for its failed attempts.
  const LatencyModel model;
  const reliability::SensingRequirement ladder;
  EXPECT_GT(model.read_latency({.required_levels = 6}, ladder),
            model.read_fixed(6));
}

TEST(LatencyModelTest, PlanMonotoneInRequiredLevels) {
  const LatencyModel model;
  const reliability::SensingRequirement ladder;
  Duration prev = 0;
  for (const int levels : {0, 1, 2, 4, 6}) {
    const Duration d = model.read_latency({.required_levels = levels}, ladder);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(LatencyModelTest, PlanMatchesPinnedClosedForm) {
  // Pin the ReadPlan walk to hand-computed ladder arithmetic so an API
  // regression cannot silently shift costs. The walk over the Table-5
  // ladder {0,1,2,4,6} starting at `s` and requiring `r` pays: a base
  // sense + transfer once, the incremental per-level sense/transfer of
  // every level up to the first step >= r (a hinted start still senses its
  // levels — it only skips the failed decodes below it), and one decode
  // per visited step.
  const LatencyModel model;
  const reliability::SensingRequirement ladder;
  const int steps[] = {0, 1, 2, 4, 6};
  for (const int start : {0, 1, 2, 4, 6}) {
    for (const int required : {0, 1, 2, 4, 6}) {
      ReadCost expected{.die = model.spec.read_latency,
                        .channel = model.spec.page_transfer_latency};
      int prev = 0;
      for (const int level : steps) {
        if (level < start) continue;
        const int delta = level - prev;
        prev = level;
        expected.die += delta * model.extra_sense_per_level;
        expected.channel += delta * model.extra_transfer_per_level;
        expected.controller += model.decode_time(level);
        if (level >= required) break;
      }
      const ReadCost actual = model.read_cost(
          {.start_levels = start, .required_levels = required}, ladder);
      EXPECT_EQ(actual.die, expected.die) << start << "/" << required;
      EXPECT_EQ(actual.channel, expected.channel) << start << "/" << required;
      EXPECT_EQ(actual.controller, expected.controller)
          << start << "/" << required;
    }
  }
}

TEST(LatencyModelTest, AttemptsSumToClosedFormCost) {
  // The telemetry decomposition must be exact: summing each attempt's
  // incremental cost reproduces the cost the same read_cost call returns,
  // component by component (all integer ns, so equality is strict), and
  // asking for the attempts never changes that cost.
  const LatencyModel model;
  const reliability::SensingRequirement ladder;
  for (const int start : {0, 1, 2, 4, 6}) {
    for (const int required : {0, 1, 2, 4, 6}) {
      const ReadPlan plan{.start_levels = start, .required_levels = required};
      std::vector<ReadAttempt> attempts;
      const ReadCost closed = model.read_cost(plan, ladder, &attempts);
      EXPECT_EQ(closed.total(), model.read_latency(plan, ladder))
          << start << "/" << required;
      ASSERT_FALSE(attempts.empty()) << start << "/" << required;
      ReadCost sum;
      for (const auto& attempt : attempts) {
        sum.die += attempt.cost.die;
        sum.channel += attempt.cost.channel;
        sum.controller += attempt.cost.controller;
      }
      EXPECT_EQ(sum.die, closed.die) << start << "/" << required;
      EXPECT_EQ(sum.channel, closed.channel) << start << "/" << required;
      EXPECT_EQ(sum.controller, closed.controller) << start << "/" << required;
      // The final attempt decodes at (at least) the required depth.
      EXPECT_GE(attempts.back().levels, required);
    }
  }
}

TEST(LatencyModelTest, MeasuredDecodeReplacesTable) {
  LatencyModel model;
  model.measured_decode = {11 * kMicrosecond, 13 * kMicrosecond,
                           17 * kMicrosecond};
  EXPECT_EQ(model.decode_time(0), 11 * kMicrosecond);
  EXPECT_EQ(model.decode_time(2), 17 * kMicrosecond);
  // Levels past the last entry clamp to it.
  EXPECT_EQ(model.decode_time(6), 17 * kMicrosecond);
  model.measured_decode.clear();
  EXPECT_EQ(model.decode_time(2),
            model.decode_base + 2 * model.decode_per_level);
}

TEST(LatencyModelTest, Table6Passthroughs) {
  const LatencyModel model;
  EXPECT_EQ(model.program(), 1000 * kMicrosecond);
  EXPECT_EQ(model.erase(), 3 * kMillisecond);
}

}  // namespace
}  // namespace flex::ssd
