#include "reliability/read_channel.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "reliability/ber_model.h"

namespace flex::reliability {
namespace {

BerEngine::Config small_mc() {
  return {.wordlines = 32, .bitlines = 128, .rounds = 2,
          .coupling = nand::CouplingRatios{}};
}

/// Models shared by every fixture: the heavy Monte-Carlo construction runs
/// once for the whole test binary.
struct Models {
  Rng rng{7};
  GrayMapper gray;
  flexlevel::ReduceCodeMapper reduce;
  BerModel normal{nand::LevelConfig::baseline_mlc(), gray, RetentionModel{},
                  small_mc(), rng};
  BerModel reduced{flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3),
                   reduce, RetentionModel{}, small_mc(), rng};
};

Models& models() {
  static Models* m = new Models();
  return *m;
}

ReadChannel::Params params(ReadChannelConfig config, bool disturb = false) {
  ReadChannel::Params p;
  p.config = config;
  p.disturb_enabled = disturb;
  // Accelerated stress so moderate read counts reach the disturb regime.
  p.disturb.vth_shift_per_read = 2.0e-4;
  p.pages_per_block = 64;
  p.physical_blocks = 32;
  return p;
}

TEST(ReadChannelTest, OffModeMatchesSeedArithmetic) {
  // With every feature off the facade must reproduce the seed read path's
  // exact arithmetic: cached total_ber plus the per-read disturb term,
  // pushed through the Table-5 ladder.
  auto& m = models();
  ReadChannel channel(params({}, /*disturb=*/true), m.normal, m.reduced);
  const ReadDisturbModel disturb_normal(params({}, true).disturb, m.normal);
  const ReadDisturbModel disturb_reduced(params({}, true).disturb, m.reduced);
  const SensingRequirement ladder;
  for (const bool reduced : {false, true}) {
    for (const std::uint32_t pe : {0u, 3000u, 9000u}) {
      for (const Hours age : {0.0, 10.0, 4000.0}) {
        for (const std::uint64_t reads : {0ull, 5000ull}) {
          const BerModel& model = reduced ? m.reduced : m.normal;
          double ber = model.total_ber(static_cast<int>(pe), age);
          ber += (reduced ? disturb_reduced : disturb_normal).ber(reads);
          bool expect_ok = true;
          const int expect = ladder.required_levels(ber, &expect_ok);
          const auto got = channel.assess(reduced, pe, age, /*ppn=*/17, reads);
          EXPECT_EQ(got.required_levels, expect)
              << reduced << "/" << pe << "/" << age << "/" << reads;
          EXPECT_EQ(got.correctable, expect_ok);
        }
      }
    }
  }
  EXPECT_EQ(channel.stats().calibrations, 0u);
  EXPECT_EQ(channel.ladder().steps()[0].max_raw_ber,
            SensingRequirement().steps()[0].max_raw_ber);
}

TEST(ReadChannelTest, AdaptiveNeverNeedsDeeperSensing) {
  // Threshold tracking can only return margin: across wear, age and
  // disturb the re-centered references require at most the static ladder
  // depth.
  auto& m = models();
  ReadChannelConfig adaptive;
  adaptive.enabled = true;
  adaptive.adaptive_thresholds = true;
  ReadChannel tracked(params(adaptive, true), m.normal, m.reduced);
  ReadChannel static_ref(params({}, true), m.normal, m.reduced);
  for (const std::uint32_t pe : {1000u, 6000u, 12000u}) {
    for (const Hours age : {0.0, 500.0, 4000.0}) {
      for (const std::uint64_t reads : {0ull, 2000ull, 20000ull}) {
        const auto a = tracked.assess(false, pe, age, /*ppn=*/0, reads);
        const auto s = static_ref.assess(false, pe, age, /*ppn=*/0, reads);
        EXPECT_LE(a.required_levels, s.required_levels)
            << pe << "/" << age << "/" << reads;
      }
    }
  }
}

TEST(ReadChannelTest, EstimatorConvergesUnderDriftingDisturb) {
  // A block accumulating reads drifts upward; the estimator re-calibrates
  // every kCalibrateInterval reads, so with full-gain tracking the
  // required depth stays pinned at the fresh-block level where the
  // untracked channel escalates. (At the default gain of 0.9 a tenth of
  // the drift is left over and reaches the static worst case by 60k reads.)
  auto& m = models();
  ReadChannelConfig adaptive;
  adaptive.enabled = true;
  adaptive.adaptive_thresholds = true;
  adaptive.tracking_gain = 1.0;
  ReadChannel tracked(params(adaptive, true), m.normal, m.reduced);
  ReadChannel static_ref(params({}, true), m.normal, m.reduced);
  const std::uint32_t pe = 3000;
  const Hours age = 100.0;
  const int fresh =
      static_ref.assess(false, pe, age, 0, 0).required_levels;
  int tracked_worst = 0;
  int static_worst = 0;
  for (std::uint64_t reads = 0; reads <= 60000; reads += 500) {
    tracked_worst = std::max(
        tracked_worst, tracked.assess(false, pe, age, 0, reads).required_levels);
    static_worst = std::max(
        static_worst,
        static_ref.assess(false, pe, age, 0, reads).required_levels);
  }
  // The residual drift between calibrations is at most kCalibrateInterval
  // reads' worth — the fresh requirement plus at most one ladder step.
  EXPECT_LE(tracked_worst, fresh + 1);
  EXPECT_GT(static_worst, tracked_worst);
  EXPECT_GT(tracked.stats().calibrations, 0u);
}

TEST(ReadChannelTest, EraseResetsCalibrationState) {
  auto& m = models();
  ReadChannelConfig adaptive;
  adaptive.enabled = true;
  adaptive.adaptive_thresholds = true;
  ReadChannel channel(params(adaptive, true), m.normal, m.reduced);
  channel.assess(false, 3000, 100.0, /*ppn=*/0, /*block_reads=*/5000);
  EXPECT_GT(channel.stats().calibrations, 0u);
  EXPECT_EQ(channel.stats().resets, 0u);
  // The FTL read counter moving backwards means the block was erased: the
  // stale calibration must not keep compensating vanished drift.
  const auto fresh = channel.assess(false, 3000, 100.0, 0, 10);
  EXPECT_EQ(channel.stats().resets, 1u);
  ReadChannel control(params(adaptive, true), m.normal, m.reduced);
  const auto expect = control.assess(false, 3000, 100.0, 0, 10);
  EXPECT_EQ(fresh.required_levels, expect.required_levels);
}

TEST(ReadChannelTest, MiLadderCapsDominateUniform) {
  // The MI quantizer keeps more soft information per strobe, so every
  // soft step tolerates at least the uniform-quantizer cap; the hard step
  // has one immovable boundary and stays put.
  auto& m = models();
  ReadChannelConfig mi;
  mi.enabled = true;
  mi.quantizer = ChannelQuantizer::kMiOptimized;
  ReadChannel channel(params(mi), m.normal, m.reduced);
  const SensingRequirement uniform;
  const auto& calibrated = channel.ladder().steps();
  ASSERT_EQ(calibrated.size(), uniform.steps().size());
  EXPECT_DOUBLE_EQ(calibrated[0].max_raw_ber, uniform.steps()[0].max_raw_ber);
  for (std::size_t i = 1; i < calibrated.size(); ++i) {
    EXPECT_GE(calibrated[i].max_raw_ber, uniform.steps()[i].max_raw_ber) << i;
    EXPECT_EQ(calibrated[i].extra_levels, uniform.steps()[i].extra_levels);
  }
  // At least one soft step must strictly improve or the calibration is
  // vacuous.
  EXPECT_GT(calibrated[4].max_raw_ber, uniform.steps()[4].max_raw_ber);
}

TEST(ReadChannelTest, MeasuredDecodeTimesAreDeterministic) {
  auto& m = models();
  ReadChannelConfig measured;
  measured.enabled = true;
  measured.decode_latency = DecodeLatencyMode::kMeasured;
  ReadChannel a(params(measured), m.normal, m.reduced);
  ReadChannel b(params(measured), m.normal, m.reduced);
  ASSERT_EQ(a.step_iterations().size(), a.ladder().steps().size());
  EXPECT_EQ(a.step_iterations(), b.step_iterations());
  const Duration per_iteration = 3 * kMicrosecond;
  const Duration overhead = 4 * kMicrosecond;
  const auto times = a.measured_decode_times(per_iteration, overhead);
  const int deepest = a.ladder().steps().back().extra_levels;
  ASSERT_EQ(times.size(), static_cast<std::size_t>(deepest) + 1);
  for (const Duration t : times) {
    // Every attempt runs at least one min-sum iteration.
    EXPECT_GE(t, overhead + per_iteration);
  }
  EXPECT_EQ(times, b.measured_decode_times(per_iteration, overhead));
}

TEST(ReadChannelTest, DefaultCalibrationIterationsArePinned) {
  // The default measured-decode calibration (seed 0xCA11B, 4 trials per
  // step) under both quantisers, recorded from the row-serial CSR decoder
  // that preceded the quasi-cyclic kernel: the decoder may get faster, but
  // the iteration counts that become simulated decode latency may not move.
  auto& m = models();
  ReadChannelConfig measured;
  measured.enabled = true;
  measured.decode_latency = DecodeLatencyMode::kMeasured;
  static_assert(kCalibrationSeed == 0xCA11B && kCalibrationTrials == 4);
  const ReadChannel uniform(params(measured), m.normal, m.reduced);
  EXPECT_EQ(uniform.step_iterations(),
            (std::vector<double>{2.75, 3, 2.5, 3.5, 24.75}));
  measured.quantizer = ChannelQuantizer::kMiOptimized;
  const ReadChannel mi(params(measured), m.normal, m.reduced);
  EXPECT_EQ(mi.step_iterations(),
            (std::vector<double>{2.75, 3, 2.75, 3.25, 24.25}));
}

TEST(ReadChannelTest, MeanRetentionLossPhysical) {
  auto& m = models();
  EXPECT_DOUBLE_EQ(m.normal.mean_retention_loss(3000, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.normal.mean_retention_loss(0, 100.0), 0.0);
  double prev = 0.0;
  for (const Hours age : {1.0, 10.0, 100.0, 1000.0}) {
    const double loss = m.normal.mean_retention_loss(6000, age);
    EXPECT_GT(loss, prev);  // charge loss grows with retention age
    prev = loss;
  }
  // Re-centering by the mean loss must shrink the retention BER: the
  // shifted references sit where the drifted distribution actually is.
  const double shifted = m.normal.retention_ber(
      6000, 1000.0, m.normal.mean_retention_loss(6000, 1000.0));
  EXPECT_LT(shifted, m.normal.retention_ber(6000, 1000.0));
}

}  // namespace
}  // namespace flex::reliability
