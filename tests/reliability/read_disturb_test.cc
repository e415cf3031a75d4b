// Unit tests for the read-disturb error model (Cai et al., DSN'15 —
// see reliability/read_disturb.h).
#include "reliability/read_disturb.h"

#include <bit>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "reliability/ber_model.h"

namespace flex::reliability {
namespace {

class ReadDisturbTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(99);
    const BerEngine::Config mc{
        .wordlines = 32, .bitlines = 128, .rounds = 2, .coupling = {}};
    static const GrayMapper gray;
    static const flexlevel::ReduceCodeMapper reduce;
    normal_ = new BerModel(nand::LevelConfig::baseline_mlc(), gray,
                           RetentionModel{}, mc, rng);
    // Same 3-level geometry and mapper, differing only in verify placement:
    // isolates NUNMA's margin trade from occupancy/damage effects.
    basic_reduced_ =
        new BerModel(flexlevel::nunma_config(flexlevel::NunmaScheme::kBasic),
                     reduce, RetentionModel{}, mc, rng);
    nunma_reduced_ = new BerModel(
        flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
        RetentionModel{}, mc, rng);
  }
  static void TearDownTestSuite() {
    delete normal_;
    delete basic_reduced_;
    delete nunma_reduced_;
    normal_ = basic_reduced_ = nunma_reduced_ = nullptr;
  }

  static BerModel* normal_;
  static BerModel* basic_reduced_;
  static BerModel* nunma_reduced_;
};

BerModel* ReadDisturbTest::normal_ = nullptr;
BerModel* ReadDisturbTest::basic_reduced_ = nullptr;
BerModel* ReadDisturbTest::nunma_reduced_ = nullptr;

TEST_F(ReadDisturbTest, FreshBlockHasNoDisturbTerm) {
  const ReadDisturbModel model({}, *normal_);
  EXPECT_EQ(model.ber(0), 0.0);
}

TEST_F(ReadDisturbTest, ShiftIsLinearInReads) {
  const ReadDisturbModel model({}, *normal_);
  const Volt one = model.vth_shift(1);
  EXPECT_GT(one, 0.0);
  EXPECT_DOUBLE_EQ(model.vth_shift(1000), 1000.0 * one);
}

TEST_F(ReadDisturbTest, NeighborAmplificationScalesShift) {
  ReadDisturbModel::Params flat;
  flat.neighbor_amplification = 1.0;
  ReadDisturbModel::Params boosted = flat;
  boosted.neighbor_amplification = 2.0;
  const ReadDisturbModel a(flat, *normal_);
  const ReadDisturbModel b(boosted, *normal_);
  EXPECT_DOUBLE_EQ(b.vth_shift(500), 2.0 * a.vth_shift(500));
}

TEST_F(ReadDisturbTest, BerIsMonotoneInReads) {
  const ReadDisturbModel model({}, *normal_);
  double prev = 0.0;
  for (const std::uint64_t reads :
       {100ULL, 1'000ULL, 10'000ULL, 100'000ULL, 1'000'000ULL}) {
    const double ber = model.ber(reads);
    EXPECT_GE(ber, prev) << reads;
    prev = ber;
  }
  EXPECT_GT(prev, 0.0);
}

TEST_F(ReadDisturbTest, ErasedStateDominatesEarly) {
  // Cai et al.: ER-state cells contribute the dominant share of disturb
  // errors. At stress levels well below any programmed level's C2C margin,
  // removing the erased amplification collapses the BER.
  ReadDisturbModel::Params amplified;  // default erased_amplification = 4
  ReadDisturbModel::Params flat;
  flat.erased_amplification = 1.0;
  const ReadDisturbModel hot(amplified, *normal_);
  const ReadDisturbModel cold(flat, *normal_);
  const std::uint64_t reads = 20'000;  // shift ~0.12 V << 0.50 V margin
  EXPECT_GT(hot.ber(reads), 10.0 * cold.ber(reads));
}

TEST_F(ReadDisturbTest, NunmaMarginIsPreSpent) {
  // NUNMA 3 raises the verify voltages for retention margin, pre-spending
  // C2C margin (0.65 V vs basic LevelAdjust's 0.70 V at level 1). At a
  // shift between the two margins, only the NUNMA cell's programmed level
  // crosses its upper read reference — same geometry otherwise, so the
  // difference is exactly the LevelAdjust/disturb interaction.
  ReadDisturbModel::Params params;
  params.erased_amplification = 1.0;  // keep the shared erased term small
  params.neighbor_amplification = 1.0;
  const ReadDisturbModel basic(params, *basic_reduced_);
  const ReadDisturbModel nunma(params, *nunma_reduced_);
  const auto reads_for = [&](Volt shift) {
    return static_cast<std::uint64_t>(shift / params.vth_shift_per_read);
  };
  // Below both margins: identical (erased term only).
  EXPECT_DOUBLE_EQ(nunma.ber(reads_for(0.60)), basic.ber(reads_for(0.60)));
  // Between the margins: NUNMA pays, basic does not yet.
  EXPECT_GT(nunma.ber(reads_for(0.675)), basic.ber(reads_for(0.675)));
}

TEST_F(ReadDisturbTest, SaturatesAtFullLevelLoss) {
  // Once the shift exceeds margin + vpp for every non-top level and the
  // erased tail is fully across, the BER stops growing (all vulnerable
  // cells have bumped).
  const ReadDisturbModel model({}, *normal_);
  EXPECT_DOUBLE_EQ(model.ber(100'000'000), model.ber(200'000'000));
}

TEST_F(ReadDisturbTest, TableIsTheClosedFormBitForBit) {
  // ber() reads a table built from compute_ber() below kTabledStresses and
  // evaluates compute_ber() above it. Every tabled stress must hold the
  // exact double the closed form returns, for both modes' geometries and
  // every stress setting the benches use: the defaults, the accelerated
  // 1.8e-4 V/read of flexbench worn-read, ablation_disturb and
  // ablation_thresholds, and flat and boosted amplifications.
  ReadDisturbModel::Params accelerated;
  accelerated.vth_shift_per_read = 1.8e-4;
  ReadDisturbModel::Params flat = accelerated;
  flat.erased_amplification = 1.0;
  flat.neighbor_amplification = 1.0;
  ReadDisturbModel::Params boosted = accelerated;
  boosted.neighbor_amplification = 2.0;
  constexpr std::uint64_t kN = ReadDisturbModel::kTabledStresses;
  for (const BerModel* mode : {normal_, basic_reduced_, nunma_reduced_}) {
    for (const auto& params : {ReadDisturbModel::Params{}, accelerated, flat,
                               boosted}) {
      const ReadDisturbModel model(params, *mode);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(model.ber(0)),
                std::bit_cast<std::uint64_t>(0.0));
      for (std::uint64_t r = 0; r < kN; ++r) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(model.ber(r)),
                  std::bit_cast<std::uint64_t>(model.compute_ber(r)))
            << "stress " << r << " shift/read " << params.vth_shift_per_read;
      }
      // Past the table: the closed form itself.
      for (const std::uint64_t r : {kN, kN + 1, 10 * kN}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(model.ber(r)),
                  std::bit_cast<std::uint64_t>(model.compute_ber(r)))
            << "stress " << r;
      }
    }
  }
}

}  // namespace
}  // namespace flex::reliability
