#include "ldpc/decoder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <tuple>

#include "common/crc64.h"
#include "common/rng.h"
#include "ldpc/channel.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_code.h"
#include "reliability/sensing_solver.h"

namespace flex::ldpc {
namespace {

std::vector<std::uint8_t> random_bits(int n, Rng& rng) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(n));
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.below(2));
  return bits;
}

// Fraction of codewords decoded back to the transmitted word.
double decode_success_rate(const QcLdpcCode& code, double raw_ber,
                           int extra_levels, int trials, Rng& rng) {
  const Encoder encoder(code);
  const Decoder decoder(code);
  const SensingChannel channel(raw_ber, extra_levels);
  int success = 0;
  for (int t = 0; t < trials; ++t) {
    const auto message = random_bits(code.k(), rng);
    const auto cw = encoder.encode(message);
    const auto llrs = channel.transmit(cw, rng);
    const DecodeResult result = decoder.decode(llrs);
    if (result.success && result.bits == cw) ++success;
  }
  return static_cast<double>(success) / trials;
}

TEST(DecoderTest, NoiselessInputConvergesImmediately) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  const Encoder encoder(code);
  const Decoder decoder(code);
  Rng rng(1);
  const auto cw = encoder.encode(random_bits(code.k(), rng));
  std::vector<float> llrs(static_cast<std::size_t>(code.n()));
  for (int i = 0; i < code.n(); ++i) {
    llrs[static_cast<std::size_t>(i)] =
        cw[static_cast<std::size_t>(i)] ? -8.0f : 8.0f;
  }
  const DecodeResult result = decoder.decode(llrs);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.bits, cw);
}

TEST(DecoderTest, CorrectsFewFlippedBits) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  const Encoder encoder(code);
  const Decoder decoder(code);
  Rng rng(2);
  const auto cw = encoder.encode(random_bits(code.k(), rng));
  std::vector<float> llrs(static_cast<std::size_t>(code.n()));
  for (int i = 0; i < code.n(); ++i) {
    llrs[static_cast<std::size_t>(i)] =
        cw[static_cast<std::size_t>(i)] ? -4.0f : 4.0f;
  }
  // Flip 4 random bit beliefs.
  for (int e = 0; e < 4; ++e) {
    const auto pos = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(code.n())));
    llrs[pos] = -llrs[pos];
  }
  const DecodeResult result = decoder.decode(llrs);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.bits, cw);
  EXPECT_GT(result.iterations, 0);
}

TEST(DecoderTest, HardDecisionCorrectsLowBer) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  Rng rng(3);
  EXPECT_GE(decode_success_rate(code, 2e-3, 0, 40, rng), 0.975);
}

TEST(DecoderTest, SoftBeatsHardAtHighBer) {
  // The central claim behind Table 5: at a raw BER where hard decoding
  // collapses, soft sensing levels restore decodability.
  const QcLdpcCode code = QcLdpcCode::paper_code();
  Rng rng(4);
  // 1.3e-2 sits past the hard-decision collapse of this code (~1e-2) but
  // comfortably inside the 6-level soft region (~1.8e-2).
  const double ber = 1.3e-2;
  const double hard = decode_success_rate(code, ber, 0, 12, rng);
  const double soft = decode_success_rate(code, ber, 6, 12, rng);
  EXPECT_LT(hard, 0.5) << "hard decoding unexpectedly strong";
  EXPECT_GE(soft, 0.9) << "soft decoding unexpectedly weak";
}

TEST(DecoderTest, CorrectionCapabilityGrowsWithLevels) {
  // Monotonicity along the sensing ladder at a mid-range BER.
  const QcLdpcCode code = QcLdpcCode::paper_code();
  Rng rng(5);
  const double ber = 7.5e-3;
  const double l0 = decode_success_rate(code, ber, 0, 10, rng);
  const double l6 = decode_success_rate(code, ber, 6, 10, rng);
  EXPECT_LE(l0, l6 + 1e-9);
  EXPECT_GE(l6, 0.9);
}

TEST(DecoderTest, ReportsFailureHonestly) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  const Decoder decoder(code, {.max_iterations = 5, .normalization = 0.75f});
  Rng rng(6);
  // Garbage input: success must be false (no silent wrong answers).
  std::vector<float> llrs(static_cast<std::size_t>(code.n()));
  for (auto& l : llrs) l = static_cast<float>(rng.uniform(-1.0, 1.0));
  const DecodeResult result = decoder.decode(llrs);
  if (!result.success) {
    EXPECT_EQ(result.iterations, 5);
  }
  // (If it "converged", it converged to *some* codeword — verify that.)
  if (result.success) {
    EXPECT_TRUE(code.check(result.bits));
  }
}

TEST(DecoderTest, IterationCountGrowsWithNoise) {
  const QcLdpcCode code = QcLdpcCode::paper_code();
  const Encoder encoder(code);
  const Decoder decoder(code);
  Rng rng(7);
  auto mean_iters = [&](double ber) {
    const SensingChannel channel(ber, 6);
    double total = 0;
    const int trials = 6;
    for (int t = 0; t < trials; ++t) {
      const auto cw = encoder.encode(random_bits(code.k(), rng));
      const auto llrs = channel.transmit(cw, rng);
      total += decoder.decode(llrs).iterations;
    }
    return total / trials;
  };
  EXPECT_LT(mean_iters(1e-3), mean_iters(1.2e-2));
}

// What a decode is pinned by: the iteration count, the convergence flag
// and the CRC-64 of the hard decisions.
struct Pin {
  int iterations = 0;
  bool success = false;
  std::uint64_t bits_crc = 0;
  bool operator==(const Pin&) const = default;
};

void PrintTo(const Pin& pin, std::ostream* os) {
  char crc[24];
  std::snprintf(crc, sizeof crc, "0x%016llX",
                static_cast<unsigned long long>(pin.bits_crc));
  *os << "{" << pin.iterations << ", " << (pin.success ? "true" : "false")
      << ", " << crc << "ULL}";
}

Pin pin_of(const DecodeResult& result) {
  return {result.iterations, result.success,
          crc64(result.bits.data(), result.bits.size())};
}

// One encoded random codeword sent through a quantised sensing channel.
std::vector<float> noisy_frame(const QcLdpcCode& code, double ber, int levels,
                               QuantizerKind quantizer, std::uint64_t seed) {
  Rng rng(seed);
  const auto cw = Encoder(code).encode(random_bits(code.k(), rng));
  return SensingChannel(ber, levels, quantizer).transmit(cw, rng);
}

TEST(DecoderTest, PinnedFramesMatchParent) {
  // Bit-identity pins for the decoder kernel. Every expected value was
  // recorded from the row-serial CSR decoder that preceded the
  // quasi-cyclic kernel, so a changed layer order, a wrong circulant
  // rotation or a wrong min/second-min pick shows up here as a moved
  // iteration count or a moved CRC. (Ties are invisible by construction:
  // equal minima leave min1 == min2, so whichever edge counts as the
  // first minimum, every edge gets the same magnitude.)
  const QcLdpcCode paper = QcLdpcCode::paper_code();
  const Decoder min_sum(paper);
  const Decoder sum_product(
      paper, {.algorithm = Decoder::Algorithm::kSumProduct});

  // Paper code: every ladder step at 0.8x, 1.0x and 1.3x its BER cap, under
  // both quantisers, two frames per point (60 frames; the deepest step's
  // harder points fail and run to max_iterations).
  const std::vector<Pin> kPaper = {
      {3, true, 0xB8203385763BE38BULL}, {2, true, 0x95D96B489F1ABE92ULL},
      {2, true, 0x5CF37641D199C1BFULL}, {3, true, 0x37CC4F6ABB517AEFULL},
      {4, true, 0x7CAC035DC9EC6838ULL}, {5, true, 0x6FA78DE19B10AE1CULL},
      {3, true, 0x0913B1746E6D0D85ULL}, {2, true, 0x81CB5164EE03F21CULL},
      {3, true, 0x3E2F0BFD8476D0BCULL}, {3, true, 0x58F2CA40406E8164ULL},
      {4, true, 0x593A73B7A49BCD1BULL}, {3, true, 0x8D9272715011B63CULL},
      {3, true, 0x319DF5B3BB955F49ULL}, {2, true, 0x50BED3ADBFE9F7C1ULL},
      {3, true, 0x9E37E54860FD2161ULL}, {3, true, 0xC893E84C89B47BE7ULL},
      {4, true, 0x5933CEBD0B175753ULL}, {3, true, 0xDA2FBBB233492CD3ULL},
      {2, true, 0xEB8964726150A83EULL}, {3, true, 0x024A6D9897246A61ULL},
      {3, true, 0x3A162B26900E84D5ULL}, {3, true, 0x24F0E8EDC482E198ULL},
      {3, true, 0x4A4C9CE85E3D86E4ULL}, {3, true, 0xB00633F5A30A81BCULL},
      {2, true, 0x1CC3D2F32AAFBC78ULL}, {2, true, 0x3AA64503E7B3006FULL},
      {3, true, 0xDDAA11040C28DCE9ULL}, {2, true, 0xD8D772E91A6C7FEBULL},
      {2, true, 0xE1AB3BC9AC0FCA95ULL}, {2, true, 0xE43C09B474211035ULL},
      {2, true, 0x6FC1BBEDD870255DULL}, {3, true, 0x7AB15280DC254BF5ULL},
      {2, true, 0xFD71D0E7E6C49311ULL}, {2, true, 0x62197FF244ED8C38ULL},
      {3, true, 0x1ED0688E3D329B9FULL}, {3, true, 0xF14CF1477F584A11ULL},
      {3, true, 0x1DFE7D82C4459977ULL}, {3, true, 0x2AA23FD0E6BD2E34ULL},
      {4, true, 0x095E39F8E90A7AAEULL}, {3, true, 0xCA230E8292A20F54ULL},
      {5, true, 0x58EF3FBD9E03FD1FULL}, {5, true, 0xF19BF1E4606161EEULL},
      {3, true, 0x6D10F21A8FB5258FULL}, {2, true, 0xC672C8C6C19463C8ULL},
      {3, true, 0xC94964E5E0684FAAULL}, {4, true, 0x63064B5BC8C27BA0ULL},
      {4, true, 0xB58912DF53985570ULL}, {5, true, 0xE24E932923DF1ED2ULL},
      {5, true, 0x99C4FC1993C9FDC7ULL}, {5, true, 0x104979E8048D8A30ULL},
      {9, true, 0x7EA2363CB68C9690ULL}, {30, true, 0xE13812FA63C68C8FULL},
      {30, false, 0xD4872F450084BBEDULL}, {30, false, 0xA8F3F68554E05E5AULL},
      {6, true, 0x89EEF402DEFEF760ULL}, {5, true, 0xB423CFD5DEAB1075ULL},
      {30, false, 0x64C0AD72C3DCA4FDULL}, {30, false, 0x0B108DA10E1D89B7ULL},
      {30, false, 0xA26D857D70765350ULL}, {30, false, 0x3A1816CD716B7E73ULL},
  };
  const reliability::SensingRequirement ladder;
  std::vector<Pin> paper_pins;
  std::uint64_t seed = 1000;
  for (const auto& step : ladder.steps()) {
    for (const auto quantizer :
         {QuantizerKind::kUniform, QuantizerKind::kMiOptimized}) {
      for (const double scale : {0.8, 1.0, 1.3}) {
        for (int frame = 0; frame < 2; ++frame) {
          const auto llrs = noisy_frame(paper, step.max_raw_ber * scale,
                                        step.extra_levels, quantizer, ++seed);
          paper_pins.push_back(pin_of(min_sum.decode(llrs)));
        }
      }
    }
  }
  ASSERT_EQ(paper_pins.size(), kPaper.size());
  for (std::size_t i = 0; i < paper_pins.size(); ++i) {
    EXPECT_EQ(paper_pins[i], kPaper[i]) << "paper frame " << i;
  }

  // Sum-product on five of the same frames (uniform quantiser): the first
  // frame at 1.0x the cap of steps 0, 2 and 4, and both frames at 1.3x
  // the cap of step 4, which fail and run to max_iterations. Seeds as
  // above: 12 frames per step, 2 per (quantiser, scale) point.
  const std::vector<Pin> kPaperSumProduct = {
      {2, true, 0x5CF37641D199C1BFULL}, {2, true, 0xDDAA11040C28DCE9ULL},
      {7, true, 0x7EA2363CB68C9690ULL}, {30, false, 0x27E58316CC531DC4ULL},
      {30, false, 0x127069370363992AULL},
  };
  std::vector<Pin> sp_pins;
  for (const auto& [s, point, frame] :
       {std::tuple{0u, 1u, 0u}, std::tuple{2u, 1u, 0u}, std::tuple{4u, 1u, 0u},
        std::tuple{4u, 2u, 0u}, std::tuple{4u, 2u, 1u}}) {
    const auto& step = ladder.steps()[s];
    const double scale = point == 1 ? 1.0 : 1.3;
    const auto llrs =
        noisy_frame(paper, step.max_raw_ber * scale, step.extra_levels,
                    QuantizerKind::kUniform, 1001 + 12 * s + 2 * point + frame);
    sp_pins.push_back(pin_of(sum_product.decode(llrs)));
  }
  ASSERT_EQ(sp_pins.size(), kPaperSumProduct.size());
  for (std::size_t i = 0; i < sp_pins.size(); ++i) {
    EXPECT_EQ(sp_pins[i], kPaperSumProduct[i]) << "sum-product frame " << i;
  }
}

TEST(DecoderTest, PinnedTestCodeFramesMatchParent) {
  // The small test code, where circulant wrap-around is easiest to get
  // wrong: its dual-diagonal parity blocks have shift 0 and one of its
  // information blocks has shift Z-1.
  const QcLdpcCode code = QcLdpcCode::test_code();
  bool has_zero = false;
  bool has_last = false;
  for (const auto& e : code.base_entries()) {
    has_zero |= e.shift == 0;
    has_last |= e.shift == code.z() - 1;
  }
  ASSERT_TRUE(has_zero && has_last);

  // Garbage input at max_iterations = 5: min-sum and sum-product.
  Rng rng(6);
  std::vector<float> garbage(static_cast<std::size_t>(code.n()));
  for (auto& l : garbage) l = static_cast<float>(rng.uniform(-1.0, 1.0));
  EXPECT_EQ(pin_of(Decoder(code, {.max_iterations = 5}).decode(garbage)),
            (Pin{5, false, 0x6F8DD2DCB84BA765ULL}));
  EXPECT_EQ(pin_of(Decoder(code, {.max_iterations = 5,
                                  .algorithm = Decoder::Algorithm::kSumProduct})
                       .decode(garbage)),
            (Pin{5, false, 0x9F85AAACD31746A8ULL}));

  // Noisy codewords: hard decisions, two and six soft levels, and six
  // levels past what the code corrects; min-sum and sum-product.
  const std::vector<Pin> kNoisy = {
      {1, true, 0xBFBD459DB8D0AC5AULL}, {1, true, 0xB19791BA59C17221ULL},
      {1, true, 0xD60C76DABC2E70C0ULL}, {2, true, 0xD676C9A475D03116ULL},
      {1, true, 0xE8F36901C68DE246ULL}, {4, true, 0x0C7DE06C3B55F0CCULL},
      {1, true, 0xA6667B0A714B9D60ULL}, {2, true, 0xF519D621FA36BE01ULL},
      {4, true, 0x7E2FEEBBA30833E4ULL}, {2, true, 0x5098EEC1507C4EE6ULL},
      {2, true, 0xC690CAA6F8C4CFB4ULL}, {1, true, 0x6C0F92BA198DE0F6ULL},
      {30, false, 0x7FD59EB9630198D2ULL}, {30, false, 0xA9B2C4A4B5A414C5ULL},
      {3, true, 0xBF3C556087313386ULL}, {6, true, 0xBB0C163305AB891BULL},
  };
  const std::vector<Pin> kNoisySumProduct = {
      {1, true, 0xBFBD459DB8D0AC5AULL}, {1, true, 0xB19791BA59C17221ULL},
      {1, true, 0xD60C76DABC2E70C0ULL}, {3, true, 0xD676C9A475D03116ULL},
      {1, true, 0xE8F36901C68DE246ULL}, {4, true, 0x0C7DE06C3B55F0CCULL},
      {1, true, 0xA6667B0A714B9D60ULL}, {2, true, 0xF519D621FA36BE01ULL},
      {3, true, 0x7E2FEEBBA30833E4ULL}, {1, true, 0x5098EEC1507C4EE6ULL},
      {2, true, 0xC690CAA6F8C4CFB4ULL}, {1, true, 0x6C0F92BA198DE0F6ULL},
      {30, false, 0xE59AFB438845F0B1ULL}, {30, false, 0x5D11199D1C98A910ULL},
      {3, true, 0xBF3C556087313386ULL}, {5, true, 0xBB0C163305AB891BULL},
  };
  const Decoder decoder(code);
  const Decoder sum_product(code,
                            {.algorithm = Decoder::Algorithm::kSumProduct});
  std::vector<Pin> pins;
  std::vector<Pin> sp_pins;
  std::uint64_t seed = 2000;
  for (const auto& [ber, levels] : {std::pair{4e-3, 0}, std::pair{1.2e-2, 2},
                                    std::pair{3e-2, 6}, std::pair{7e-2, 6}}) {
    for (int frame = 0; frame < 4; ++frame) {
      const auto llrs =
          noisy_frame(code, ber, levels, QuantizerKind::kUniform, ++seed);
      pins.push_back(pin_of(decoder.decode(llrs)));
      sp_pins.push_back(pin_of(sum_product.decode(llrs)));
    }
  }
  ASSERT_EQ(pins.size(), kNoisy.size());
  ASSERT_EQ(sp_pins.size(), kNoisySumProduct.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pins[i], kNoisy[i]) << "test-code frame " << i;
    EXPECT_EQ(sp_pins[i], kNoisySumProduct[i])
        << "test-code sum-product frame " << i;
  }
}

}  // namespace
}  // namespace flex::ldpc
