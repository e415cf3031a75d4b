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

// What a decode is pinned by: the iteration count, the convergence flag,
// the CRC-64 of the hard decisions and the CRC-64 of the final posterior
// LLRs (which a last-ulp change in the soft values moves).
struct Pin {
  int iterations = 0;
  bool success = false;
  std::uint64_t bits_crc = 0;
  std::uint64_t posterior_crc = 0;
  bool operator==(const Pin&) const = default;
};

void PrintTo(const Pin& pin, std::ostream* os) {
  char crc[64];
  std::snprintf(crc, sizeof crc, "0x%016llXULL, 0x%016llXULL",
                static_cast<unsigned long long>(pin.bits_crc),
                static_cast<unsigned long long>(pin.posterior_crc));
  *os << "{" << pin.iterations << ", " << (pin.success ? "true" : "false")
      << ", " << crc << "}";
}

Pin pin_of(const DecodeResult& result) {
  return {result.iterations, result.success,
          crc64(result.bits.data(), result.bits.size()),
          crc64(result.posterior.data(),
                result.posterior.size() * sizeof(float))};
}

// One encoded random codeword sent through a quantised sensing channel.
std::vector<float> noisy_frame(const QcLdpcCode& code, double ber, int levels,
                               QuantizerKind quantizer, std::uint64_t seed) {
  Rng rng(seed);
  const auto cw = Encoder(code).encode(random_bits(code.k(), rng));
  return SensingChannel(ber, levels, quantizer).transmit(cw, rng);
}

TEST(DecoderTest, PinnedFramesMatchParent) {
  // Bit-identity pins for the decoder kernel. Every expected value,
  // posterior CRCs included, is what the row-serial CSR decoder that
  // preceded the quasi-cyclic kernel produces, so a changed layer order, a
  // wrong circulant rotation, a wrong min/second-min pick or a reassociated
  // float sum shows up here as a moved iteration count or a moved CRC.
  // (Ties are invisible by construction:
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
      {3, true, 0xB8203385763BE38BULL, 0x38680396D76B9E0EULL},
      {2, true, 0x95D96B489F1ABE92ULL, 0xE8CADFB2A8504BDDULL},
      {2, true, 0x5CF37641D199C1BFULL, 0x7F2552DB1269C35BULL},
      {3, true, 0x37CC4F6ABB517AEFULL, 0x9C973605B1339DFDULL},
      {4, true, 0x7CAC035DC9EC6838ULL, 0x5F9D5F7A03482777ULL},
      {5, true, 0x6FA78DE19B10AE1CULL, 0x00005688AEB87F73ULL},
      {3, true, 0x0913B1746E6D0D85ULL, 0x2368C95DE1CF499DULL},
      {2, true, 0x81CB5164EE03F21CULL, 0xC549936B2E79E166ULL},
      {3, true, 0x3E2F0BFD8476D0BCULL, 0xAA18ADB59E940D64ULL},
      {3, true, 0x58F2CA40406E8164ULL, 0x00923FB6D90EF556ULL},
      {4, true, 0x593A73B7A49BCD1BULL, 0x2AB042139E3EDD9CULL},
      {3, true, 0x8D9272715011B63CULL, 0xCBB41896F7C2AAE7ULL},
      {3, true, 0x319DF5B3BB955F49ULL, 0x8252BE9C37AE600AULL},
      {2, true, 0x50BED3ADBFE9F7C1ULL, 0x983D0377A8BBF83CULL},
      {3, true, 0x9E37E54860FD2161ULL, 0xA2A6E471BACACD6CULL},
      {3, true, 0xC893E84C89B47BE7ULL, 0xA35117FD2A09C3C3ULL},
      {4, true, 0x5933CEBD0B175753ULL, 0xD2DC750A9B98BFB0ULL},
      {3, true, 0xDA2FBBB233492CD3ULL, 0xC7C4723A6850A9BBULL},
      {2, true, 0xEB8964726150A83EULL, 0xA6F5B6F4582B5F90ULL},
      {3, true, 0x024A6D9897246A61ULL, 0xCE64247C1AE6944FULL},
      {3, true, 0x3A162B26900E84D5ULL, 0xC8717141980B6B49ULL},
      {3, true, 0x24F0E8EDC482E198ULL, 0xF4406330F209C38EULL},
      {3, true, 0x4A4C9CE85E3D86E4ULL, 0x4407D668B1EC2809ULL},
      {3, true, 0xB00633F5A30A81BCULL, 0x90592D3A41C7399DULL},
      {2, true, 0x1CC3D2F32AAFBC78ULL, 0xEE67E8EAB2F311A8ULL},
      {2, true, 0x3AA64503E7B3006FULL, 0x39A49CA9F73F6CEBULL},
      {3, true, 0xDDAA11040C28DCE9ULL, 0xCA04E5A8D078A296ULL},
      {2, true, 0xD8D772E91A6C7FEBULL, 0xCB99619A77704ADFULL},
      {2, true, 0xE1AB3BC9AC0FCA95ULL, 0x4A7EC7D111433AC5ULL},
      {2, true, 0xE43C09B474211035ULL, 0x3AB3F304742D6A17ULL},
      {2, true, 0x6FC1BBEDD870255DULL, 0x2661E9CFAD8670ACULL},
      {3, true, 0x7AB15280DC254BF5ULL, 0xF2432AB6FE4F970CULL},
      {2, true, 0xFD71D0E7E6C49311ULL, 0x720D8CA9A6062F2BULL},
      {2, true, 0x62197FF244ED8C38ULL, 0x97403F2AA47794A2ULL},
      {3, true, 0x1ED0688E3D329B9FULL, 0xE3FA5061E6B03893ULL},
      {3, true, 0xF14CF1477F584A11ULL, 0x25CA20C99D176D60ULL},
      {3, true, 0x1DFE7D82C4459977ULL, 0xC643CD137E5887ACULL},
      {3, true, 0x2AA23FD0E6BD2E34ULL, 0x2ADD3B9674BC1D4BULL},
      {4, true, 0x095E39F8E90A7AAEULL, 0xA0BDC78753405A4CULL},
      {3, true, 0xCA230E8292A20F54ULL, 0x86BF42D9C28071B4ULL},
      {5, true, 0x58EF3FBD9E03FD1FULL, 0x69DEB4B86B9DA615ULL},
      {5, true, 0xF19BF1E4606161EEULL, 0x7AD432FB8D63F3E4ULL},
      {3, true, 0x6D10F21A8FB5258FULL, 0x5DECC5748F5EAFCEULL},
      {2, true, 0xC672C8C6C19463C8ULL, 0x55190F4626688439ULL},
      {3, true, 0xC94964E5E0684FAAULL, 0xD2D2321FC7C13E2EULL},
      {4, true, 0x63064B5BC8C27BA0ULL, 0xE925A39695A09CD0ULL},
      {4, true, 0xB58912DF53985570ULL, 0x9A158396D82507D5ULL},
      {5, true, 0xE24E932923DF1ED2ULL, 0x8681344CE7AD101BULL},
      {5, true, 0x99C4FC1993C9FDC7ULL, 0x12B930865ABB9BBBULL},
      {5, true, 0x104979E8048D8A30ULL, 0xFC5F9F29F1AF5FB9ULL},
      {9, true, 0x7EA2363CB68C9690ULL, 0x1C99A206E9704A3EULL},
      {30, true, 0xE13812FA63C68C8FULL, 0xD11BE0635290EA6DULL},
      {30, false, 0xD4872F450084BBEDULL, 0xD710373CB1179DE0ULL},
      {30, false, 0xA8F3F68554E05E5AULL, 0x23D85DAB9EF286B6ULL},
      {6, true, 0x89EEF402DEFEF760ULL, 0xC317AD8241DB93D5ULL},
      {5, true, 0xB423CFD5DEAB1075ULL, 0x97DBA469FE3D938BULL},
      {30, false, 0x64C0AD72C3DCA4FDULL, 0x95F304CD5B205287ULL},
      {30, false, 0x0B108DA10E1D89B7ULL, 0xD571F3BBEE3F56DDULL},
      {30, false, 0xA26D857D70765350ULL, 0x81848EB0AB62CCBFULL},
      {30, false, 0x3A1816CD716B7E73ULL, 0x9F85CB30CAD1AFE0ULL},
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
      {2, true, 0x5CF37641D199C1BFULL, 0x04B241F26F808B8FULL},
      {2, true, 0xDDAA11040C28DCE9ULL, 0x3FEF06C2F251E91CULL},
      {7, true, 0x7EA2363CB68C9690ULL, 0xE9A59BA42B457C8FULL},
      {30, false, 0x27E58316CC531DC4ULL, 0xB052C417DB624AE1ULL},
      {30, false, 0x127069370363992AULL, 0x4E0334EBE1A6F9E9ULL},
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
            (Pin{5, false, 0x6F8DD2DCB84BA765ULL, 0x6A6B27CFFA0D1A97ULL}));
  EXPECT_EQ(pin_of(Decoder(code, {.max_iterations = 5,
                                  .algorithm = Decoder::Algorithm::kSumProduct})
                       .decode(garbage)),
            (Pin{5, false, 0x9F85AAACD31746A8ULL, 0x53BEB6AAD494336EULL}));

  // Noisy codewords: hard decisions, two and six soft levels, and six
  // levels past what the code corrects; min-sum and sum-product.
  const std::vector<Pin> kNoisy = {
      {1, true, 0xBFBD459DB8D0AC5AULL, 0x9E9FA8FBFBC253B4ULL},
      {1, true, 0xB19791BA59C17221ULL, 0xFF15689950485323ULL},
      {1, true, 0xD60C76DABC2E70C0ULL, 0xE529E0DCC28AD990ULL},
      {2, true, 0xD676C9A475D03116ULL, 0xE519F66BA9747E92ULL},
      {1, true, 0xE8F36901C68DE246ULL, 0x74ED8FF9655AB741ULL},
      {4, true, 0x0C7DE06C3B55F0CCULL, 0x51CEBC3BA47B0B17ULL},
      {1, true, 0xA6667B0A714B9D60ULL, 0x47151526F8B57502ULL},
      {2, true, 0xF519D621FA36BE01ULL, 0xBB2790403852AD31ULL},
      {4, true, 0x7E2FEEBBA30833E4ULL, 0x8F690CC76D545296ULL},
      {2, true, 0x5098EEC1507C4EE6ULL, 0xA5DADB7CB2B6EC0AULL},
      {2, true, 0xC690CAA6F8C4CFB4ULL, 0x147D836D485481CEULL},
      {1, true, 0x6C0F92BA198DE0F6ULL, 0xC10C084663EFA197ULL},
      {30, false, 0x7FD59EB9630198D2ULL, 0x036FD233CFFF455CULL},
      {30, false, 0xA9B2C4A4B5A414C5ULL, 0x78C1079C661B6F7EULL},
      {3, true, 0xBF3C556087313386ULL, 0x04F5180F0A741BA1ULL},
      {6, true, 0xBB0C163305AB891BULL, 0x12434546158E189EULL},
  };
  const std::vector<Pin> kNoisySumProduct = {
      {1, true, 0xBFBD459DB8D0AC5AULL, 0x272F4F59ABB1C51AULL},
      {1, true, 0xB19791BA59C17221ULL, 0x53BCEC8E23A79BF7ULL},
      {1, true, 0xD60C76DABC2E70C0ULL, 0x02D470F06D95FE5FULL},
      {3, true, 0xD676C9A475D03116ULL, 0x2C7B0676E81CBB8AULL},
      {1, true, 0xE8F36901C68DE246ULL, 0x1BFF1C46B73D3D5CULL},
      {4, true, 0x0C7DE06C3B55F0CCULL, 0xAEF12D5F54076AF0ULL},
      {1, true, 0xA6667B0A714B9D60ULL, 0x06201BA29CFCABBAULL},
      {2, true, 0xF519D621FA36BE01ULL, 0x75320B9602272029ULL},
      {3, true, 0x7E2FEEBBA30833E4ULL, 0xFA3EC1B28C89A827ULL},
      {1, true, 0x5098EEC1507C4EE6ULL, 0x0457A4536FFF5BC3ULL},
      {2, true, 0xC690CAA6F8C4CFB4ULL, 0xD011E90619B89CCBULL},
      {1, true, 0x6C0F92BA198DE0F6ULL, 0xB25C336F8ABECDDFULL},
      {30, false, 0xE59AFB438845F0B1ULL, 0x0EC6200F5AF1965BULL},
      {30, false, 0x5D11199D1C98A910ULL, 0x72C434D6117DDFF3ULL},
      {3, true, 0xBF3C556087313386ULL, 0xC2E31CD454AD589FULL},
      {5, true, 0xBB0C163305AB891BULL, 0x98D85DC69901B069ULL},
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
