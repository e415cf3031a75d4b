// Statistical and determinism tests for the open-loop arrival processes.
//
// The distributional tests run chi-square goodness-of-fit checks at fixed
// seeds (deterministic — see chi_square.h for what the thresholds mean)
// plus coarse moment checks for the modulated shapes, where exact GOF
// would need the modulation's inverse CDF.
#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "chi_square.h"

namespace flex::workload {
namespace {

using testing::chi_square_critical_999;
using testing::chi_square_stat;

std::vector<SimTime> draw(const ArrivalConfig& config, std::uint64_t seed,
                          int n) {
  ArrivalProcess process(config, seed);
  std::vector<SimTime> times;
  times.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) times.push_back(process.next());
  return times;
}

TEST(ArrivalStatTest, PoissonInterarrivalsPassChiSquareGof) {
  ArrivalConfig config;
  config.base_iops = 2000.0;
  const auto times = draw(config, /*seed=*/0x9015501, 100'000);

  // Probability-integral transform: u = 1 - exp(-lambda dt) is Uniform(0,1)
  // iff the interarrivals are Exponential(lambda); bin into 20 equal-
  // probability cells.
  constexpr int kBins = 20;
  std::vector<std::uint64_t> observed(kBins, 0);
  SimTime prev = 0;
  for (const SimTime t : times) {
    const double dt_s = static_cast<double>(t - prev) / 1e9;
    prev = t;
    const double u = 1.0 - std::exp(-config.base_iops * dt_s);
    const int bin =
        std::min(kBins - 1, static_cast<int>(u * kBins));
    ++observed[static_cast<std::size_t>(bin)];
  }
  const std::vector<double> expected(kBins, times.size() / double{kBins});
  EXPECT_LT(chi_square_stat(observed, expected),
            chi_square_critical_999(kBins - 1));

  // And the first moment: mean interarrival = 1 / lambda within 1%.
  const double mean_s =
      static_cast<double>(times.back()) / 1e9 / times.size();
  EXPECT_NEAR(mean_s, 1.0 / config.base_iops, 0.01 / config.base_iops);
}

TEST(ArrivalStatTest, MmppLongRunRateMatchesMeanRate) {
  ArrivalConfig config;
  config.base_iops = 1000.0;
  config.burst_rate_multiplier = 8.0;
  config.burst_on_fraction = 0.2;
  config.burst_mean_on_s = 0.05;
  // mean = base * (1 + f*(m-1)) = 2.4k; peak = 8k.
  EXPECT_DOUBLE_EQ(config.mean_rate(), 2400.0);
  EXPECT_DOUBLE_EQ(config.peak_rate(), 8000.0);

  const auto times = draw(config, /*seed=*/0x4a12, 200'000);
  const double elapsed_s = static_cast<double>(times.back()) / 1e9;
  const double empirical = times.size() / elapsed_s;
  EXPECT_NEAR(empirical, config.mean_rate(), 0.05 * config.mean_rate());
}

TEST(ArrivalStatTest, MmppBurstsRaiseIndexOfDispersion) {
  // Windowed arrival counts: Poisson has variance/mean ~ 1; on/off bursts
  // with window >~ sojourn length push it well above.
  auto dispersion = [](const std::vector<SimTime>& times, double window_s) {
    std::vector<std::uint64_t> counts;
    std::uint64_t in_window = 0;
    double window_end = window_s;
    for (const SimTime t : times) {
      const double t_s = static_cast<double>(t) / 1e9;
      while (t_s >= window_end) {
        counts.push_back(in_window);
        in_window = 0;
        window_end += window_s;
      }
      ++in_window;
    }
    double mean = 0.0;
    for (const std::uint64_t c : counts) mean += static_cast<double>(c);
    mean /= static_cast<double>(counts.size());
    double var = 0.0;
    for (const std::uint64_t c : counts) {
      const double d = static_cast<double>(c) - mean;
      var += d * d;
    }
    var /= static_cast<double>(counts.size() - 1);
    return var / mean;
  };

  ArrivalConfig poisson;
  poisson.base_iops = 2000.0;
  ArrivalConfig bursty = poisson;
  bursty.burst_rate_multiplier = 10.0;
  bursty.burst_on_fraction = 0.1;
  bursty.burst_mean_on_s = 0.05;

  const double d_poisson =
      dispersion(draw(poisson, /*seed=*/7, 100'000), 0.1);
  const double d_bursty = dispersion(draw(bursty, /*seed=*/7, 100'000), 0.1);
  EXPECT_NEAR(d_poisson, 1.0, 0.25);
  EXPECT_GT(d_bursty, 3.0);
}

TEST(ArrivalStatTest, TimestampsAreNonDecreasing) {
  ArrivalConfig config;
  config.base_iops = 5000.0;
  config.burst_rate_multiplier = 6.0;
  config.burst_on_fraction = 0.3;
  config.burst_mean_on_s = 0.01;
  ArrivalProcess process(config, /*seed=*/11);
  SimTime prev = 0;
  for (int i = 0; i < 50'000; ++i) {
    const SimTime t = process.next();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(ArrivalStatTest, SameSeedReproducesSameStream) {
  ArrivalConfig config;
  config.base_iops = 3000.0;
  config.burst_rate_multiplier = 4.0;
  config.burst_on_fraction = 0.25;
  config.burst_mean_on_s = 0.02;
  EXPECT_EQ(draw(config, /*seed=*/42, 10'000), draw(config, /*seed=*/42, 10'000));
  EXPECT_NE(draw(config, /*seed=*/42, 10'000), draw(config, /*seed=*/43, 10'000));
}

TEST(ArrivalStatTest, ValidateRejectsBadConfigs) {
  ArrivalConfig ok;
  EXPECT_TRUE(ok.Validate().ok());

  ArrivalConfig bad = ok;
  bad.base_iops = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.burst_rate_multiplier = 0.5;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;  // multiplier armed but on-fraction zero: a silent no-op
  bad.burst_rate_multiplier = 4.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.burst_rate_multiplier = 4.0;
  bad.burst_on_fraction = 1.0;  // must be < 1
  EXPECT_FALSE(bad.Validate().ok());

  bad = ok;
  bad.burst_rate_multiplier = 4.0;
  bad.burst_on_fraction = 0.2;
  bad.burst_mean_on_s = 0.0;
  EXPECT_FALSE(bad.Validate().ok());
}

}  // namespace
}  // namespace flex::workload
