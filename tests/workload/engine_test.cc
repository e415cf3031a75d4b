// Multi-tenant workload-engine tests: Zipf tenant-rank goodness of fit,
// footprint containment, per-tenant mix fidelity, seed determinism and
// config validation. Statistical checks run at fixed seeds (see
// chi_square.h).
#include "workload/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "trace/trace.h"
#include "chi_square.h"

namespace flex::workload {
namespace {

using testing::chi_square_critical_999;
using testing::chi_square_stat;

EngineConfig four_tenant_config() {
  EngineConfig config;
  config.tenants = zipf_tenant_population(4, 0.9, /*footprint_pages=*/1 << 18);
  config.seed = 0xE46;
  return config;
}

TEST(WorkloadEngineTest, ZipfTenantRanksPassChiSquareGof) {
  // The population's arrival weights select tenants Zipf(0.9) by rank,
  // tenant 0 hottest: the selection path the benches use.
  EngineConfig config;
  config.tenants = zipf_tenant_population(8, 0.9, /*footprint_pages=*/1 << 19);
  config.seed = 0x21BF;
  WorkloadEngine engine(config);
  const auto requests = engine.materialize(200'000);
  ASSERT_EQ(requests.size(), 200'000u);

  std::vector<std::uint64_t> observed(8, 0);
  for (const trace::Request& r : requests) {
    ASSERT_LT(r.tenant, 8);
    ++observed[r.tenant];
  }
  // Expected multinomial: p_r proportional to (r+1)^-theta.
  std::vector<double> expected(8);
  double norm = 0.0;
  for (int r = 0; r < 8; ++r) norm += std::pow(r + 1, -0.9);
  for (int r = 0; r < 8; ++r) {
    expected[static_cast<std::size_t>(r)] =
        requests.size() * std::pow(r + 1, -0.9) / norm;
  }
  EXPECT_LT(chi_square_stat(observed, expected), chi_square_critical_999(7));
}

TEST(WorkloadEngineTest, WeightedTenantSelectionMatchesWeights) {
  EngineConfig config = four_tenant_config();
  const double weights[] = {4.0, 2.0, 1.0, 1.0};
  for (int i = 0; i < 4; ++i) {
    config.tenants[static_cast<std::size_t>(i)].arrival_weight = weights[i];
  }
  WorkloadEngine engine(config);
  const auto requests = engine.materialize(100'000);

  std::vector<std::uint64_t> observed(4, 0);
  for (const trace::Request& r : requests) ++observed[r.tenant];
  std::vector<double> expected(4);
  for (int i = 0; i < 4; ++i) {
    expected[static_cast<std::size_t>(i)] =
        requests.size() * weights[i] / 8.0;
  }
  EXPECT_LT(chi_square_stat(observed, expected), chi_square_critical_999(3));
}

TEST(WorkloadEngineTest, RequestsStayInsideTenantFootprints) {
  EngineConfig config = four_tenant_config();
  config.tenants[2].priority = 3;
  WorkloadEngine engine(config);
  const auto requests = engine.materialize(50'000);
  for (const trace::Request& r : requests) {
    ASSERT_LT(r.tenant, config.tenants.size());
    const TenantSpec& spec = config.tenants[r.tenant];
    EXPECT_GE(r.lpn, spec.footprint_offset);
    EXPECT_LE(r.lpn + r.pages, spec.footprint_offset + spec.footprint_pages);
    EXPECT_GE(r.pages, 1u);
    EXPECT_LE(r.pages, spec.max_request_pages);
    EXPECT_EQ(r.priority, spec.priority);
  }
}

TEST(WorkloadEngineTest, PerTenantReadFractionMatchesSpec) {
  EngineConfig config = four_tenant_config();
  config.tenants[0].read_fraction = 0.9;
  config.tenants[1].read_fraction = 0.5;
  config.tenants[2].read_fraction = 0.0;
  config.tenants[3].read_fraction = 1.0;
  WorkloadEngine engine(config);
  const auto requests = engine.materialize(120'000);

  std::vector<std::uint64_t> total(4, 0);
  std::vector<std::uint64_t> reads(4, 0);
  for (const trace::Request& r : requests) {
    ++total[r.tenant];
    if (!r.is_write) ++reads[r.tenant];
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_GT(total[static_cast<std::size_t>(i)], 1000u);
    const double fraction =
        static_cast<double>(reads[static_cast<std::size_t>(i)]) /
        static_cast<double>(total[static_cast<std::size_t>(i)]);
    EXPECT_NEAR(fraction, config.tenants[static_cast<std::size_t>(i)].read_fraction, 0.02);
  }
}

TEST(WorkloadEngineTest, AddressSkewConcentratesOnHotPages) {
  // Zipf(1.1) inside one tenant: the most popular 1% of the footprint
  // should draw a large share of accesses — and the permutation must
  // scatter them (the hottest pages are not simply the lowest LPNs).
  EngineConfig config;
  TenantSpec tenant;
  tenant.footprint_pages = 100'000;
  tenant.zipf_theta = 1.1;
  tenant.mean_request_pages = 1.0;
  tenant.max_request_pages = 1;
  config.tenants = {tenant};
  config.seed = 0x5EED;
  WorkloadEngine engine(config);
  const auto requests = engine.materialize(100'000);

  std::vector<std::uint32_t> hits(100'000, 0);
  for (const trace::Request& r : requests) ++hits[r.lpn];
  std::vector<std::uint32_t> sorted = hits;
  std::sort(sorted.rbegin(), sorted.rend());
  std::uint64_t top1 = 0;
  for (std::size_t i = 0; i < 1000; ++i) top1 += sorted[i];
  EXPECT_GT(top1, requests.size() / 2);  // top 1% of pages, >50% of mass
  // Scatter: the single hottest page is not LPN 0..9 with overwhelming
  // likelihood under the coprime permutation (rank 0 maps elsewhere).
  std::uint64_t low_lpn_mass = 0;
  for (std::size_t i = 0; i < 10; ++i) low_lpn_mass += hits[i];
  EXPECT_LT(low_lpn_mass, top1 / 2);
}

TEST(WorkloadEngineTest, SameSeedSameStreamAcrossInstances) {
  const EngineConfig config = four_tenant_config();
  WorkloadEngine a(config);
  WorkloadEngine b(config);
  EXPECT_EQ(a.materialize(20'000), b.materialize(20'000));

  EngineConfig other = config;
  other.seed = config.seed + 1;
  WorkloadEngine c(other);
  EXPECT_NE(a.materialize(20'000), c.materialize(20'000));
}

TEST(WorkloadEngineTest, ZipfPopulationSlicesAreDisjointAndRanked) {
  const auto tenants = zipf_tenant_population(4, 0.9, /*footprint_pages=*/4096);
  ASSERT_EQ(tenants.size(), 4u);
  std::uint64_t cursor = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    EXPECT_EQ(tenants[i].footprint_offset, cursor);
    EXPECT_EQ(tenants[i].footprint_pages, 1024u);
    cursor += tenants[i].footprint_pages;
    if (i > 0) {
      EXPECT_LT(tenants[i].arrival_weight, tenants[i - 1].arrival_weight);
    }
  }
}

TEST(WorkloadEngineTest, ValidateRejectsBadConfigs) {
  EXPECT_TRUE(four_tenant_config().Validate().ok());

  EngineConfig bad;
  EXPECT_FALSE(bad.Validate().ok());  // no tenants

  bad = four_tenant_config();
  bad.tenants[1].arrival_weight = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = four_tenant_config();
  bad.tenants[0].read_fraction = 1.5;
  EXPECT_FALSE(bad.Validate().ok());

  bad = four_tenant_config();
  bad.tenants[0].footprint_pages = 8;
  bad.tenants[0].max_request_pages = 16;
  EXPECT_FALSE(bad.Validate().ok());

  bad = four_tenant_config();
  bad.tenants[0].qos_weight = 0.0;
  EXPECT_FALSE(bad.Validate().ok());

  bad = four_tenant_config();
  bad.arrivals.base_iops = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
}

// trace::Request carries the lpn in 32 bits, so every tenant slice must
// end at or below 2^32.
TEST(WorkloadEngineTest, ValidateBoundsFootprintsToU32Lpns) {
  constexpr std::uint64_t kSpace = trace::kLpnSpace;
  EngineConfig config = four_tenant_config();
  TenantSpec& t = config.tenants[0];
  t.footprint_offset = kSpace - t.footprint_pages;  // last lpn 2^32 - 1
  EXPECT_TRUE(config.Validate().ok());

  t.footprint_offset += 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kOutOfRange);

  t.footprint_offset = 0;
  t.footprint_pages = kSpace + 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kOutOfRange);

  // An offset so large that offset + pages wraps u64 is still refused.
  t.footprint_pages = 1 << 16;
  t.footprint_offset = ~std::uint64_t{0};
  EXPECT_EQ(config.Validate().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace flex::workload
