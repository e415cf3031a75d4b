// Golden read-response regression: small deterministic runs per scheme
// with the mean and p99 read response pinned to exact doubles.
//
// The simulator is a deterministic discrete-event system — same config,
// same trace, same binary semantics must give bit-identical statistics.
// These goldens catch silent behavioural drift that property tests miss:
// any intentional change to placement, scheduling, BER evaluation, or
// latency accounting shows up here and must update the constants in the
// same commit, making the drift reviewable. (Values are pure IEEE-double
// arithmetic on a fixed event sequence, not hardware-dependent noise.)
//
// To regenerate after an intentional change:
//   build/tests/integration_test --gtest_filter='*Golden*' also prints the
//   actual values on failure with full precision.
#include <cstdint>
#include <iomanip>
#include <iterator>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "trace/workloads.h"

namespace flex::ssd {
namespace {

class GoldenRegression : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2718);
    const reliability::BerEngine::Config mc{
        .wordlines = 32, .bitlines = 128, .rounds = 2, .coupling = {}};
    static const reliability::GrayMapper gray;
    static const flexlevel::ReduceCodeMapper reduce;
    normal_ = new reliability::BerModel(nand::LevelConfig::baseline_mlc(),
                                        gray, reliability::RetentionModel{},
                                        mc, rng);
    reduced_ = new reliability::BerModel(
        flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
        reliability::RetentionModel{}, mc, rng);
  }
  static void TearDownTestSuite() {
    delete normal_;
    delete reduced_;
    normal_ = nullptr;
    reduced_ = nullptr;
  }

  static SsdConfig config(Scheme scheme) {
    SsdConfig cfg;
    cfg.scheme = scheme;
    cfg.ftl.spec.page_size_bytes = 4096;
    cfg.ftl.spec.pages_per_block = 32;
    cfg.ftl.spec.blocks_per_chip = 64;
    cfg.ftl.spec.chips = 4;
    cfg.ftl.initial_pe_cycles = 6000;
    cfg.ftl.gc_low_watermark = 4;
    cfg.min_prefill_age = kDay;
    cfg.max_prefill_age = kMonth;
    cfg.write_buffer_pages = 64;
    cfg.write_buffer_flush_batch = 8;
    cfg.access_eval.pool_capacity_pages = 1024;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 14,
                               .hashes = 2,
                               .window_accesses = 512};
    return cfg;
  }

  static SsdResults run_scheme(SsdConfig cfg,
                               telemetry::Telemetry* telemetry = nullptr) {
    trace::WorkloadParams params;
    params.name = "golden";
    params.read_fraction = 0.85;
    params.zipf_theta = 0.95;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.4;
    params.max_request_pages = 8;
    params.iops = 1500;
    params.requests = 10'000;
    const auto trace = trace::generate(params, 777);
    auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
    sim->prefill(4000);
    sim->attach_telemetry(telemetry);
    return sim->run(trace);
  }

  static void expect_golden(const SsdResults& results, double mean,
                            double p99) {
    // max_digits10 so a printed value pasted back round-trips exactly.
    EXPECT_DOUBLE_EQ(results.read_response.mean(), mean)
        << std::setprecision(17) << "actual mean "
        << results.read_response.mean();
    EXPECT_DOUBLE_EQ(results.read_latency_hist.quantile(0.99), p99)
        << std::setprecision(17) << "actual p99 "
        << results.read_latency_hist.quantile(0.99);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* GoldenRegression::normal_ = nullptr;
reliability::BerModel* GoldenRegression::reduced_ = nullptr;

TEST_F(GoldenRegression, Baseline) {
  expect_golden(run_scheme(config(Scheme::kBaseline)),
                /*mean=*/0.00059511423166295064, /*p99=*/0.0024815173388835457);
}

TEST_F(GoldenRegression, LdpcInSsd) {
  expect_golden(run_scheme(config(Scheme::kLdpcInSsd)),
                /*mean=*/0.00032234478699683089, /*p99=*/0.0020694821166842431);
}

TEST_F(GoldenRegression, LevelAdjustOnly) {
  expect_golden(run_scheme(config(Scheme::kLevelAdjustOnly)),
                /*mean=*/0.00018581624539373305, /*p99=*/0.0018824020865489581);
}

TEST_F(GoldenRegression, FlexLevel) {
  expect_golden(run_scheme(config(Scheme::kFlexLevel)),
                /*mean=*/0.00028164889789930771, /*p99=*/0.0020824576629127501);
}

TEST_F(GoldenRegression, LdpcInSsdWithRefresh) {
  // Disturb + refresh enabled: pins the new read path end to end.
  auto cfg = config(Scheme::kLdpcInSsd);
  // Accelerated stress: the hottest blocks of this trace accumulate
  // ~100-170 reads, so the knee must sit inside that range to exercise
  // both the ladder climb and the scrub.
  cfg.read_disturb.enabled = true;
  cfg.read_disturb.model.vth_shift_per_read = 8.0e-4;
  cfg.read_disturb.refresh_threshold = 100;
  expect_golden(run_scheme(std::move(cfg)),
                /*mean=*/0.00033390406454641421, /*p99=*/0.0020880572435739253);
}

TEST_F(GoldenRegression, FaultsDefaultOffIsByteIdentical)  {
  // The fault subsystem must be invisible when disabled: a config carrying
  // armed (nonzero) rates but enabled=false reproduces the FlexLevel
  // goldens exactly. Fault support may not perturb placement, scheduling,
  // or any RNG stream of a clean run.
  auto cfg = config(Scheme::kFlexLevel);
  cfg.faults.program_fail_rate = 0.25;
  cfg.faults.erase_fail_rate = 0.25;
  cfg.faults.grown_defect_rate = 0.25;  // enabled stays false
  const SsdResults results = run_scheme(std::move(cfg));
  expect_golden(results,
                /*mean=*/0.00028164889789930771, /*p99=*/0.0020824576629127501);
  EXPECT_EQ(results.retired_blocks, 0u);
  EXPECT_EQ(results.ftl.program_fails, 0u);
  EXPECT_EQ(results.data_loss_reads, 0u);
}

TEST_F(GoldenRegression, FlexLevelMetricsSnapshot) {
  // Pinned telemetry counters for the FlexLevel golden run: silent
  // instrumentation drift (a counter bumped twice, a site dropped) is
  // caught the same way behavioural drift is. Regenerate like the latency
  // goldens — the failure message prints every actual value.
  telemetry::Telemetry telemetry;
  const SsdResults results =
      run_scheme(config(Scheme::kFlexLevel), &telemetry);
  const std::pair<const char*, std::uint64_t> expected[] = {
      {"chip.commands", 11639},
      {"chip.queued_commands", 2748},
      {"event_queue.fired", 21639},
      {"event_queue.scheduled", 21639},
      {"ftl.erase_fails", 0},
      {"ftl.gc_page_moves", 0},
      {"ftl.gc_runs", 0},
      {"ftl.grown_defects", 0},
      {"ftl.host_writes", 1568},
      {"ftl.misdirected_writes", 0},
      {"ftl.mode_migrations", 533},
      {"ftl.mount_mappings_recovered", 0},
      {"ftl.mount_pages_scanned", 0},
      {"ftl.mount_stale_records", 0},
      {"ftl.mounts", 0},
      {"ftl.nand_erases", 0},
      {"ftl.nand_writes", 2101},
      {"ftl.program_fails", 0},
      {"ftl.refresh_page_moves", 0},
      {"ftl.refresh_runs", 0},
      {"ftl.repair_writes", 0},
      {"ftl.retire_page_moves", 0},
      {"ftl.retired_blocks", 0},
      {"ftl.torn_relocations", 0},
      {"policy.migrations_to_normal", 0},
      {"policy.migrations_to_reduced", 533},
      {"ssd.buffer_hits", 1971},
      {"ssd.crashes", 0},
      {"ssd.integrity_mismatch_reads", 0},
      {"ssd.integrity_verified_reads", 0},
      {"ssd.reads", 8521},
      {"ssd.requests", 10000},
      {"ssd.uncorrectable_reads", 0},
      {"ssd.unmapped_reads", 0},
      {"ssd.writes", 1479},
      {"ssd.writes_acked", 2044},
      {"ssd.writes_durable", 1568},
      {"tenant.0.reads", 8521},
      {"tenant.0.rejected", 0},
      {"tenant.0.writes", 1479},
  };
  ASSERT_EQ(results.metrics.counters.size(), std::size(expected));
  for (const auto& [name, value] : expected) {
    ASSERT_TRUE(results.metrics.counters.contains(name)) << name;
    EXPECT_EQ(results.metrics.counters.at(name), value) << name;
  }
  // The snapshot's own cross-checks against SsdResults.
  EXPECT_EQ(results.metrics.counters.at("ssd.reads"),
            results.read_response.count());
  EXPECT_EQ(results.metrics.counters.at("ftl.gc_runs"), results.ftl.gc_runs);
  EXPECT_EQ(results.metrics.histograms.at("ssd.read_latency_us").total,
            results.read_response.count());
}

}  // namespace
}  // namespace flex::ssd
