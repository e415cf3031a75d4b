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
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "host/array.h"
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

  /// Pins a metrics snapshot's whole counter set: every registered name
  /// and its value. The failure message prints every actual value.
  static void expect_counters(
      const telemetry::MetricsSnapshot& snapshot,
      const std::map<std::string, std::uint64_t>& expected) {
    EXPECT_EQ(snapshot.counters, expected) << [&snapshot] {
      std::string actual = "actual counters:\n";
      for (const auto& [name, value] : snapshot.counters) {
        actual += "      {\"" + name + "\", " + std::to_string(value) + "},\n";
      }
      return actual;
    }();
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
  expect_counters(results.metrics, {
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
  });
  // The snapshot's own cross-checks against SsdResults.
  EXPECT_EQ(results.metrics.counters.at("ssd.reads"),
            results.read_response.count());
  EXPECT_EQ(results.metrics.counters.at("ftl.gc_runs"), results.ftl.gc_runs);
  EXPECT_EQ(results.metrics.histograms.at("ssd.read_latency_us").total,
            results.read_response.count());
}

TEST_F(GoldenRegression, ArmedDriveMetricsSnapshot) {
  // Every registered counter of a drive with every optional mechanism
  // armed — program/erase faults and grown defects, integrity seals with
  // all three corruption kinds, read disturb with refresh, two-tenant
  // deadline QoS with admission control — across a measured window that
  // contains a power loss, a mount and more traffic. The golden counter
  // set above is mostly zeros; this one is not.
  SsdConfig cfg = config(Scheme::kFlexLevel);
  cfg.ftl.initial_pe_cycles = 9000;
  cfg.precondition_passes = 1.0;  // start from GC steady state
  cfg.faults.enabled = true;
  cfg.faults.program_fail_rate = 2e-3;
  cfg.faults.erase_fail_rate = 2e-2;
  cfg.faults.grown_defect_rate = 2e-2;
  cfg.faults.read_retry_rescue = 0.5;
  cfg.integrity.enabled = true;
  cfg.faults.silent_corruption_rate = 5e-3;
  cfg.faults.misdirected_write_rate = 5e-3;
  cfg.faults.torn_relocation_rate = 5e-2;
  cfg.read_disturb.enabled = true;
  cfg.read_disturb.model.vth_shift_per_read = 8.0e-4;
  cfg.read_disturb.refresh_threshold = 100;
  cfg.qos.enabled = true;
  cfg.qos.policy = QosPolicy::kDeadline;
  cfg.qos.tenants = 2;
  cfg.qos.admission_max_outstanding = 16;
  cfg.qos.gc_throttle_queue_depth = 2;
  cfg.qos.fair_share_slack = 200 * kMicrosecond;

  trace::WorkloadParams params;
  params.name = "armed";
  params.read_fraction = 0.6;
  params.zipf_theta = 0.95;
  params.footprint_pages = 6000;
  params.mean_request_pages = 1.4;
  params.max_request_pages = 8;
  params.iops = 3000;
  params.requests = 4'000;
  std::vector<trace::Request> before = trace::generate(params, 31);
  std::vector<trace::Request> after = trace::generate(params, 32);
  for (std::size_t i = 0; i < before.size(); ++i) {
    before[i].tenant = static_cast<std::uint16_t>(i % 2);
  }
  // Post-mount arrivals start well after the pre-crash window ended.
  const SimTime restart = before.back().arrival + kSecond;
  for (std::size_t i = 0; i < after.size(); ++i) {
    after[i].tenant = static_cast<std::uint16_t>(i % 2);
    after[i].arrival += restart;
  }

  telemetry::Telemetry telemetry;
  auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
  sim->prefill(3600);  // reads past it are unmapped
  sim->attach_telemetry(&telemetry);
  sim->run_segment(before);
  sim->power_loss();
  sim->mount();
  sim->run_segment(after);
  const SsdResults& results = sim->results();
  expect_counters(results.metrics, {
      {"chip.commands", 11084},
      {"chip.queued_commands", 9940},
      {"event_queue.fired", 19084},
      {"event_queue.scheduled", 19084},
      {"ftl.erase_fails", 4},
      {"ftl.gc_page_moves", 693},
      {"ftl.gc_runs", 81},
      {"ftl.grown_defects", 5},
      {"ftl.host_writes", 2608},
      {"ftl.misdirected_writes", 37},
      {"ftl.mode_migrations", 11},
      {"ftl.mount_mappings_recovered", 4195},
      {"ftl.mount_pages_scanned", 7503},
      {"ftl.mount_stale_records", 2933},
      {"ftl.mounts", 1},
      {"ftl.nand_erases", 271},
      {"ftl.nand_writes", 7116},
      {"ftl.program_fails", 11},
      {"ftl.refresh_page_moves", 3644},
      {"ftl.refresh_runs", 190},
      {"ftl.repair_writes", 0},
      {"ftl.retire_page_moves", 149},
      {"ftl.retired_blocks", 20},
      {"ftl.torn_relocations", 232},
      {"policy.data_loss_reads", 10},
      {"policy.integrity_recovered_reads", 21},
      {"policy.integrity_unrecovered_reads", 67},
      {"policy.migrations_to_normal", 5},
      {"policy.migrations_to_reduced", 6},
      {"policy.recovered_reads", 6},
      {"policy.refresh_blocks", 190},
      {"policy.refresh_page_moves", 3644},
      {"sched.qos_background_deferrals", 4674},
      {"sched.qos_fairness_overrides", 934},
      {"ssd.buffer_hits", 712},
      {"ssd.crashes", 1},
      {"ssd.integrity_mismatch_reads", 88},
      {"ssd.integrity_verified_reads", 3767},
      {"ssd.reads", 3446},
      {"ssd.requests", 5766},
      {"ssd.uncorrectable_reads", 16},
      {"ssd.unmapped_reads", 334},
      {"ssd.writes", 2320},
      {"ssd.writes_acked", 3188},
      {"ssd.writes_durable", 2608},
      {"tenant.0.reads", 1730},
      {"tenant.0.rejected", 1056},
      {"tenant.0.writes", 1214},
      {"tenant.1.reads", 1716},
      {"tenant.1.rejected", 1178},
      {"tenant.1.writes", 1106},
  });
  // SsdResults::ftl and the registry's ftl.* describe the same window,
  // mount included.
  const auto& c = results.metrics.counters;
  const ftl::FtlStats& f = results.ftl;
  EXPECT_EQ(c.at("ftl.host_writes"), f.host_writes);
  EXPECT_EQ(c.at("ftl.nand_writes"), f.nand_writes);
  EXPECT_EQ(c.at("ftl.nand_erases"), f.nand_erases);
  EXPECT_EQ(c.at("ftl.gc_runs"), f.gc_runs);
  EXPECT_EQ(c.at("ftl.gc_page_moves"), f.gc_page_moves);
  EXPECT_EQ(c.at("ftl.mode_migrations"), f.mode_migrations);
  EXPECT_EQ(c.at("ftl.refresh_runs"), f.refresh_runs);
  EXPECT_EQ(c.at("ftl.refresh_page_moves"), f.refresh_page_moves);
  EXPECT_EQ(c.at("ftl.program_fails"), f.program_fails);
  EXPECT_EQ(c.at("ftl.erase_fails"), f.erase_fails);
  EXPECT_EQ(c.at("ftl.grown_defects"), f.grown_defects);
  EXPECT_EQ(c.at("ftl.retired_blocks"), f.retired_blocks);
  EXPECT_EQ(c.at("ftl.retire_page_moves"), f.retire_page_moves);
  EXPECT_EQ(c.at("ftl.mounts"), f.mounts);
  EXPECT_EQ(c.at("ftl.mount_pages_scanned"), f.mount_pages_scanned);
  EXPECT_EQ(c.at("ftl.mount_mappings_recovered"),
            f.mount_mappings_recovered);
  EXPECT_EQ(c.at("ftl.mount_stale_records"), f.mount_stale_records);
  EXPECT_EQ(c.at("ftl.misdirected_writes"), f.misdirected_writes);
  EXPECT_EQ(c.at("ftl.torn_relocations"), f.torn_relocations);
  EXPECT_EQ(c.at("ftl.repair_writes"), f.repair_writes);
  EXPECT_EQ(c.at("ssd.writes"), results.write_response.count());
  EXPECT_EQ(c.at("policy.refresh_blocks"), results.refresh_blocks);
}

TEST_F(GoldenRegression, ArmedArrayMetricsSnapshot) {
  // Every registered counter of a RAID-10 array of FlexLevel drives with
  // persistent corruption armed: replica failover, read-repair and
  // array-wide hotness feeds all fire.
  host::ArrayConfig cfg;
  cfg.drives = 4;
  cfg.replication_factor = 2;
  cfg.stripe_pages = 16;
  cfg.access_eval_scope = host::AccessEvalScope::kGlobal;
  cfg.drive = config(Scheme::kFlexLevel);
  cfg.drive.integrity.enabled = true;
  cfg.drive.faults.enabled = true;
  cfg.drive.faults.silent_corruption_rate = 2e-3;
  cfg.drive.faults.misdirected_write_rate = 2e-3;
  cfg.drive.faults.torn_relocation_rate = 2e-2;
  telemetry::Telemetry telemetry;
  auto built = host::ArraySimulator::Builder(*normal_, *reduced_)
                   .config(cfg)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().message();
  host::ArraySimulator& array = **built;
  array.prefill(8000);

  trace::WorkloadParams params;
  params.name = "armed-array";
  params.read_fraction = 0.85;
  params.zipf_theta = 0.95;
  params.footprint_pages = 8000;
  params.mean_request_pages = 1.4;
  params.max_request_pages = 8;
  params.iops = 3000;
  params.requests = 6'000;
  const auto trace = trace::generate(params, 777);
  const auto split = trace.begin() + 2'000;
  array.run_segment({trace.begin(), split});
  array.reset_measurements();
  array.attach_telemetry(&telemetry);
  array.run_segment({split, trace.end()});
  const telemetry::MetricsSnapshot snapshot = telemetry.metrics.snapshot();
  expect_counters(snapshot, {
      {"array.commands", 4679},
      {"array.integrity_failovers", 21},
      {"array.observe_feeds", 4831},
      {"array.read_repairs", 21},
      {"array.reads", 3430},
      {"array.requests", 4000},
      {"array.writes", 570},
      {"event_queue.fired", 27754},
      {"event_queue.scheduled", 27754},
  });
  const host::ArrayResults& r = array.results();
  EXPECT_EQ(snapshot.counters.at("array.requests"), r.all_response.count());
  EXPECT_EQ(snapshot.counters.at("array.read_repairs"), r.read_repairs);
  // Drive internals are not attached to the array's registry; the repair
  // rewrites land in each drive's own FTL stats.
  std::uint64_t repair_writes = 0;
  for (const SsdResults& drive : r.drive) {
    repair_writes += drive.ftl.repair_writes;
  }
  EXPECT_EQ(repair_writes, 21u);
}

}  // namespace
}  // namespace flex::ssd
