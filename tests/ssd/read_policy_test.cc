// Unit tests for the ReadPolicy in isolation (no simulator): each §6.2
// scheme's cost rule, storage modes, and maintenance counters, plus the
// read-disturb refresh and recovery add-ons, alone and armed together.
#include "ssd/read_policy.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"

namespace flex::ssd {
namespace {

class ReadPolicyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(4242);
    const reliability::BerEngine::Config mc{
        .wordlines = 32, .bitlines = 128, .rounds = 2, .coupling = {}};
    static const reliability::GrayMapper gray;
    normal_ = new reliability::BerModel(nand::LevelConfig::baseline_mlc(),
                                        gray, reliability::RetentionModel{},
                                        mc, rng);
  }
  static void TearDownTestSuite() {
    delete normal_;
    normal_ = nullptr;
  }

  // Tiny drive: 1 chip x 32 blocks x 4 pages = 128 physical pages.
  static SsdConfig config(Scheme scheme) {
    SsdConfig cfg;
    cfg.scheme = scheme;
    cfg.ftl.spec.page_size_bytes = 4096;
    cfg.ftl.spec.pages_per_block = 4;
    cfg.ftl.spec.blocks_per_chip = 32;
    cfg.ftl.spec.chips = 1;
    cfg.ftl.gc_low_watermark = 2;
    cfg.ftl.initial_pe_cycles = 3000;
    cfg.access_eval.pool_capacity_pages = 16;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 10,
                               .hashes = 2,
                               .window_accesses = 64};
    return cfg;
  }

  struct Fixture {
    explicit Fixture(SsdConfig cfg_in,
                     const faults::FaultInjector* injector = nullptr)
        : cfg(std::move(cfg_in)),
          ftl(cfg.ftl),
          policy(cfg, cfg.latency, ladder, *normal_,
                 ftl.physical_blocks() * cfg.ftl.spec.pages_per_block, ftl,
                 injector) {}

    SsdConfig cfg;
    reliability::SensingRequirement ladder;
    ftl::PageMappingFtl ftl;
    ReadPolicy policy;
  };

  static ReadContext read_of(std::uint64_t lpn, std::uint64_t ppn,
                             int required) {
    return {.lpn = lpn, .ppn = ppn, .required_levels = required, .now = 100};
  }

  /// Summed occupancy of a read's per-attempt decomposition.
  static Duration total_of(const std::vector<ReadAttempt>& attempts) {
    Duration total = 0;
    for (const ReadAttempt& attempt : attempts) total += attempt.cost.total();
    return total;
  }

  static reliability::BerModel* normal_;
};

reliability::BerModel* ReadPolicyTest::normal_ = nullptr;

TEST_F(ReadPolicyTest, BaselineProvisionsForRatedRetention) {
  Fixture f(config(Scheme::kBaseline));
  // The fixed attempt is sized for the rated-retention worst case of the
  // pre-aged drive, independent of what this page actually needs.
  const int fixed = f.ladder.required_levels(normal_->total_ber(
      static_cast<int>(f.cfg.ftl.initial_pe_cycles),
      kBaselineRetentionSpec));
  const ReadCost easy = f.policy.read_cost(read_of(1, 1, 0));
  EXPECT_EQ(easy.total(), f.cfg.latency.read_fixed(fixed));
  // A page whose requirement exceeds the provision escalates past it.
  const int top = f.ladder.steps().back().extra_levels;
  if (top > fixed) {
    const ReadCost hard = f.policy.read_cost(read_of(2, 2, top));
    EXPECT_EQ(hard.total(), f.cfg.latency.read_fixed(top));
  }
  EXPECT_EQ(f.policy.write_mode(0), ftl::PageMode::kNormal);
  EXPECT_EQ(f.policy.prefill_mode(), ftl::PageMode::kNormal);
}

TEST_F(ReadPolicyTest, ProgressiveClimbsTheLadder) {
  Fixture f(config(Scheme::kLdpcInSsd));
  for (const auto& step : f.ladder.steps()) {
    const ReadCost cost =
        f.policy.read_cost(read_of(1, 1, step.extra_levels));
    EXPECT_EQ(cost.total(),
              f.cfg.latency.read_latency({.required_levels = step.extra_levels}, f.ladder));
  }
  // Deeper requirements cost strictly more (failed attempts accumulate).
  EXPECT_LT(f.policy.read_cost(read_of(1, 1, 0)).total(),
            f.policy.read_cost(read_of(1, 1, 6)).total());
  EXPECT_EQ(f.policy.write_mode(0), ftl::PageMode::kNormal);
  EXPECT_EQ(f.policy.prefill_mode(), ftl::PageMode::kNormal);
}

TEST_F(ReadPolicyTest, LevelAdjustOnlyStoresEverythingReduced) {
  Fixture f(config(Scheme::kLevelAdjustOnly));
  EXPECT_EQ(f.policy.write_mode(7), ftl::PageMode::kReduced);
  EXPECT_EQ(f.policy.prefill_mode(), ftl::PageMode::kReduced);
}

TEST_F(ReadPolicyTest, SensingHintRemembersLastDepth) {
  auto cfg = config(Scheme::kLdpcInSsd);
  cfg.sensing_hint = true;
  Fixture f(std::move(cfg));
  // First read of the page: no hint yet, full ladder climb.
  const ReadCost cold = f.policy.read_cost(read_of(1, 9, 4));
  EXPECT_EQ(cold.total(), f.cfg.latency.read_latency({.required_levels = 4}, f.ladder));
  // Second read starts at the remembered depth: no failed attempts.
  const ReadCost warm = f.policy.read_cost(read_of(1, 9, 4));
  EXPECT_EQ(warm.total(), f.cfg.latency.read_latency({.start_levels = 4, .required_levels = 4}, f.ladder));
  EXPECT_LT(warm.total(), cold.total());
  // The hint is per physical page: another page still climbs from zero.
  const ReadCost other = f.policy.read_cost(read_of(2, 10, 4));
  EXPECT_EQ(other.total(), cold.total());
}

TEST_F(ReadPolicyTest, SensingHintAttemptsStartAtRememberedDepth) {
  auto cfg = config(Scheme::kLdpcInSsd);
  cfg.sensing_hint = true;
  Fixture f(std::move(cfg));
  // The first read climbs the ladder from a hard read and teaches the page
  // its depth; the attempts come from the same call that charges the cost.
  std::vector<ReadAttempt> cold_attempts;
  const ReadCost cold =
      f.policy.read_cost(read_of(1, 9, 2), &cold_attempts);
  ASSERT_GT(cold_attempts.size(), 1u);
  EXPECT_EQ(cold_attempts.front().levels, 0);
  EXPECT_EQ(total_of(cold_attempts), cold.total());
  // The second read of the same ppn starts at the remembered depth, still
  // summing exactly to the cost returned alongside it.
  std::vector<ReadAttempt> warm_attempts;
  const ReadCost warm =
      f.policy.read_cost(read_of(1, 9, 2), &warm_attempts);
  ASSERT_EQ(warm_attempts.size(), 1u);
  EXPECT_EQ(warm_attempts.front().levels, 2);
  EXPECT_EQ(total_of(warm_attempts), warm.total());
  EXPECT_LT(warm.total(), cold.total());
}

TEST_F(ReadPolicyTest, FlexLevelMigratesHotSoftPages) {
  Fixture f(config(Scheme::kFlexLevel));
  // Map a page so the migration has something to move.
  f.ftl.write(5, ftl::PageMode::kNormal, 0);
  // Hot (repeated) + high-sensing reads cross the HLO threshold. Hotness
  // counts the Bloom-window filters containing the page, and the window
  // rotates every window_accesses (= 64) reads — so the page must recur
  // across at least two windows before it registers as hot.
  for (int i = 0; i < 80; ++i) {
    f.policy.on_read_complete(read_of(5, f.ftl.lookup(5)->ppn, 6));
  }
  const ReadPolicyStats stats = f.policy.stats();
  EXPECT_GT(stats.migrations_to_reduced, 0u);
  EXPECT_GT(stats.pool_pages, 0u);
  EXPECT_EQ(f.ftl.lookup(5)->mode, ftl::PageMode::kReduced);
  // Pool members write back into reduced state.
  EXPECT_EQ(f.policy.write_mode(5), ftl::PageMode::kReduced);
  EXPECT_EQ(f.policy.write_mode(6), ftl::PageMode::kNormal);
  // reset_stats clears the migration counters but not the pool gauge.
  f.policy.reset_stats();
  const ReadPolicyStats after = f.policy.stats();
  EXPECT_EQ(after.migrations_to_reduced, 0u);
  EXPECT_EQ(after.pool_pages, stats.pool_pages);
}

TEST_F(ReadPolicyTest, RefreshScrubsAtThreshold) {
  auto cfg = config(Scheme::kLdpcInSsd);
  cfg.read_disturb.enabled = true;
  cfg.read_disturb.refresh_threshold = 5;
  Fixture f(std::move(cfg));
  // Fill two blocks so lpn 0's block is closed (not a write frontier).
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    f.ftl.write(lpn, ftl::PageMode::kNormal, 0);
  }
  const std::uint64_t ppn = f.ftl.lookup(0)->ppn;
  // Below threshold: reads complete without maintenance.
  for (int i = 0; i < 4; ++i) {
    f.ftl.record_read(ppn);
    f.policy.on_read_complete(read_of(0, ppn, 0));
  }
  EXPECT_EQ(f.policy.stats().refresh_blocks, 0u);
  EXPECT_EQ(f.ftl.stats().refresh_runs, 0u);
  // The threshold-crossing read triggers the scrub.
  f.ftl.record_read(ppn);
  f.policy.on_read_complete(read_of(0, ppn, 0));
  const ReadPolicyStats stats = f.policy.stats();
  EXPECT_EQ(stats.refresh_blocks, 1u);
  EXPECT_GT(stats.refresh_page_moves, 0u);
  EXPECT_EQ(f.ftl.stats().refresh_runs, 1u);
  // The block was erased (stress gone) and the data relocated.
  EXPECT_EQ(f.ftl.block_read_count(ppn), 0u);
  EXPECT_NE(f.ftl.lookup(0)->ppn, ppn);
  EXPECT_EQ(f.ftl.lookup(0)->block_reads, 0u);
}

TEST_F(ReadPolicyTest, RefreshSkipsOpenFrontier) {
  auto cfg = config(Scheme::kLdpcInSsd);
  cfg.read_disturb.refresh_threshold = 3;
  Fixture f(std::move(cfg));
  // A single write leaves lpn 0 on the open frontier block.
  f.ftl.write(0, ftl::PageMode::kNormal, 0);
  const std::uint64_t ppn = f.ftl.lookup(0)->ppn;
  for (int i = 0; i < 10; ++i) {
    f.ftl.record_read(ppn);
    f.policy.on_read_complete(read_of(0, ppn, 0));
  }
  // Frontier blocks are never scrubbed; the stress stays on the counter.
  EXPECT_EQ(f.policy.stats().refresh_blocks, 0u);
  EXPECT_EQ(f.ftl.block_read_count(ppn), 10u);
}

TEST_F(ReadPolicyTest, ArmedRefreshKeepsSchemeCostAndModes) {
  auto cfg = config(Scheme::kLevelAdjustOnly);
  cfg.read_disturb.refresh_threshold = 100;
  Fixture f(std::move(cfg));
  // Arming the scrub must not change the scheme's cost rule or storage
  // modes.
  EXPECT_EQ(f.policy.read_cost(read_of(1, 1, 2)).total(),
            f.cfg.latency.read_latency({.required_levels = 2}, f.ladder));
  EXPECT_EQ(f.policy.write_mode(0), ftl::PageMode::kReduced);
  EXPECT_EQ(f.policy.prefill_mode(), ftl::PageMode::kReduced);
}

TEST_F(ReadPolicyTest, RecoveryChargesTheDeepestReread) {
  faults::FaultConfig fault_cfg;
  fault_cfg.enabled = true;
  fault_cfg.read_retry_rescue = 1.0;
  const faults::FaultInjector injector(fault_cfg, 7);
  Fixture f(config(Scheme::kLdpcInSsd), &injector);
  Fixture plain(config(Scheme::kLdpcInSsd));
  const int top = f.ladder.steps().back().extra_levels;
  // Correctable reads cost exactly what the undecorated scheme charges.
  EXPECT_EQ(f.policy.read_cost(read_of(1, 1, 3)).total(),
            plain.policy.read_cost(read_of(1, 1, 3)).total());
  // An uncorrectable read pays the full climb plus one deepest-sensing
  // recovery re-read on top, and the same call's attempts show it as one
  // extra deepest-sensing step.
  ReadContext hard{.lpn = 1, .ppn = 1, .required_levels = top,
                   .correctable = false, .now = 100};
  std::vector<ReadAttempt> recovery_attempts;
  const ReadCost recovery = f.policy.read_cost(hard, &recovery_attempts);
  std::vector<ReadAttempt> plain_attempts;
  const ReadCost climb =
      plain.policy.read_cost(read_of(1, 1, top), &plain_attempts);
  EXPECT_EQ(recovery.total(),
            climb.total() + f.cfg.latency.read_fixed(top));
  ASSERT_EQ(recovery_attempts.size(), plain_attempts.size() + 1);
  EXPECT_EQ(recovery_attempts.back().levels, top);
  EXPECT_EQ(total_of(recovery_attempts), recovery.total());
}

TEST_F(ReadPolicyTest, RecoveryAdjudicatesRescueOrLoss) {
  faults::FaultConfig always;
  always.enabled = true;
  always.read_retry_rescue = 1.0;
  const faults::FaultInjector rescuer(always, 7);
  Fixture f(config(Scheme::kLdpcInSsd), &rescuer);
  ReadContext hard{.lpn = 1, .ppn = 1, .required_levels = 6,
                   .correctable = false, .now = 100};
  f.policy.on_read_complete(hard);
  f.policy.on_read_complete(read_of(2, 2, 0));  // correctable: no verdict
  EXPECT_EQ(f.policy.stats().recovered_reads, 1u);
  EXPECT_EQ(f.policy.stats().data_loss_reads, 0u);

  faults::FaultConfig never;
  never.enabled = true;
  never.read_retry_rescue = 0.0;
  const faults::FaultInjector condemner(never, 7);
  Fixture g(config(Scheme::kLdpcInSsd), &condemner);
  g.policy.on_read_complete(hard);
  EXPECT_EQ(g.policy.stats().recovered_reads, 0u);
  EXPECT_EQ(g.policy.stats().data_loss_reads, 1u);
  // reset_stats clears the verdict counters like any other measurement.
  g.policy.reset_stats();
  EXPECT_EQ(g.policy.stats().data_loss_reads, 0u);
}

TEST_F(ReadPolicyTest, ArmedRecoveryKeepsSchemeCostAndModes) {
  faults::FaultConfig fault_cfg;
  fault_cfg.enabled = true;
  const faults::FaultInjector injector(fault_cfg, 7);
  Fixture f(config(Scheme::kLevelAdjustOnly), &injector);
  // Arming recovery must not change the scheme's storage modes or the
  // cost of a correctable read.
  EXPECT_EQ(f.policy.write_mode(0), ftl::PageMode::kReduced);
  EXPECT_EQ(f.policy.prefill_mode(), ftl::PageMode::kReduced);
  EXPECT_EQ(f.policy.read_cost(read_of(1, 1, 2)).total(),
            f.cfg.latency.read_latency({.required_levels = 2}, f.ladder));
}

TEST_F(ReadPolicyTest, RefreshStatsResetKeepsFtlState) {
  auto cfg = config(Scheme::kLdpcInSsd);
  cfg.read_disturb.refresh_threshold = 2;
  Fixture f(std::move(cfg));
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    f.ftl.write(lpn, ftl::PageMode::kNormal, 0);
  }
  const std::uint64_t ppn = f.ftl.lookup(0)->ppn;
  f.ftl.record_read(ppn);
  f.ftl.record_read(ppn);
  f.policy.on_read_complete(read_of(0, ppn, 0));
  ASSERT_EQ(f.policy.stats().refresh_blocks, 1u);
  // Measurement counters clear; the FTL's cumulative stats do not (the
  // simulator differences them against a prefill snapshot instead).
  f.policy.reset_stats();
  EXPECT_EQ(f.policy.stats().refresh_blocks, 0u);
  EXPECT_EQ(f.policy.stats().refresh_page_moves, 0u);
  EXPECT_EQ(f.ftl.stats().refresh_runs, 1u);
}

TEST_F(ReadPolicyTest, AllMaintenanceRunsInOneRead) {
  // How many hot soft reads of lpn 1 it takes a plain FlexLevel drive to
  // migrate it (AccessEval is deterministic, so the armed drive below
  // migrates on the same read).
  int reads_to_migrate = 0;
  {
    Fixture plain(config(Scheme::kFlexLevel));
    plain.ftl.write(1, ftl::PageMode::kNormal, 0);
    while (plain.policy.stats().migrations_to_reduced == 0) {
      ASSERT_LT(++reads_to_migrate, 1000);
      plain.policy.on_read_complete(
          read_of(1, plain.ftl.lookup(1)->ppn, 6));
    }
  }

  faults::FaultConfig fault_cfg;
  fault_cfg.enabled = true;
  fault_cfg.read_retry_rescue = 1.0;
  const faults::FaultInjector injector(fault_cfg, 7);
  auto cfg = config(Scheme::kFlexLevel);
  cfg.sensing_hint = true;
  cfg.read_disturb.refresh_threshold = 5;
  Fixture f(std::move(cfg), &injector);
  // Two full blocks: lpns 0-3 share lpn 1's block, which is closed.
  for (std::uint64_t lpn = 0; lpn < 8; ++lpn) {
    f.ftl.write(lpn, ftl::PageMode::kNormal, 0);
  }
  const std::uint64_t ppn = f.ftl.lookup(1)->ppn;
  // Warm the hotness history without stressing the block.
  for (int i = 1; i < reads_to_migrate; ++i) {
    f.policy.on_read_complete(read_of(1, ppn, 6));
  }
  ASSERT_EQ(f.policy.stats().migrations_to_reduced, 0u);
  // The deciding read crosses the refresh threshold and is uncorrectable.
  for (int i = 0; i < 5; ++i) f.ftl.record_read(ppn);
  f.policy.on_read_complete({.lpn = 1, .ppn = ppn, .required_levels = 6,
                             .correctable = false, .now = 100});
  const ReadPolicyStats stats = f.policy.stats();
  // AccessEval first: the hot page left its block for a reduced page...
  EXPECT_EQ(stats.migrations_to_reduced, 1u);
  EXPECT_EQ(stats.pool_pages, 1u);
  EXPECT_EQ(f.ftl.lookup(1)->mode, ftl::PageMode::kReduced);
  // ...then the scrub of the block it was read from moved only the three
  // pages still valid there...
  EXPECT_EQ(stats.refresh_blocks, 1u);
  EXPECT_EQ(stats.refresh_page_moves, 3u);
  EXPECT_EQ(f.ftl.block_read_count(ppn), 0u);
  // ...then the recovery verdict.
  EXPECT_EQ(stats.recovered_reads, 1u);
  EXPECT_EQ(stats.data_loss_reads, 0u);

  // Teach page 9 its depth, then remount: the hint is forgotten and the
  // pool comes back from the durable membership alone.
  const ReadCost cold = f.policy.read_cost(read_of(2, 9, 4));
  EXPECT_LT(f.policy.read_cost(read_of(2, 9, 4)).total(), cold.total());
  ftl::MountReport report;
  report.reduced_lpns = {1, 6};
  f.policy.on_mount(report, 200);
  EXPECT_EQ(f.policy.read_cost(read_of(2, 9, 4)).total(), cold.total());
  EXPECT_EQ(f.policy.stats().pool_pages, 2u);
  EXPECT_EQ(f.policy.write_mode(6), ftl::PageMode::kReduced);
  EXPECT_EQ(f.policy.stats().migrations_to_normal, 0u);
}

TEST_F(ReadPolicyTest, MetricNamesFollowArmedFeatures) {
  faults::FaultConfig fault_cfg;
  fault_cfg.enabled = true;
  const faults::FaultInjector injector(fault_cfg, 7);
  const auto policy_names = [&](SsdConfig cfg,
                                const faults::FaultInjector* armed) {
    telemetry::Telemetry telemetry;
    Fixture f(std::move(cfg), armed);
    f.policy.attach_telemetry(&telemetry);
    const telemetry::MetricsSnapshot snapshot = telemetry.metrics.snapshot();
    std::vector<std::string> names;
    for (const auto& [name, value] : snapshot.counters) names.push_back(name);
    for (const auto& [name, value] : snapshot.gauges) names.push_back(name);
    f.policy.attach_telemetry(nullptr);
    return names;
  };
  using Names = std::vector<std::string>;
  const Names flexlevel = {"policy.migrations_to_normal",
                           "policy.migrations_to_reduced",
                           "policy.pool_pages"};
  const Names refresh = {"policy.refresh_blocks",
                         "policy.refresh_page_moves"};
  const Names recovery = {"policy.data_loss_reads",
                          "policy.integrity_recovered_reads",
                          "policy.integrity_unrecovered_reads",
                          "policy.recovered_reads"};

  for (const Scheme scheme :
       {Scheme::kBaseline, Scheme::kLdpcInSsd, Scheme::kLevelAdjustOnly}) {
    auto hinted = config(scheme);
    hinted.sensing_hint = true;
    EXPECT_EQ(policy_names(hinted, nullptr), Names{});
  }
  EXPECT_EQ(policy_names(config(Scheme::kFlexLevel), nullptr), flexlevel);

  auto scrubbed = config(Scheme::kBaseline);
  scrubbed.read_disturb.refresh_threshold = 5;
  EXPECT_EQ(policy_names(scrubbed, nullptr), refresh);
  EXPECT_EQ(policy_names(config(Scheme::kBaseline), &injector), recovery);

  auto armed = config(Scheme::kFlexLevel);
  armed.read_disturb.refresh_threshold = 5;
  // Counters, then gauges, each alphabetical.
  Names all = {"policy.data_loss_reads",
               "policy.integrity_recovered_reads",
               "policy.integrity_unrecovered_reads",
               "policy.migrations_to_normal",
               "policy.migrations_to_reduced",
               "policy.recovered_reads",
               "policy.refresh_blocks",
               "policy.refresh_page_moves",
               "policy.pool_pages"};
  EXPECT_EQ(policy_names(armed, &injector), all);
}

}  // namespace
}  // namespace flex::ssd
