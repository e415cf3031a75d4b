// Power-loss crash consistency, end to end: deterministic crash-point
// injection in the simulator's event loop, OOB mount/recovery, and the
// durability invariants the CrashHarness checks:
//   1. no acknowledged-durable write is lost,
//   2. no LPN is double-mapped after recovery,
//   3. the retired-block ledger survives the crash,
// plus the configuration guardrails (Validate) and the durability
// policies' ack-time accounting (FUA, flush barriers).
#include "ssd/crash_harness.h"

#include <memory>
#include <string>
#include <vector>

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

class CrashConsistencyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1234);
    const reliability::BerEngine::Config mc{.wordlines = 32,
                                            .bitlines = 128,
                                            .rounds = 2,
                                            .coupling = {}};
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

  // Small drive: 4 chips x 64 blocks x 32 pages = 8192 physical pages.
  static SsdConfig small_config(Scheme scheme) {
    SsdConfig cfg;
    cfg.scheme = scheme;
    cfg.ftl.spec.page_size_bytes = 4096;
    cfg.ftl.spec.pages_per_block = 32;
    cfg.ftl.spec.blocks_per_chip = 64;
    cfg.ftl.spec.chips = 4;
    cfg.ftl.over_provisioning = 0.27;
    cfg.ftl.gc_low_watermark = 4;
    cfg.ftl.initial_pe_cycles = 6000;
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

  /// small_config with crash injection armed: program/erase faults on (so
  /// retirement exercises invariant 3), flush-barrier durability, and a
  /// crash rate that lands the power loss inside a 5k-request trace.
  static SsdConfig crash_config(Scheme scheme) {
    SsdConfig cfg = small_config(scheme);
    cfg.faults.enabled = true;
    cfg.faults.program_fail_rate = 0.002;
    cfg.faults.erase_fail_rate = 0.002;
    cfg.faults.crash_enabled = true;
    cfg.faults.crash_rate = 1.0 / 4096.0;
    cfg.durability.policy = DurabilityPolicy::kFlushBarrier;
    cfg.durability.flush_barrier_interval = 64;
    return cfg;
  }

  static std::vector<trace::Request> small_trace(std::uint64_t requests,
                                                 std::uint64_t seed) {
    trace::WorkloadParams params;
    params.name = "crash";
    params.read_fraction = 0.6;  // write-heavy: more durability at stake
    params.zipf_theta = 1.0;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.iops = 1500;
    params.requests = requests;
    return trace::generate(params, seed);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* CrashConsistencyTest::normal_ = nullptr;
reliability::BerModel* CrashConsistencyTest::reduced_ = nullptr;

TEST_F(CrashConsistencyTest, ValidateRejectsCrashWithoutFaultInjection) {
  SsdConfig cfg = small_config(Scheme::kLdpcInSsd);
  cfg.faults.crash_enabled = true;  // faults.enabled stays false
  cfg.durability.policy = DurabilityPolicy::kFua;
  const Status status = cfg.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("crash_enabled"), std::string::npos);
}

TEST_F(CrashConsistencyTest, ValidateRejectsCrashWithWriteBackAcks) {
  // The durability footgun: crash injection with pure write-back would
  // acknowledge writes that the crash then silently loses.
  SsdConfig cfg = small_config(Scheme::kLdpcInSsd);
  cfg.faults.enabled = true;
  cfg.faults.crash_enabled = true;  // durability stays kWriteBack
  const Status status = cfg.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("kWriteBack"), std::string::npos);
  cfg.durability.policy = DurabilityPolicy::kFlushBarrier;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST_F(CrashConsistencyTest, ValidateRejectsZeroBarrierInterval) {
  SsdConfig cfg = small_config(Scheme::kLdpcInSsd);
  cfg.durability.policy = DurabilityPolicy::kFlushBarrier;
  cfg.durability.flush_barrier_interval = 0;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST_F(CrashConsistencyTest, FuaAcksOnlyDurableWrites) {
  SsdConfig cfg = small_config(Scheme::kLdpcInSsd);
  cfg.durability.policy = DurabilityPolicy::kFua;
  auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
  sim->prefill(4000);
  sim->run_segment(small_trace(2000, 11));
  // Force-unit-access: every acknowledged page was programmed first, so
  // the two counters track exactly and nothing dirty rides in DRAM.
  EXPECT_GT(sim->results().writes_acked, 0u);
  EXPECT_EQ(sim->results().writes_acked, sim->results().writes_durable);
  EXPECT_EQ(sim->results().dirty_buffer_pages, 0u);
}

TEST_F(CrashConsistencyTest, WriteBackAcksMoreThanItPrograms) {
  // The seed behaviour: buffered-but-unprogrammed writes are acked and
  // counted as such — but never as durable.
  auto sim = test::build_simulator(small_config(Scheme::kLdpcInSsd), *normal_,
                                   *reduced_);
  sim->prefill(4000);
  sim->run_segment(small_trace(2000, 11));
  EXPECT_GT(sim->results().writes_acked, sim->results().writes_durable);
  EXPECT_GT(sim->results().dirty_buffer_pages, 0u);
}

TEST_F(CrashConsistencyTest, FlushBarrierBoundsTheDirtyWindow) {
  SsdConfig cfg = small_config(Scheme::kLdpcInSsd);
  cfg.durability.policy = DurabilityPolicy::kFlushBarrier;
  cfg.durability.flush_barrier_interval = 32;
  auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
  sim->prefill(4000);
  sim->run_segment(small_trace(2000, 11));
  EXPECT_LT(sim->results().dirty_buffer_pages, 32u);
  // An explicit barrier (fsync) leaves nothing dirty at all.
  sim->flush_barrier();
  sim->run_segment({});
  EXPECT_EQ(sim->results().dirty_buffer_pages, 0u);
}

TEST_F(CrashConsistencyTest, CrashSweepHoldsEveryInvariant) {
  // The tentpole check, in miniature (the bench sweeps 256+ points):
  // several crash salts per scheme, every verdict must be clean.
  const auto trace = small_trace(5000, 2024);
  for (const Scheme scheme : {Scheme::kLdpcInSsd, Scheme::kFlexLevel}) {
    int mid_trace_crashes = 0;
    for (std::uint64_t salt = 0; salt < 6; ++salt) {
      const CrashVerdict verdict = run_crash_point(
          crash_config(scheme), trace, salt, 4000, *normal_, *reduced_);
      EXPECT_EQ(verdict.lost_acknowledged, 0u)
          << scheme_name(scheme) << " salt " << salt;
      EXPECT_TRUE(verdict.double_mapped.empty())
          << scheme_name(scheme) << " salt " << salt;
      EXPECT_TRUE(verdict.retired_ledger_ok)
          << scheme_name(scheme) << " salt " << salt;
      EXPECT_TRUE(verdict.consistent)
          << scheme_name(scheme) << " salt " << salt << ": "
          << verdict.consistency_message;
      EXPECT_GT(verdict.report.mappings_recovered, 0u);
      EXPECT_GT(verdict.mount_time, 0);
      if (verdict.crashed_mid_trace) ++mid_trace_crashes;
    }
    // The crash rate is tuned to land inside this trace: if no salt ever
    // fired, the sweep silently degraded to end-of-trace cord pulls only.
    EXPECT_GT(mid_trace_crashes, 0) << scheme_name(scheme);
  }
}

TEST_F(CrashConsistencyTest, CrashPointIsDeterministic) {
  const auto trace = small_trace(5000, 99);
  const CrashVerdict a = run_crash_point(crash_config(Scheme::kFlexLevel),
                                         trace, 3, 4000, *normal_, *reduced_);
  const CrashVerdict b = run_crash_point(crash_config(Scheme::kFlexLevel),
                                         trace, 3, 4000, *normal_, *reduced_);
  EXPECT_EQ(a.crashed_mid_trace, b.crashed_mid_trace);
  EXPECT_EQ(a.crash_ordinal, b.crash_ordinal);
  EXPECT_EQ(a.writes_acked, b.writes_acked);
  EXPECT_EQ(a.writes_durable, b.writes_durable);
  EXPECT_EQ(a.dirty_lost, b.dirty_lost);
  EXPECT_EQ(a.report.pages_scanned, b.report.pages_scanned);
  EXPECT_EQ(a.report.mappings_recovered, b.report.mappings_recovered);
  EXPECT_EQ(a.report.stale_records, b.report.stale_records);
  EXPECT_EQ(a.report.reduced_lpns, b.report.reduced_lpns);
}

TEST_F(CrashConsistencyTest, CrashOffRunsAreUnperturbed) {
  // Arming the machinery must cost nothing when off: a run with crash
  // support compiled in but crash_enabled=false matches a plain run of
  // the same seed, field for field.
  const auto trace = small_trace(3000, 5);
  auto plain = test::build_simulator(small_config(Scheme::kFlexLevel), *normal_,
                                     *reduced_);
  plain->prefill(4000);
  const SsdResults a = plain->run(trace);

  SsdConfig cfg = small_config(Scheme::kFlexLevel);
  cfg.faults.enabled = true;  // injector constructed, crash stays off
  auto armed = test::build_simulator(std::move(cfg), *normal_, *reduced_);
  armed->prefill(4000);
  const SsdResults b = armed->run(trace);

  EXPECT_EQ(a.read_response.mean(), b.read_response.mean());
  EXPECT_EQ(a.write_response.mean(), b.write_response.mean());
  EXPECT_EQ(a.ftl.nand_writes, b.ftl.nand_writes);
  EXPECT_EQ(a.writes_acked, b.writes_acked);
  EXPECT_EQ(a.writes_durable, b.writes_durable);
  EXPECT_EQ(a.crashes, 0u);
  EXPECT_EQ(b.crashes, 0u);
}

TEST_F(CrashConsistencyTest, MountIsIdempotentIncludingMetrics) {
  // mount -> workload -> crash -> mount -> mount: the second mount must
  // reproduce the first byte for byte — metrics snapshot and L2P dump —
  // because a drive can lose power again right after recovering.
  telemetry::Telemetry telemetry;
  SsdConfig cfg = crash_config(Scheme::kFlexLevel);
  auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
  sim->prefill(4000);
  sim->mount();  // clean pre-workload mount is legal
  sim->run_segment(small_trace(5000, 77));
  if (!sim->crashed()) sim->power_loss();

  sim->attach_telemetry(&telemetry);
  sim->mount();
  const std::string metrics_first = telemetry.metrics.snapshot().to_jsonl();
  const std::vector<std::uint32_t> l2p_first = sim->ftl().l2p_dump();

  sim->power_loss();
  telemetry.metrics.zero();  // crash accounted; compare the mounts alone
  sim->mount();
  EXPECT_EQ(telemetry.metrics.snapshot().to_jsonl(), metrics_first);
  EXPECT_EQ(sim->ftl().l2p_dump(), l2p_first);
  EXPECT_TRUE(sim->ftl().check_consistency().ok());
}

}  // namespace
}  // namespace flex::ssd
