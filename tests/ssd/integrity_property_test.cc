// End-to-end data integrity at the drive level: the
// NoAcknowledgedWriteEverReturnsWrongData property under all three
// silent-corruption fault kinds, across relocations (GC under a
// write-heavy trace) and crash points (harness data audit), plus the
// cost-when-clean and determinism contracts the bench relies on.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "ssd/crash_harness.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "trace/workloads.h"

namespace flex::ssd {
namespace {

class IntegrityPropertyTest : public ::testing::Test {
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

  /// small_config with the integrity layer on and all three corruption
  /// kinds armed hot. The torn-relocation kind only strikes maintenance
  /// programs (GC, wear leveling, refresh), so its rate is an order of
  /// magnitude above the others — with the write-heavy trace below the
  /// GC page-move stream is large enough that the path reliably fires.
  static SsdConfig corrupting_config(Scheme scheme) {
    SsdConfig cfg = small_config(scheme);
    cfg.integrity.enabled = true;
    cfg.faults.enabled = true;
    cfg.faults.silent_corruption_rate = 5e-3;
    cfg.faults.misdirected_write_rate = 5e-3;
    cfg.faults.torn_relocation_rate = 5e-2;
    return cfg;
  }

  static std::vector<trace::Request> small_trace(double read_fraction,
                                                 std::uint64_t requests,
                                                 std::uint64_t seed) {
    trace::WorkloadParams params;
    params.name = "integrity";
    params.read_fraction = read_fraction;
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

reliability::BerModel* IntegrityPropertyTest::normal_ = nullptr;
reliability::BerModel* IntegrityPropertyTest::reduced_ = nullptr;

TEST_F(IntegrityPropertyTest, ValidateRejectsCorruptionWithoutIntegrity) {
  // Without seals the corruption kinds would be undetectable by
  // construction — arming them with integrity off must not validate.
  SsdConfig cfg = small_config(Scheme::kLdpcInSsd);
  cfg.faults.enabled = true;
  cfg.faults.silent_corruption_rate = 1e-4;
  const Status status = cfg.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("integrity"), std::string::npos);
  cfg.integrity.enabled = true;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST_F(IntegrityPropertyTest, CleanRunVerifiesEverythingFlagsNothing) {
  SsdConfig cfg = small_config(Scheme::kFlexLevel);
  cfg.integrity.enabled = true;
  auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
  sim->prefill(4000);
  const SsdResults r = sim->run(small_trace(0.7, 15'000, 21));
  EXPECT_GT(r.integrity_verified_reads, 0u);
  EXPECT_EQ(r.integrity_mismatch_reads, 0u);
  EXPECT_EQ(r.integrity_undetected_reads, 0u);
  EXPECT_EQ(r.integrity_recovered_reads, 0u);
  EXPECT_EQ(r.integrity_unrecovered_reads, 0u);
  EXPECT_EQ(sim->ftl().stats().misdirected_writes, 0u);
  EXPECT_EQ(sim->ftl().stats().torn_relocations, 0u);
  EXPECT_EQ(sim->ftl().stats().repair_writes, 0u);
}

TEST_F(IntegrityPropertyTest, IntegrityCostsNoSimulatedTimeWhenClean) {
  // Seals ride the existing OOB path: with no corruption armed, the
  // integrity layer must not perturb a single latency or FTL decision.
  const auto trace = small_trace(0.7, 15'000, 22);
  auto off = test::build_simulator(small_config(Scheme::kFlexLevel), *normal_,
                                   *reduced_);
  off->prefill(4000);
  const SsdResults a = off->run(trace);

  SsdConfig cfg = small_config(Scheme::kFlexLevel);
  cfg.integrity.enabled = true;
  auto on = test::build_simulator(std::move(cfg), *normal_, *reduced_);
  on->prefill(4000);
  const SsdResults b = on->run(trace);

  EXPECT_EQ(a.read_response.mean(), b.read_response.mean());
  EXPECT_EQ(a.write_response.mean(), b.write_response.mean());
  EXPECT_EQ(a.ftl.nand_writes, b.ftl.nand_writes);
  EXPECT_EQ(a.ftl.gc_runs, b.ftl.gc_runs);
  EXPECT_EQ(a.writes_acked, b.writes_acked);
}

TEST_F(IntegrityPropertyTest, NoAcknowledgedWriteEverReturnsWrongData) {
  // The headline property. A write-heavy trace keeps GC moving pages
  // (torn relocations), host programs misdirect, and post-ECC reads
  // take transient flips — yet every read that would deliver wrong
  // bytes is flagged by the seal check: zero undetected corruptions.
  for (const Scheme scheme : {Scheme::kLdpcInSsd, Scheme::kFlexLevel}) {
    auto sim = test::build_simulator(corrupting_config(scheme), *normal_,
                                     *reduced_);
    sim->prefill(4000);
    const SsdResults r = sim->run(small_trace(0.5, 15'000, 23));
    SCOPED_TRACE(scheme_name(scheme));
    EXPECT_EQ(r.integrity_undetected_reads, 0u);
    EXPECT_GT(r.integrity_verified_reads, 0u);
    EXPECT_GT(r.integrity_mismatch_reads, 0u);
    // Every flagged mismatch is adjudicated by the recovery re-read:
    // transient flips cure, persistent medium faults do not.
    EXPECT_EQ(r.integrity_mismatch_reads,
              r.integrity_recovered_reads + r.integrity_unrecovered_reads);
    EXPECT_GT(r.integrity_recovered_reads, 0u);
    // Both persistent fault kinds actually fired (lifetime counters:
    // prefill programs misdirect too).
    EXPECT_GT(sim->ftl().stats().misdirected_writes, 0u);
    EXPECT_GT(sim->ftl().stats().torn_relocations, 0u);
  }
}

TEST_F(IntegrityPropertyTest, FaultyRunsAreDeterministic) {
  // Stateless fault adjudication: identical configs and traces give
  // identical corruption patterns and identical verdicts.
  const auto trace = small_trace(0.5, 8'000, 24);
  auto run = [&] {
    auto sim = test::build_simulator(corrupting_config(Scheme::kFlexLevel),
                                     *normal_, *reduced_);
    sim->prefill(4000);
    return sim->run(trace);
  };
  const SsdResults a = run();
  const SsdResults b = run();
  EXPECT_EQ(a.integrity_verified_reads, b.integrity_verified_reads);
  EXPECT_EQ(a.integrity_mismatch_reads, b.integrity_mismatch_reads);
  EXPECT_EQ(a.integrity_recovered_reads, b.integrity_recovered_reads);
  EXPECT_EQ(a.integrity_unrecovered_reads, b.integrity_unrecovered_reads);
  EXPECT_EQ(a.ftl.misdirected_writes, b.ftl.misdirected_writes);
  EXPECT_EQ(a.ftl.torn_relocations, b.ftl.torn_relocations);
  EXPECT_EQ(a.read_response.mean(), b.read_response.mean());
}

TEST_F(IntegrityPropertyTest, RepairRestoresCorruptPagesToVerifying) {
  // Drive-level read-repair: after a faulty run some mapped pages hold
  // persistent corruption (page_verifies() false). repair_page rewrites
  // each with fresh current-generation payload + seal. A repair program
  // can itself misdirect, hence the bounded convergence loop.
  auto sim = test::build_simulator(corrupting_config(Scheme::kLdpcInSsd),
                                   *normal_, *reduced_);
  sim->prefill(4000);
  sim->run(small_trace(0.5, 10'000, 25));

  const std::uint64_t logical = sim->ftl().logical_pages();
  auto corrupt_pages = [&] {
    std::vector<std::uint64_t> bad;
    for (std::uint64_t lpn = 0; lpn < logical; ++lpn) {
      if (!sim->page_verifies(lpn)) bad.push_back(lpn);
    }
    return bad;
  };

  std::vector<std::uint64_t> bad = corrupt_pages();
  ASSERT_GT(bad.size(), 0u);  // the run must actually corrupt something
  SimTime repair_time = 2'000'000'000'000LL;  // well past the trace end
  for (int pass = 0; pass < 8 && !bad.empty(); ++pass) {
    for (const std::uint64_t lpn : bad) sim->repair_page(lpn, repair_time);
    repair_time += 1'000'000'000LL;
    bad = corrupt_pages();
  }
  EXPECT_TRUE(bad.empty()) << bad.size() << " pages still corrupt";
  EXPECT_GT(sim->ftl().stats().repair_writes, 0u);
}

TEST_F(IntegrityPropertyTest, CrashSweepAuditFindsNoUndetectedCorruption) {
  // Crash × corruption: at every crash point the mounted medium is
  // audited entry by entry against the durable-version ledger. Corrupt
  // payloads exist (misdirected prefill/host writes) but every one sits
  // under a seal that fails verification — detected, never silent.
  SsdConfig cfg = corrupting_config(Scheme::kFlexLevel);
  cfg.faults.crash_enabled = true;
  cfg.faults.crash_rate = 1.0 / 4096.0;
  cfg.durability.policy = DurabilityPolicy::kFlushBarrier;
  cfg.durability.flush_barrier_interval = 64;
  const auto trace = small_trace(0.5, 5'000, 26);
  std::uint64_t total_detected = 0;
  for (std::uint64_t salt = 0; salt < 6; ++salt) {
    const CrashVerdict verdict =
        run_crash_point(cfg, trace, salt, 4000, *normal_, *reduced_);
    SCOPED_TRACE("salt " + std::to_string(salt));
    EXPECT_TRUE(verdict.ok()) << verdict.consistency_message;
    EXPECT_GT(verdict.data_checked, 0u);
    EXPECT_EQ(verdict.data_corrupt_undetected, 0u);
    total_detected += verdict.data_corrupt_detected;
  }
  // The audit has teeth: across the sweep it saw real corruption.
  EXPECT_GT(total_detected, 0u);
}

}  // namespace
}  // namespace flex::ssd
