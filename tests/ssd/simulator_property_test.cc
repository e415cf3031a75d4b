// Cross-cutting simulator properties: determinism, scheme-invariant
// accounting, and the age-model semantics.
#include <cmath>
#include <cstdint>
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

class SimulatorProperty : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(77);
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
    cfg.access_eval.pool_capacity_pages = 1000;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 14,
                               .hashes = 2,
                               .window_accesses = 512};
    return cfg;
  }

  static std::vector<trace::Request> trace_for(double read_fraction) {
    trace::WorkloadParams params;
    params.name = "prop";
    params.read_fraction = read_fraction;
    params.zipf_theta = 0.9;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.5;
    params.max_request_pages = 8;
    params.iops = 1500;
    params.requests = 15'000;
    return trace::generate(params, 321);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* SimulatorProperty::normal_ = nullptr;
reliability::BerModel* SimulatorProperty::reduced_ = nullptr;

TEST_F(SimulatorProperty, SameSeedSameResults) {
  const auto trace = trace_for(0.8);
  auto run_once = [&] {
    auto sim = test::build_simulator(config(Scheme::kFlexLevel), *normal_,
                                     *reduced_);
    sim->prefill(4000);
    return sim->run(trace);
  };
  const SsdResults a = run_once();
  const SsdResults b = run_once();
  EXPECT_DOUBLE_EQ(a.all_response.mean(), b.all_response.mean());
  EXPECT_DOUBLE_EQ(a.read_response.max(), b.read_response.max());
  EXPECT_EQ(a.migrations_to_reduced, b.migrations_to_reduced);
  EXPECT_EQ(a.ftl.nand_writes, b.ftl.nand_writes);
  EXPECT_EQ(a.sensing_level_reads, b.sensing_level_reads);
}

TEST_F(SimulatorProperty, DifferentSeedsDifferentPrefillAges) {
  const auto trace = trace_for(0.95);
  auto cfg = config(Scheme::kLdpcInSsd);
  auto a = test::build_simulator(cfg, *normal_, *reduced_);
  cfg.seed = 0xD1FF;
  auto b = test::build_simulator(cfg, *normal_, *reduced_);
  a->prefill(4000);
  b->prefill(4000);
  const auto ra = a->run(trace);
  const auto rb = b->run(trace);
  // Age draws differ, so the sensing-level mix cannot be identical.
  EXPECT_NE(ra.sensing_level_reads, rb.sensing_level_reads);
}

TEST_F(SimulatorProperty, HostVisibleCountsAreSchemeInvariant) {
  // Scheduling policy must not change what the host asked for: the number
  // of measured requests and the read/write split are identical across
  // schemes.
  const auto trace = trace_for(0.7);
  std::uint64_t expected_reads = 0;
  for (const Scheme scheme :
       {Scheme::kBaseline, Scheme::kLdpcInSsd, Scheme::kLevelAdjustOnly,
        Scheme::kFlexLevel}) {
    auto sim = test::build_simulator(config(scheme), *normal_, *reduced_);
    sim->prefill(4000);
    const auto results = sim->run(trace);
    EXPECT_EQ(results.all_response.count(), trace.size());
    if (expected_reads == 0) {
      expected_reads = results.read_response.count();
    } else {
      EXPECT_EQ(results.read_response.count(), expected_reads)
          << scheme_name(scheme);
    }
  }
}

TEST_F(SimulatorProperty, StaticAgeIgnoresRewrites) {
  // Under kStaticPerLba, rewriting a page must not lower its sensing
  // requirement; under kPhysical it must.
  const auto trace = trace_for(0.5);  // write-heavy: lots of rewrites
  auto run_model = [&](AgeModel model) {
    auto cfg = config(Scheme::kLdpcInSsd);
    cfg.age_model = model;
    cfg.min_prefill_age = kWeek;  // everything needs soft sensing at 6000
    cfg.max_prefill_age = kMonth;
    auto sim = test::build_simulator(cfg, *normal_, *reduced_);
    sim->prefill(4000);
    return sim->run(trace);
  };
  const auto fixed = run_model(AgeModel::kStaticPerLba);
  const auto physical = run_model(AgeModel::kPhysical);
  // Physical ages: rewritten pages read hard; static: they stay soft.
  EXPECT_GT(physical.sensing_level_reads[0], fixed.sensing_level_reads[0]);
  EXPECT_GT(fixed.read_response.mean(), physical.read_response.mean());
}

// Static ages are stored once per prefill extent. These runs pin what the
// per-LPN table this replaced produced, for an extent of one page, one that
// does not divide the prefill (2500 = 357 * 7 + 1) and one larger than it.
// The trace's reads span lpns [0, 2800): they find prefilled pages, some
// overwritten (which keep their static age), and pages past the prefill
// that the trace wrote (which age from their write time) or never did.
struct StaticAgePin {
  std::uint64_t extent;
  std::uint64_t reads;
  std::uint64_t unmapped_reads;
  std::uint64_t buffer_hits;
  std::uint64_t nand_writes;
  std::vector<std::uint64_t> sensing_level_reads;
  double read_mean;
  double all_mean;
};

TEST_F(SimulatorProperty, StaticAgesPerExtentMatchPerPageAges) {
  const std::vector<StaticAgePin> pins = {
      {1, 10446, 558, 1922, 6733, {8076, 1084, 898, 0, 2381, 0, 569},
       0.0004423532262109909, 0.00030957278673333303},
      {7, 10446, 558, 1922, 6702, {8118, 978, 818, 0, 2493, 0, 601},
       0.00042942149176718376, 0.00030056712686666681},
      {5000, 10446, 558, 1922, 6766, {7297, 0, 0, 0, 5711, 0, 0},
       0.0004784901868657846, 0.00033473856613333347},
  };
  const auto trace = trace_for(0.7);
  for (const StaticAgePin& pin : pins) {
    SCOPED_TRACE("prefill_extent_pages " + std::to_string(pin.extent));
    auto cfg = config(Scheme::kFlexLevel);
    cfg.age_model = AgeModel::kStaticPerLba;
    cfg.prefill_extent_pages = pin.extent;
    auto sim = test::build_simulator(cfg, *normal_, *reduced_);
    sim->prefill(2500);
    const SsdResults r = sim->run(trace);
    EXPECT_EQ(r.read_response.count(), pin.reads);
    EXPECT_EQ(r.unmapped_reads, pin.unmapped_reads);
    EXPECT_EQ(r.buffer_hits, pin.buffer_hits);
    EXPECT_EQ(r.ftl.nand_writes, pin.nand_writes);
    EXPECT_EQ(r.sensing_level_reads, pin.sensing_level_reads);
    EXPECT_DOUBLE_EQ(r.read_response.mean(), pin.read_mean);
    EXPECT_DOUBLE_EQ(r.all_response.mean(), pin.all_mean);
  }
}

TEST_F(SimulatorProperty, StaticAgeEndsAtTheLastPrefilledPage) {
  // Every static age is at least a week, which needs soft sensing at
  // 6000 P/E; a page written at time 0 and read milliseconds later needs
  // none. Rewrite the last prefilled page and the first page past the
  // prefill, push both out of the write buffer, then read each: the
  // first keeps its static age, the second ages from its write.
  constexpr std::uint64_t kPrefill = 2500;
  for (const std::uint64_t extent : {1ULL, 7ULL, 5000ULL}) {
    SCOPED_TRACE("prefill_extent_pages " + std::to_string(extent));
    auto cfg = config(Scheme::kLdpcInSsd);
    cfg.age_model = AgeModel::kStaticPerLba;
    cfg.prefill_extent_pages = extent;
    cfg.min_prefill_age = kWeek;
    cfg.max_prefill_age = kMonth;
    auto sim = test::build_simulator(cfg, *normal_, *reduced_);
    sim->prefill(kPrefill);
    std::vector<trace::Request> writes;
    for (const std::uint64_t lpn : {kPrefill - 1, kPrefill}) {
      writes.push_back({.arrival = 0,
                        .is_write = true,
                        .lpn = static_cast<std::uint32_t>(lpn)});
    }
    // Twice the buffer's capacity of other pages evicts both to NAND.
    for (std::uint32_t lpn = 0; lpn < 2 * cfg.write_buffer_pages; ++lpn) {
      writes.push_back({.arrival = 1000, .is_write = true, .lpn = lpn});
    }
    sim->run_segment(writes);
    SimTime at = 10'000'000;  // 10 ms, long after the writes drained
    const auto hard_read = [&](std::uint64_t lpn) {
      sim->reset_measurements();
      sim->run_segment({{.arrival = at,
                         .is_write = false,
                         .lpn = static_cast<std::uint32_t>(lpn)}});
      at += 10'000'000;
      const SsdResults& r = sim->results();
      EXPECT_EQ(r.read_response.count(), 1u);
      EXPECT_EQ(r.buffer_hits, 0u);
      EXPECT_EQ(r.unmapped_reads, 0u);
      return r.sensing_level_reads.at(0) == 1;
    };
    EXPECT_FALSE(hard_read(kPrefill - 1)) << "last prefilled page";
    EXPECT_TRUE(hard_read(kPrefill)) << "first page past the prefill";
  }
}

TEST_F(SimulatorProperty, HintNeverChangesSensingRequirements) {
  // The hint is a latency optimization: the *requirement* histogram is a
  // property of the data, not of the retry policy.
  const auto trace = trace_for(0.9);
  auto run_hint = [&](bool hint) {
    auto cfg = config(Scheme::kLdpcInSsd);
    cfg.sensing_hint = hint;
    auto sim = test::build_simulator(cfg, *normal_, *reduced_);
    sim->prefill(4000);
    return sim->run(trace);
  };
  const auto plain = run_hint(false);
  const auto hinted = run_hint(true);
  EXPECT_EQ(plain.sensing_level_reads, hinted.sensing_level_reads);
}

TEST_F(SimulatorProperty, ResetMeasurementsEqualsAccumulatedDelta) {
  // reset_measurements() must only clear the measurement window, never
  // simulator state: a warmup/measure split on one simulator must report
  // exactly what an identical simulator accumulating both passes reports
  // as the difference. FlexLevel with disturb + refresh covers every
  // counter class (response stats, FTL deltas, policy maintenance).
  auto cfg = config(Scheme::kFlexLevel);
  cfg.read_disturb.enabled = true;
  cfg.read_disturb.model.vth_shift_per_read = 1.0e-4;
  cfg.read_disturb.refresh_threshold = 300;
  const auto trace = trace_for(0.9);
  const auto split =
      trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2);
  const std::vector<trace::Request> warmup{trace.begin(), split};
  const std::vector<trace::Request> measured{split, trace.end()};

  auto a = test::build_simulator(cfg, *normal_, *reduced_);
  a->prefill(4000);
  a->run(warmup);
  a->reset_measurements();
  const SsdResults ra = a->run(measured);

  auto b = test::build_simulator(cfg, *normal_, *reduced_);
  b->prefill(4000);
  const SsdResults rb1 = b->run(warmup);
  const SsdResults rb2 = b->run(measured);  // accumulates, no reset

  // Host-visible counts and response sums.
  EXPECT_EQ(ra.all_response.count(),
            rb2.all_response.count() - rb1.all_response.count());
  const double sum_a = ra.read_response.mean() *
                       static_cast<double>(ra.read_response.count());
  const double sum_b =
      rb2.read_response.mean() *
          static_cast<double>(rb2.read_response.count()) -
      rb1.read_response.mean() *
          static_cast<double>(rb1.read_response.count());
  EXPECT_NEAR(sum_a, sum_b, 1e-9 * std::abs(sum_b));

  // Counters: the reset window equals the accumulated difference.
  EXPECT_EQ(ra.buffer_hits, rb2.buffer_hits - rb1.buffer_hits);
  EXPECT_EQ(ra.uncorrectable_reads,
            rb2.uncorrectable_reads - rb1.uncorrectable_reads);
  EXPECT_EQ(ra.migrations_to_reduced,
            rb2.migrations_to_reduced - rb1.migrations_to_reduced);
  EXPECT_EQ(ra.migrations_to_normal,
            rb2.migrations_to_normal - rb1.migrations_to_normal);
  EXPECT_EQ(ra.refresh_blocks, rb2.refresh_blocks - rb1.refresh_blocks);
  EXPECT_EQ(ra.refresh_page_moves,
            rb2.refresh_page_moves - rb1.refresh_page_moves);
  EXPECT_EQ(ra.ftl.nand_writes, rb2.ftl.nand_writes - rb1.ftl.nand_writes);
  EXPECT_EQ(ra.ftl.nand_erases, rb2.ftl.nand_erases - rb1.ftl.nand_erases);
  EXPECT_EQ(ra.ftl.gc_runs, rb2.ftl.gc_runs - rb1.ftl.gc_runs);
  EXPECT_EQ(ra.ftl.refresh_runs,
            rb2.ftl.refresh_runs - rb1.ftl.refresh_runs);
  EXPECT_EQ(ra.ftl.refresh_page_moves,
            rb2.ftl.refresh_page_moves - rb1.ftl.refresh_page_moves);
  ASSERT_EQ(ra.sensing_level_reads.size(), rb2.sensing_level_reads.size());
  for (std::size_t l = 0; l < ra.sensing_level_reads.size(); ++l) {
    EXPECT_EQ(ra.sensing_level_reads[l],
              rb2.sensing_level_reads[l] - rb1.sensing_level_reads[l])
        << l;
  }

  // Gauges are NOT windowed: the pool occupancy reflects the simulator's
  // full history on both sides, identically.
  EXPECT_EQ(ra.pool_pages, rb2.pool_pages);
}

TEST_F(SimulatorProperty, ResetClearsCountersButNotLearnedState) {
  // After reset_measurements() the counters start from zero, but learned
  // state (AccessEval pool and hotness, sensing hints, block wear) must
  // survive — that is the entire point of a warmup pass.
  auto cfg = config(Scheme::kFlexLevel);
  cfg.sensing_hint = true;
  const auto trace = trace_for(0.95);
  const auto split =
      trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2);
  auto sim = test::build_simulator(cfg, *normal_, *reduced_);
  sim->prefill(4000);
  const SsdResults warm = sim->run({trace.begin(), split});
  ASSERT_GT(warm.migrations_to_reduced, 0u);
  ASSERT_GT(warm.pool_pages, 0u);
  sim->reset_measurements();
  // The second half revisits the same Zipf-hot set: the pool carries over
  // (gauge), so the already-migrated pages need no migrating again
  // (counter restarts and stays low).
  const SsdResults steady = sim->run({split, trace.end()});
  EXPECT_GE(steady.pool_pages, warm.pool_pages);
  EXPECT_LT(steady.migrations_to_reduced, warm.migrations_to_reduced);
}

TEST_F(SimulatorProperty, FaultsOnIsDeterministic) {
  // Fault decisions are stateless hashes of (seed, kind, op identity), so a
  // faulty run is exactly as reproducible as a clean one.
  auto cfg = config(Scheme::kFlexLevel);
  cfg.faults.enabled = true;
  cfg.faults.program_fail_rate = 1e-3;
  cfg.faults.erase_fail_rate = 1e-2;
  cfg.faults.grown_defect_rate = 1e-2;
  const auto trace = trace_for(0.5);  // write-heavy: programs and erases
  auto run_once = [&] {
    auto sim = test::build_simulator(cfg, *normal_, *reduced_);
    sim->prefill(4000);
    return sim->run(trace);
  };
  const SsdResults a = run_once();
  const SsdResults b = run_once();
  ASSERT_GT(a.ftl.program_fails, 0u);
  ASSERT_GT(a.ftl.erase_fails, 0u);
  ASSERT_GT(a.ftl.grown_defects, 0u);
  EXPECT_EQ(a.ftl.program_fails, b.ftl.program_fails);
  EXPECT_EQ(a.ftl.erase_fails, b.ftl.erase_fails);
  EXPECT_EQ(a.ftl.grown_defects, b.ftl.grown_defects);
  EXPECT_EQ(a.retired_blocks, b.retired_blocks);
  EXPECT_EQ(a.ftl.nand_writes, b.ftl.nand_writes);
  EXPECT_DOUBLE_EQ(a.all_response.mean(), b.all_response.mean());
}

TEST_F(SimulatorProperty, FaultyDriveStillServicesEveryRequest) {
  // Graceful degradation: with all three fault kinds firing, every host
  // request still completes, and the retirement ledger balances (the gauge
  // also counts blocks retired during prefill, hence GE).
  auto cfg = config(Scheme::kFlexLevel);
  cfg.faults.enabled = true;
  cfg.faults.program_fail_rate = 1e-3;
  cfg.faults.erase_fail_rate = 1e-2;
  cfg.faults.grown_defect_rate = 1e-2;
  const auto trace = trace_for(0.5);
  auto sim = test::build_simulator(cfg, *normal_, *reduced_);
  sim->prefill(4000);
  const SsdResults results = sim->run(trace);
  EXPECT_EQ(results.all_response.count(), trace.size());
  EXPECT_EQ(results.unmapped_reads, 0u);
  EXPECT_GE(results.retired_blocks, results.ftl.program_fails +
                                        results.ftl.erase_fails +
                                        results.ftl.grown_defects);
  // Every retirement shrinks the ReducedCell pool budget (by
  // pages_per_block * f/(1-f) pages, floored at one page).
  EXPECT_LT(results.pool_capacity_pages, cfg.access_eval.pool_capacity_pages);
  EXPECT_GE(results.pool_capacity_pages, 1u);
}

TEST_F(SimulatorProperty, FaultsDisabledAreFree) {
  // enabled=false must short-circuit everything: nonzero configured rates
  // change no observable output relative to a default config.
  const auto trace = trace_for(0.7);
  auto cfg = config(Scheme::kLdpcInSsd);
  auto plain = test::build_simulator(cfg, *normal_, *reduced_);
  cfg.faults.program_fail_rate = 0.5;
  cfg.faults.erase_fail_rate = 0.5;
  cfg.faults.grown_defect_rate = 0.5;  // armed but not enabled
  auto armed = test::build_simulator(cfg, *normal_, *reduced_);
  plain->prefill(4000);
  armed->prefill(4000);
  const SsdResults a = plain->run(trace);
  const SsdResults b = armed->run(trace);
  EXPECT_DOUBLE_EQ(a.all_response.mean(), b.all_response.mean());
  EXPECT_EQ(a.ftl.nand_writes, b.ftl.nand_writes);
  EXPECT_EQ(b.retired_blocks, 0u);
  EXPECT_EQ(b.ftl.program_fails, 0u);
}

TEST_F(SimulatorProperty, BuilderValidatesBeforeConstruction) {
  auto bad = config(Scheme::kLdpcInSsd);
  bad.ftl.over_provisioning = 0.0;
  const auto rejected =
      SsdSimulator::Builder(*normal_, *reduced_).config(bad).Build();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(rejected.status().message().find("over_provisioning"),
            std::string::npos);

  // The refresh-without-disturb footgun is a config error, not a silent
  // no-op.
  auto footgun = config(Scheme::kLdpcInSsd);
  footgun.read_disturb.refresh_threshold = 100;  // enabled stays false
  const auto refused =
      SsdSimulator::Builder(*normal_, *reduced_).config(footgun).Build();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);

  auto bad_rate = config(Scheme::kLdpcInSsd);
  bad_rate.faults.enabled = true;
  bad_rate.faults.program_fail_rate = 1.5;
  EXPECT_FALSE(
      SsdSimulator::Builder(*normal_, *reduced_).config(bad_rate).Build().ok());
}

TEST_F(SimulatorProperty, RunSnapshotMatchesRunSegment) {
  // run() is run_segment() plus a copy of the accumulated results: two
  // simulators built from one config report identically through either.
  const auto trace = trace_for(0.8);
  const auto cfg = config(Scheme::kFlexLevel);

  auto snapshot = test::build_simulator(cfg, *normal_, *reduced_);
  snapshot->prefill(4000);
  const SsdResults expected = snapshot->run(trace);

  auto sim = test::build_simulator(cfg, *normal_, *reduced_);
  sim->prefill(4000);
  sim->run_segment(trace);
  const SsdResults& actual = sim->results();
  EXPECT_DOUBLE_EQ(actual.all_response.mean(), expected.all_response.mean());
  EXPECT_EQ(actual.ftl.nand_writes, expected.ftl.nand_writes);
  EXPECT_EQ(actual.read_response.count(), expected.read_response.count());
}

TEST_F(SimulatorProperty, PercentilesBracketTheMean) {
  const auto trace = trace_for(0.9);
  auto sim = test::build_simulator(config(Scheme::kLdpcInSsd), *normal_,
                                   *reduced_);
  sim->prefill(4000);
  const auto results = sim->run(trace);
  const double p50 = results.read_latency_hist.quantile(0.5);
  const double p99 = results.read_latency_hist.quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_GE(results.read_response.max() + 1e-9, p99);
}

}  // namespace
}  // namespace flex::ssd
