#include "ssd/simulator.h"

#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "support/build_simulator.h"
#include "trace/workloads.h"

namespace flex::ssd {
namespace {

// Shared BerModels (expensive to construct) for all simulator tests.
class SimulatorTest : public ::testing::Test {
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

  static std::vector<trace::Request> small_trace(double read_fraction,
                                                 std::uint64_t seed) {
    trace::WorkloadParams params;
    params.name = "test";
    params.read_fraction = read_fraction;
    params.zipf_theta = 1.0;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.iops = 1500;
    params.requests = 20'000;
    return trace::generate(params, seed);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* SimulatorTest::normal_ = nullptr;
reliability::BerModel* SimulatorTest::reduced_ = nullptr;

TEST_F(SimulatorTest, RunsEverySchemeToCompletion) {
  for (const Scheme scheme : {Scheme::kBaseline, Scheme::kLdpcInSsd,
                              Scheme::kLevelAdjustOnly, Scheme::kFlexLevel}) {
    auto sim = test::build_simulator(small_config(scheme), *normal_, *reduced_);
    sim->prefill(4000);
    const SsdResults results = sim->run(small_trace(0.7, 42));
    EXPECT_EQ(results.all_response.count(), 20'000u) << scheme_name(scheme);
    EXPECT_GT(results.read_response.mean(), 0.0) << scheme_name(scheme);
  }
}

TEST_F(SimulatorTest, SegmentKernelHoldsInFlightWorkNotTheTrace) {
  // run_segment streams its arrivals: the kernel holds the in-flight
  // completions plus one arrival, so its lanes stay at the scale of the
  // FIFO lane's 4,096-entry reclaim floor (at most 4x it, with vector
  // growth) plus the in-flight work, however long the segment is.
  // Scheduling the whole segment up front needed one lane entry per
  // request.
  auto sim = test::build_simulator(small_config(Scheme::kLdpcInSsd),
                                   *normal_, *reduced_);
  sim->prefill(4000);
  trace::WorkloadParams params;
  params.name = "long";
  params.footprint_pages = 4000;
  params.mean_request_pages = 1.2;
  params.max_request_pages = 4;
  params.iops = 1500;
  params.requests = 100'000;
  sim->run_segment(trace::generate(params, 7));
  EXPECT_EQ(sim->results().all_response.count(), 100'000u);
  EXPECT_LT(sim->events().lane_capacity(), 4 * 4096u);
}

TEST_F(SimulatorTest, SegmentStartingBeforeTheClockIsClamped) {
  // A second segment that starts behind the first one's last event: its
  // early arrivals are clamped to the clock (the kernel refuses to step
  // back), and every request of both segments is served once.
  auto sim = test::build_simulator(small_config(Scheme::kFlexLevel),
                                   *normal_, *reduced_);
  sim->prefill(4000);
  std::vector<trace::Request> requests = small_trace(0.7, 42);
  requests.resize(2000);
  sim->run_segment(requests);
  const SimTime first_end = sim->events().now();
  ASSERT_GT(first_end, requests.front().arrival);
  sim->run_segment(requests);
  EXPECT_EQ(sim->results().all_response.count(), 4000u);
  EXPECT_GE(sim->events().now(), first_end);
}

using SimulatorDeathTest = SimulatorTest;

TEST_F(SimulatorDeathTest, UnsortedSegmentIsRefused) {
  // Arrivals stream in trace order, so a segment must be sorted by
  // arrival; one that is not is a caller bug, refused before any work.
  auto sim = test::build_simulator(small_config(Scheme::kLdpcInSsd),
                                   *normal_, *reduced_);
  trace::Request late;
  late.arrival = 30;
  trace::Request early;
  early.arrival = 10;
  const std::vector<trace::Request> unsorted = {late, early};
  EXPECT_DEATH(sim->run_segment(unsorted), "precondition");
}

TEST_F(SimulatorTest, BaselineSlowerThanProgressive) {
  auto base = test::build_simulator(small_config(Scheme::kBaseline), *normal_,
                                    *reduced_);
  base->prefill(4000);
  const auto base_results = base->run(small_trace(0.9, 7));

  auto prog = test::build_simulator(small_config(Scheme::kLdpcInSsd), *normal_,
                                    *reduced_);
  prog->prefill(4000);
  const auto prog_results = prog->run(small_trace(0.9, 7));

  EXPECT_GT(base_results.read_response.mean(),
            prog_results.read_response.mean());
}

TEST_F(SimulatorTest, FlexLevelMigratesHotSoftData) {
  auto sim = test::build_simulator(small_config(Scheme::kFlexLevel), *normal_,
                                   *reduced_);
  sim->prefill(4000);
  const auto results = sim->run(small_trace(0.9, 11));
  EXPECT_GT(results.migrations_to_reduced, 0u);
  EXPECT_GT(sim->ftl().reduced_blocks(), 0u);
}

TEST_F(SimulatorTest, FlexLevelFasterReadsThanLdpcInSsd) {
  // At P/E 6000 with old data, hot reads need soft sensing; FlexLevel moves
  // them to reduced pages and strips that cost. Measure steady state after
  // a warmup pass over the first half of the trace.
  const auto trace = small_trace(0.98, 13);
  const auto split =
      trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2);
  auto steady = [&](Scheme scheme) {
    auto sim = test::build_simulator(small_config(scheme), *normal_, *reduced_);
    sim->prefill(4000);
    sim->run({trace.begin(), split});
    sim->reset_measurements();
    return sim->run({split, trace.end()});
  };
  const auto flex_results = steady(Scheme::kFlexLevel);
  const auto prog_results = steady(Scheme::kLdpcInSsd);
  EXPECT_LT(flex_results.read_response.mean(),
            prog_results.read_response.mean());
}

TEST_F(SimulatorTest, FlexLevelWritesMoreThanLdpcInSsd) {
  // Fig. 7(a)/(b): migrations add NAND writes and erases.
  auto flex = test::build_simulator(small_config(Scheme::kFlexLevel), *normal_,
                                    *reduced_);
  flex->prefill(4000);
  const auto flex_results = flex->run(small_trace(0.7, 17));

  auto prog = test::build_simulator(small_config(Scheme::kLdpcInSsd), *normal_,
                                    *reduced_);
  prog->prefill(4000);
  const auto prog_results = prog->run(small_trace(0.7, 17));

  EXPECT_GT(flex_results.ftl.nand_writes, prog_results.ftl.nand_writes);
}

TEST_F(SimulatorTest, WriteBufferAbsorbsRewrites) {
  auto sim = test::build_simulator(small_config(Scheme::kLdpcInSsd), *normal_,
                                   *reduced_);
  sim->prefill(4000);
  const auto results = sim->run(small_trace(0.2, 19));  // write-heavy
  EXPECT_GT(results.buffer_hits, 0u);
  // Host page writes that reached NAND are fewer than host writes issued
  // (buffer coalescing).
  EXPECT_LT(results.ftl.host_writes, results.all_response.count() * 4);
}

TEST_F(SimulatorTest, SensingLevelDistributionTracked) {
  auto sim = test::build_simulator(small_config(Scheme::kLdpcInSsd), *normal_,
                                   *reduced_);
  sim->prefill(4000);
  const auto results = sim->run(small_trace(0.95, 23));
  std::uint64_t nand_reads = 0;
  for (const auto count : results.sensing_level_reads) nand_reads += count;
  EXPECT_GT(nand_reads, 0u);
  // Week-old P/E-6000 data needs soft sensing (Table 5: 2 levels).
  EXPECT_GT(results.sensing_level_reads[2] + results.sensing_level_reads[4] +
                results.sensing_level_reads[6],
            0u);
}

TEST_F(SimulatorTest, ReducedPagesReadHardEvenWhenOld) {
  // LevelAdjust-only drive: every page reduced (NUNMA 3) -> all NAND reads
  // at zero extra levels despite age and wear.
  auto sim = test::build_simulator(small_config(Scheme::kLevelAdjustOnly),
                                   *normal_, *reduced_);
  sim->prefill(4000);
  const auto results = sim->run(small_trace(0.95, 29));
  std::uint64_t soft_reads = 0;
  for (std::size_t l = 1; l < results.sensing_level_reads.size(); ++l) {
    soft_reads += results.sensing_level_reads[l];
  }
  EXPECT_EQ(soft_reads, 0u);
  EXPECT_GT(results.sensing_level_reads[0], 0u);
}

TEST_F(SimulatorTest, NoUncorrectableReadsAtPaperOperatingPoint) {
  auto sim = test::build_simulator(small_config(Scheme::kLdpcInSsd), *normal_,
                                   *reduced_);
  sim->prefill(4000);
  const auto results = sim->run(small_trace(0.8, 31));
  EXPECT_EQ(results.uncorrectable_reads, 0u);
}

}  // namespace
}  // namespace flex::ssd
