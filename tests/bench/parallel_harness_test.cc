// Determinism regression for the bench harness: same seed + same trace
// must give byte-identical SsdResults across two runs, and identical
// results whether the cells run serially or fanned across the thread pool
// (--jobs). This is the contract that makes parallel sweeps trustworthy —
// each cell owns its simulator and shares only the const BerModels.
#include "bench_common.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "support/build_simulator.h"
#include "trace/workloads.h"

namespace flex::bench {
namespace {

void expect_identical_stats(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

/// Byte-identical, not merely close: every statistic, counter, histogram
/// bin and chip counter must match exactly.
void expect_identical(const ssd::SsdResults& a, const ssd::SsdResults& b) {
  expect_identical_stats(a.read_response, b.read_response);
  expect_identical_stats(a.write_response, b.write_response);
  expect_identical_stats(a.all_response, b.all_response);
  ASSERT_EQ(a.read_latency_hist.bins(), b.read_latency_hist.bins());
  EXPECT_EQ(a.read_latency_hist.total(), b.read_latency_hist.total());
  for (std::size_t i = 0; i < a.read_latency_hist.bins(); ++i) {
    EXPECT_EQ(a.read_latency_hist.bin_count(i),
              b.read_latency_hist.bin_count(i));
  }
  EXPECT_EQ(a.ftl.host_writes, b.ftl.host_writes);
  EXPECT_EQ(a.ftl.nand_writes, b.ftl.nand_writes);
  EXPECT_EQ(a.ftl.nand_erases, b.ftl.nand_erases);
  EXPECT_EQ(a.ftl.gc_runs, b.ftl.gc_runs);
  EXPECT_EQ(a.ftl.gc_page_moves, b.ftl.gc_page_moves);
  EXPECT_EQ(a.ftl.mode_migrations, b.ftl.mode_migrations);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.unmapped_reads, b.unmapped_reads);
  EXPECT_EQ(a.uncorrectable_reads, b.uncorrectable_reads);
  EXPECT_EQ(a.migrations_to_reduced, b.migrations_to_reduced);
  EXPECT_EQ(a.migrations_to_normal, b.migrations_to_normal);
  EXPECT_EQ(a.pool_pages, b.pool_pages);
  EXPECT_EQ(a.sensing_level_reads, b.sensing_level_reads);
  EXPECT_EQ(a.chip_stats, b.chip_stats);
}

// Small, cheap BerModels shared by the direct-simulator tests (the same
// shape the simulator suites use).
class ParallelHarnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(4321);
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

  static ssd::SsdConfig small_config(ssd::Scheme scheme) {
    ssd::SsdConfig cfg;
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

  /// One independent small-drive simulation per index, scheme varying
  /// with the index — the per-cell work the bench harness fans out.
  static ssd::SsdResults run_cell(std::size_t index,
                                  telemetry::Telemetry* telemetry = nullptr) {
    static const ssd::Scheme schemes[] = {
        ssd::Scheme::kBaseline, ssd::Scheme::kLdpcInSsd,
        ssd::Scheme::kLevelAdjustOnly, ssd::Scheme::kFlexLevel};
    trace::WorkloadParams params;
    params.name = "par";
    params.read_fraction = 0.85;
    params.zipf_theta = 1.0;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.iops = 1500;
    params.requests = 6'000;
    const auto trace = trace::generate(params, /*seed=*/99);
    auto sim = test::build_simulator(small_config(schemes[index % 4]), *normal_,
                                     *reduced_);
    sim->prefill(4000);
    if (telemetry) sim->attach_telemetry(telemetry);
    return sim->run(trace);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* ParallelHarnessTest::normal_ = nullptr;
reliability::BerModel* ParallelHarnessTest::reduced_ = nullptr;

TEST_F(ParallelHarnessTest, SameSeedSameTraceIsByteIdentical) {
  const auto a = run_cell(3);  // FlexLevel: the most stateful scheme
  const auto b = run_cell(3);
  expect_identical(a, b);
}

TEST_F(ParallelHarnessTest, SerialAndJobs8AreIdentical) {
  const auto cell = [](std::size_t i) { return run_cell(i); };
  const auto serial = run_indexed(8, cell, 1);
  const auto parallel = run_indexed(8, cell, 8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A Cli for `--jobs <jobs>`, plus the two exporters when `dir` is given.
Cli sweep_cli(int jobs, const std::string& dir = "") {
  std::vector<std::string> args = {"sweep", "--jobs", std::to_string(jobs)};
  if (!dir.empty()) {
    args.insert(args.end(), {"--trace-out", dir + "trace.json",
                             "--metrics-out", dir + "metrics.jsonl"});
  }
  std::vector<const char*> argv;
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  return Cli(static_cast<int>(argv.size()), argv.data(), {},
             {kTraceOut, kMetricsOut});
}

TEST_F(ParallelHarnessTest, SweepRunnerFilesIdenticalAcrossJobs1And8) {
  const std::vector<std::string> labels = {
      "par/baseline", "par/ldpc", "par/level-adjust", "par/flexlevel",
      "par/baseline-2", "par/ldpc-2", "par/level-adjust-2", "par/flexlevel-2"};
  const auto body = [](std::size_t i, telemetry::Telemetry* telemetry) {
    return run_cell(i, telemetry);
  };
  // Exporters off: no telemetry, and the runner matches a plain fan-out.
  const auto plain = run_sweep(sweep_cli(8), labels,
                               [&](std::size_t i, telemetry::Telemetry* t) {
                                 EXPECT_EQ(t, nullptr);
                                 return body(i, t);
                               });
  ASSERT_EQ(plain.size(), labels.size());
  std::string trace[2];
  std::string metrics[2];
  for (const int jobs : {1, 8}) {
    SCOPED_TRACE(jobs);
    const std::string dir =
        ::testing::TempDir() + "sweep_jobs" + std::to_string(jobs) + "_";
    const auto traced = run_sweep(sweep_cli(jobs, dir), labels, body);
    // Exporters on: telemetry only observes.
    for (std::size_t i = 0; i < labels.size(); ++i) {
      SCOPED_TRACE(i);
      expect_identical(plain[i], traced[i]);
      EXPECT_FALSE(traced[i].spans.empty());
      EXPECT_FALSE(traced[i].metrics.empty());
    }
    trace[jobs == 8] = read_file(dir + "trace.json");
    metrics[jobs == 8] = read_file(dir + "metrics.jsonl");
  }
  ASSERT_FALSE(trace[0].empty());
  ASSERT_FALSE(metrics[0].empty());
  EXPECT_EQ(trace[0], trace[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  // Run i is process i + 1 named labels[i], and tags its metrics lines.
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_NE(trace[0].find("\"pid\":" + std::to_string(i + 1) +
                            ",\"name\":\"process_name\",\"args\":{"
                            "\"name\":\"" + labels[i] + "\"}"),
              std::string::npos)
        << labels[i];
    EXPECT_NE(metrics[0].find("\"cell\":\"" + labels[i] + "\""),
              std::string::npos)
        << labels[i];
  }
  EXPECT_NE(metrics[0].find("\"cell\":\"_merged\""), std::string::npos);
}

TEST(ExperimentHarnessParallel, CellsSerialVsJobs8Identical) {
  // The full bench path: scaled drive, prefill, preconditioning, warmup —
  // through run_cells exactly as fig6a/fig6b invoke it.
  ExperimentHarness harness;
  std::vector<CellSpec> cells;
  for (const auto scheme :
       {ssd::Scheme::kBaseline, ssd::Scheme::kLdpcInSsd,
        ssd::Scheme::kLevelAdjustOnly, ssd::Scheme::kFlexLevel}) {
    cells.push_back({.workload = trace::Workload::kWeb1,
                     .scheme = scheme,
                     .pe_cycles = 6000,
                     .requests_override = 3'000});
    cells.push_back({.workload = trace::Workload::kFin2,
                     .scheme = scheme,
                     .pe_cycles = 5000,
                     .requests_override = 3'000});
  }
  const auto serial = run_cells(harness, cells, 1);
  const auto parallel = run_cells(harness, cells, 8);
  ASSERT_EQ(serial.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
}

}  // namespace
}  // namespace flex::bench
