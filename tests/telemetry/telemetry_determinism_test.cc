// Determinism of telemetry under the thread-pool harness: the metrics
// snapshots of fig6a's 28 (workload, scheme) cells at 20k requests must be
// byte-identical whether the sweep runs with --jobs 1 or --jobs 8. Each
// cell owns its simulator and Telemetry context, and the harness folds
// results in index order, so the artifact files cannot depend on the job
// count — the contract the CI metrics upload relies on.
#include "bench_common.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "trace/workloads.h"

namespace flex::bench {
namespace {

std::vector<CellSpec> fig6a_cells(std::uint64_t requests) {
  const std::vector<ssd::Scheme> schemes = {
      ssd::Scheme::kBaseline, ssd::Scheme::kLdpcInSsd,
      ssd::Scheme::kLevelAdjustOnly, ssd::Scheme::kFlexLevel};
  std::vector<CellSpec> cells;
  for (const auto workload : trace::kAllWorkloads) {
    for (const auto scheme : schemes) {
      cells.push_back({.workload = workload,
                       .scheme = scheme,
                       .pe_cycles = 6000,
                       .requests_override = requests});
    }
  }
  return cells;
}

TEST(TelemetryDeterminismTest, Fig6aSnapshotsIdenticalAcrossJobs1And8) {
  ExperimentHarness harness;
  const auto cells = fig6a_cells(20'000);
  // Each cell gets its own metrics context, as run_sweep() gives it.
  const auto run = [&](int jobs) {
    return run_indexed(
        cells.size(),
        [&](std::size_t i) {
          telemetry::Telemetry telemetry;
          telemetry.pid = static_cast<std::int32_t>(i + 1);
          return harness.run(cells[i], &telemetry);
        },
        jobs);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  telemetry::MetricsSnapshot merged_serial;
  telemetry::MetricsSnapshot merged_parallel;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cell_label(cells[i]));
    ASSERT_FALSE(serial[i].metrics.empty());
    EXPECT_EQ(serial[i].metrics, parallel[i].metrics);
    // Byte-identical serialization, not merely equal values.
    EXPECT_EQ(serial[i].metrics.to_jsonl(), parallel[i].metrics.to_jsonl());
    merged_serial.merge(serial[i].metrics);
    merged_parallel.merge(parallel[i].metrics);
  }
  // The "_merged" line set written by --metrics-out is the index-order
  // fold of the per-cell snapshots — also job-count independent.
  EXPECT_EQ(merged_serial.to_jsonl(), merged_parallel.to_jsonl());
}

}  // namespace
}  // namespace flex::bench
