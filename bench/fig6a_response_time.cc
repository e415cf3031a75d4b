// Reproduces paper Fig. 6(a): normalized overall average response time of
// the four storage systems over the seven workloads at P/E 6000.
// Values are normalized per workload to the baseline system, as in the
// paper's figure.
//
// The primary table uses the paper's evaluation assumption (per-read BER
// from P/E and a static per-LBA storage time); a second table repeats the
// experiment with physically tracked per-page ages, where rewritten data
// is fresh — a more detailed model that shrinks FlexLevel's margin on
// write-heavy workloads (discussed in EXPERIMENTS.md).
//
// Pass `--jobs N` (or set FLEX_BENCH_JOBS) to fan the 28 independent
// (workload, scheme) cells across N threads; results are identical to a
// serial run. `--trace-out t.json` records per-request latency-breakdown
// spans of the primary table's measured window (Chrome trace-event
// format); `--metrics-out m.jsonl` dumps its metrics snapshots. Both are
// observation-only: stdout is byte-identical with or without them. A
// machine-readable summary of both tables always lands in BENCH_fig6a.json
// (`--bench-out` overrides the path).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "nand/geometry.h"

namespace {

std::vector<flex::bench::CellSpec> make_cells(
    flex::ssd::AgeModel age_model, std::uint64_t requests) {
  const std::vector<flex::ssd::Scheme> schemes = {
      flex::ssd::Scheme::kBaseline, flex::ssd::Scheme::kLdpcInSsd,
      flex::ssd::Scheme::kLevelAdjustOnly, flex::ssd::Scheme::kFlexLevel};
  std::vector<flex::bench::CellSpec> cells;
  for (const auto workload : flex::trace::kAllWorkloads) {
    for (const auto scheme : schemes) {
      cells.push_back({.workload = workload,
                       .scheme = scheme,
                       .pe_cycles = 6000,
                       .requests_override = requests,
                       .age_model = age_model});
    }
  }
  return cells;
}

void print_table(const std::vector<flex::ssd::SsdResults>& results) {
  using flex::TablePrinter;
  TablePrinter table({"workload", "baseline", "LDPC-in-SSD",
                      "LevelAdjust-only", "LevelAdjust+AccessEval"});
  double flex_vs_base = 0.0;
  double flex_vs_ldpc = 0.0;
  double lvladj_vs_ldpc = 0.0;
  int workloads = 0;
  std::size_t cell = 0;

  for (const auto workload : flex::trace::kAllWorkloads) {
    std::vector<double> means;
    for (std::size_t s = 0; s < 4; ++s) {
      means.push_back(results[cell++].all_response.mean());
    }
    const double base = means[0];
    table.add_row({flex::trace::workload_name(workload), "1.00",
                   TablePrinter::num(means[1] / base, 3),
                   TablePrinter::num(means[2] / base, 3),
                   TablePrinter::num(means[3] / base, 3)});
    flex_vs_base += 1.0 - means[3] / means[0];
    flex_vs_ldpc += 1.0 - means[3] / means[1];
    lvladj_vs_ldpc += means[2] / means[1] - 1.0;
    ++workloads;
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Averages across workloads (paper targets in parentheses):\n");
  std::printf("  LevelAdjust+AccessEval vs baseline:    %s reduction "
              "(paper: -66%%)\n",
              TablePrinter::percent(-flex_vs_base / workloads).c_str());
  std::printf("  LevelAdjust+AccessEval vs LDPC-in-SSD: %s reduction "
              "(paper: -33%%)\n",
              TablePrinter::percent(-flex_vs_ldpc / workloads).c_str());
  std::printf("  LevelAdjust-only vs LDPC-in-SSD:       %s overhead "
              "(paper: +27%%)\n\n",
              TablePrinter::percent(lvladj_vs_ldpc / workloads).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Optional request-count override for quick runs.
  const flex::bench::Cli cli(
      argc, argv, {{"requests", 0}},
      {flex::bench::kTraceOut, flex::bench::kMetricsOut,
       flex::bench::kBenchOut});
  const std::uint64_t requests = cli.count(0);

  {
    const flex::nand::NandSpec spec;
    std::printf("=== Table 6: MLC NAND specification in effect ===\n");
    std::printf("page %u KB, block %u KB, program %.0f us, read %.0f us, "
                "erase %.0f ms\n\n",
                spec.page_size_bytes / 1024,
                spec.pages_per_block * spec.page_size_bytes / 1024,
                flex::to_micros(spec.program_latency),
                flex::to_micros(spec.read_latency),
                flex::to_millis(spec.erase_latency));
  }

  flex::bench::ExperimentHarness harness;

  std::printf("=== Fig. 6(a): normalized overall response time, P/E 6000 "
              "(paper's static storage-time axis, 1 day .. 1 month) ===\n\n");
  // Telemetry (if requested) covers the primary, paper-setting table.
  auto cells = make_cells(flex::ssd::AgeModel::kStaticPerLba, requests);
  auto results = flex::bench::run_cell_sweep(cli, harness, cells);
  print_table(results);

  std::printf("=== Extension: same experiment with physically tracked "
              "per-page ages (rewritten data is fresh) ===\n\n");
  const auto physical_cells =
      make_cells(flex::ssd::AgeModel::kPhysical, requests);
  const auto physical =
      flex::bench::run_cells(harness, physical_cells, cli.jobs());
  print_table(physical);

  // BENCH_fig6a.json records both tables; age_model tells them apart.
  cells.insert(cells.end(), physical_cells.begin(), physical_cells.end());
  results.insert(results.end(), physical.begin(), physical.end());
  flex::bench::write_bench_json(cli, "fig6a", requests, cells, results);
  return 0;
}
