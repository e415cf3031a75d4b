// Reproduces paper Fig. 6(b): average response time of
// LevelAdjust+AccessEval normalized to LDPC-in-SSD as the pre-aged P/E
// count grows (paper: the reduction widens from 21% at P/E 4000 to 33% at
// P/E 6000 — aging raises the soft-sensing burden FlexLevel removes).
//
// The 42 (P/E, workload, scheme) cells are independent; `--jobs N` (or
// FLEX_BENCH_JOBS) fans them across a thread pool with identical results.
// `--trace-out`/`--metrics-out` export the measured window's spans and
// metrics (observation-only; stdout unchanged); a machine-readable
// summary always lands in BENCH_fig6b.json (`--bench-out` overrides).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(
      argc, argv, {{"requests", 0}},
      {flex::bench::kTraceOut, flex::bench::kMetricsOut,
       flex::bench::kBenchOut});
  const std::uint64_t requests = cli.count(0);

  std::printf("=== Fig. 6(b): response time vs LDPC-in-SSD across P/E ===\n\n");
  flex::bench::ExperimentHarness harness;

  const struct {
    int pe;
    const char* paper;
  } points[] = {{4000, "-21%"}, {5000, "(interpolates)"}, {6000, "-33%"}};

  // One flat cell list over (P/E point, workload) x {LDPC-in-SSD, FlexLevel}
  // so the pool sees every independent simulation at once.
  std::vector<flex::bench::CellSpec> cells;
  for (const auto& point : points) {
    for (const auto workload : flex::trace::kAllWorkloads) {
      for (const auto scheme : {flex::ssd::Scheme::kLdpcInSsd,
                                flex::ssd::Scheme::kFlexLevel}) {
        cells.push_back({.workload = workload,
                         .scheme = scheme,
                         .pe_cycles = point.pe,
                         .requests_override = requests});
      }
    }
  }
  const auto results = flex::bench::run_cell_sweep(cli, harness, cells);

  TablePrinter table(
      {"P/E", "workload-avg normalized response", "reduction", "paper"});
  std::size_t cell = 0;
  for (const auto& point : points) {
    double ratio_sum = 0.0;
    int count = 0;
    for ([[maybe_unused]] const auto workload : flex::trace::kAllWorkloads) {
      const auto& ldpc = results[cell++];
      const auto& flexlevel = results[cell++];
      ratio_sum += flexlevel.all_response.mean() / ldpc.all_response.mean();
      ++count;
    }
    const double ratio = ratio_sum / count;
    table.add_row({std::to_string(point.pe), TablePrinter::num(ratio, 3),
                   TablePrinter::percent(ratio - 1.0), point.paper});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Paper shape: the FlexLevel advantage must widen as P/E "
              "grows.\n");

  flex::bench::write_bench_json(cli, "fig6b", requests, cells, results);
  return 0;
}
