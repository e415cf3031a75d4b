// Reproduces paper Fig. 7: endurance impact of LevelAdjust+AccessEval at
// P/E 6000 relative to LDPC-in-SSD —
//   (a) write-count increase  (paper: +15% average, largest on web-1/2
//       because their absolute write counts are tiny),
//   (b) erase-count increase  (paper: +13% average),
//   (c) lifetime              (paper: -6% average, softened by the scheme
//       only activating past P/E ~4000).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "ssd/lifetime.h"

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(
      argc, argv, {{"requests", 0}},
      {flex::bench::kTraceOut, flex::bench::kMetricsOut});
  const std::uint64_t requests = cli.count(0);

  std::printf("=== Fig. 7: endurance impact at P/E 6000 ===\n\n");
  flex::bench::ExperimentHarness harness;

  std::vector<flex::bench::CellSpec> cells;
  for (const auto workload : flex::trace::kAllWorkloads) {
    for (const auto scheme : {flex::ssd::Scheme::kLdpcInSsd,
                              flex::ssd::Scheme::kFlexLevel}) {
      cells.push_back({.workload = workload,
                       .scheme = scheme,
                       .pe_cycles = 6000,
                       .requests_override = requests});
    }
  }
  const auto results = flex::bench::run_cell_sweep(cli, harness, cells);

  TablePrinter table({"workload", "write increase", "erase increase",
                      "lifetime"});
  double write_sum = 0.0;
  double erase_sum = 0.0;
  double life_sum = 0.0;
  int count = 0;
  std::size_t cell = 0;

  for (const auto workload : flex::trace::kAllWorkloads) {
    const auto& ldpc = results[cell++];
    const auto& flexlevel = results[cell++];

    const double write_ratio =
        static_cast<double>(flexlevel.ftl.nand_writes) /
        static_cast<double>(std::max<std::uint64_t>(ldpc.ftl.nand_writes, 1));
    const double erase_ratio =
        static_cast<double>(flexlevel.ftl.nand_erases) /
        static_cast<double>(std::max<std::uint64_t>(ldpc.ftl.nand_erases, 1));
    const double lifetime =
        flex::ssd::lifetime_factor(std::max(erase_ratio, 1.0));

    table.add_row({flex::trace::workload_name(workload),
                   TablePrinter::percent(write_ratio - 1.0),
                   TablePrinter::percent(erase_ratio - 1.0),
                   TablePrinter::percent(lifetime - 1.0)});
    write_sum += write_ratio - 1.0;
    erase_sum += erase_ratio - 1.0;
    life_sum += lifetime - 1.0;
    ++count;
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Averages (paper targets):\n");
  std::printf("  write count: %s  (paper: +15%%)\n",
              TablePrinter::percent(write_sum / count).c_str());
  std::printf("  erase count: %s  (paper: +13%%)\n",
              TablePrinter::percent(erase_sum / count).c_str());
  std::printf("  lifetime:    %s  (paper: -6%%)\n",
              TablePrinter::percent(life_sum / count).c_str());
  std::printf("\n(LDPC-in-SSD itself adds no writes or erases — the deltas "
              "come from AccessEval's pool migrations.)\n");
  return 0;
}
