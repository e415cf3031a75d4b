// Ablation of §5's capacity knob: the ReducedCell pool size. The paper
// fixes it at 64 GB of a 256 GB drive (25% of capacity, bounding the
// worst-case capacity loss at 25% x 25% ~ 6%); this sweep shows the
// response-time / write-overhead / capacity trade-off as the pool shrinks.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "trace/workloads.h"

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(
      argc, argv, {{"requests", 0}},
      {flex::bench::kTraceOut, flex::bench::kMetricsOut});
  const std::uint64_t requests = cli.count(0);

  std::printf("=== ReducedCell pool size ablation (web-1, P/E 6000) ===\n\n");
  flex::bench::ExperimentHarness harness;

  const double raw_pages = static_cast<double>(
      flex::bench::ExperimentHarness::drive_config(
          flex::ssd::Scheme::kFlexLevel, 6000)
          .ftl.spec.total_pages());

  // Cell 0 is the reference (LDPC-in-SSD: no pool at all); the rest sweep
  // the pool share. Scheme/workload alone doesn't distinguish the pool
  // sizes, so runs are labelled by pool share instead of cell_label.
  const std::vector<double> shares = {0.005, 0.02, 0.08, 0.25};
  std::vector<flex::bench::CellSpec> cells;
  std::vector<std::string> labels;
  cells.push_back({.workload = flex::trace::Workload::kWeb1,
                   .scheme = flex::ssd::Scheme::kLdpcInSsd,
                   .pe_cycles = 6000,
                   .requests_override = requests});
  labels.push_back("web-1/ldpc-in-ssd");
  for (const double share : shares) {
    cells.push_back({.workload = flex::trace::Workload::kWeb1,
                     .scheme = flex::ssd::Scheme::kFlexLevel,
                     .pe_cycles = 6000,
                     .requests_override = requests,
                     .pool_override_pages =
                         static_cast<std::uint64_t>(raw_pages * share)});
    labels.push_back("web-1/flexlevel/pool" +
                     TablePrinter::num(share * 100.0, 2) + "%");
  }
  const auto all = flex::bench::run_sweep(
      cli, labels, [&](std::size_t i, flex::telemetry::Telemetry* telemetry) {
        return harness.run(cells[i], telemetry);
      });
  const auto& reference = all.front();

  TablePrinter table({"pool (% of capacity)", "norm response", "pool used",
                      "migrations", "capacity loss (worst case)"});
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const double share = shares[i];
    const auto& results = all[i + 1];
    // Worst-case capacity loss: pool share x the 25% density loss of
    // reduced pages.
    table.add_row(
        {TablePrinter::num(share * 100.0, 2),
         TablePrinter::num(results.all_response.mean() /
                               reference.all_response.mean(),
                           3),
         std::to_string(results.pool_pages) + "/" +
             std::to_string(cells[i + 1].pool_override_pages),
         std::to_string(results.migrations_to_reduced),
         TablePrinter::percent(share * 0.25)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("The paper's 25%% pool bounds capacity loss at ~6%% while "
              "capturing the hot soft-read set; small pools thrash or leave "
              "hot data un-migrated, trading speed for capacity.\n");
  return 0;
}
