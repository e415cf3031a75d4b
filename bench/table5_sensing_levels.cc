// Reproduces paper Table 5: extra LDPC soft-sensing levels the baseline MLC
// cell needs across P/E cycles and retention time, for UBER <= 1e-15 with
// the rate-8/9 4 KB LDPC code. Also prints the equivalent correction
// strength each ladder step implies under the paper's Eq. 1.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "nand/level_config.h"
#include "reliability/ber_model.h"
#include "reliability/sensing_solver.h"
#include "reliability/uber.h"

int main(int argc, char** argv) {
  // No arguments: a usage error for anything but the shared --jobs.
  const flex::bench::Cli cli(argc, argv);
  using flex::TablePrinter;

  // Paper Table 5 for comparison, rows P/E 3000..6000,
  // columns {0 day, 1 day, 2 days, 1 week, 1 month}.
  const int paper[4][5] = {{0, 0, 0, 0, 1},
                           {0, 0, 0, 1, 4},
                           {0, 0, 1, 2, 4},
                           {0, 1, 2, 4, 6}};

  flex::Rng rng(0x7AB5);
  const flex::reliability::GrayMapper gray;
  const flex::reliability::BerModel baseline(
      flex::nand::LevelConfig::baseline_mlc(), gray,
      flex::reliability::RetentionModel{},
      {.wordlines = 64, .bitlines = 512, .rounds = 8, .coupling = {}}, rng);
  const flex::reliability::SensingRequirement ladder;

  std::printf("=== Table 5: required extra LDPC soft-sensing levels ===\n");
  std::printf("(cell: baseline MLC; target UBER 1e-15; rate-8/9 LDPC on 4 KB"
              " blocks)\n\n");

  const std::vector<std::pair<std::string, double>> ages = {
      {"0 day", 0.0},
      {"1 day", flex::kDay},
      {"2 days", 2 * flex::kDay},
      {"1 week", flex::kWeek},
      {"1 month", flex::kMonth}};

  TablePrinter table({"P/E", "0 day", "1 day", "2 days", "1 week", "1 month",
                      "paper row"});
  const int pes[] = {3000, 4000, 5000, 6000};
  int matches = 0;
  int cells = 0;
  for (int r = 0; r < 4; ++r) {
    std::vector<std::string> row = {std::to_string(pes[r])};
    std::string paper_row;
    for (int c = 0; c < 5; ++c) {
      const double ber = baseline.total_ber(pes[r], ages[c].second);
      const int levels = ladder.required_levels(ber);
      row.push_back(std::to_string(levels));
      paper_row += std::to_string(paper[r][c]) + (c < 4 ? " " : "");
      if (levels == paper[r][c]) ++matches;
      ++cells;
    }
    row.push_back(paper_row);
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Cells matching the paper exactly: %d / %d\n\n", matches, cells);

  // The BER cap of every ladder step implies a correction strength under
  // Eq. 1 (n = 32768, m = 36864 bits, UBER target 1e-15).
  std::printf("Sensing ladder and implied Eq. 1 correction strength:\n");
  TablePrinter ladder_table(
      {"extra levels", "max raw BER", "implied t (bits)", "uber at cap"});
  for (const auto& step : ladder.steps()) {
    const int t = flex::reliability::required_correction(
        1e-15, 32768, 36864, step.max_raw_ber);
    ladder_table.add_row(
        {std::to_string(step.extra_levels),
         TablePrinter::num(step.max_raw_ber),
         std::to_string(t),
         TablePrinter::num(
             flex::reliability::uber(t, 32768, 36864, step.max_raw_ber), 2)});
  }
  std::printf("%s", ladder_table.to_string().c_str());
  return 0;
}
