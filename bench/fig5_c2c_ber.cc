// Reproduces paper Fig. 5: BER of reduced-state cells after cell-to-cell
// interference, for the three NUNMA configurations (Table 3) against the
// baseline MLC cell. Monte-Carlo over the even/odd CellArray with the
// paper's coupling ratios (0.07 / 0.09 / 0.005).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "reliability/ber_engine.h"

int main(int argc, char** argv) {
  // No arguments: a usage error for anything but the shared --jobs.
  const flex::bench::Cli cli(argc, argv);
  using flex::TablePrinter;

  std::printf("=== Table 3: NUNMA configurations under test ===\n\n");
  TablePrinter config_table(
      {"scheme", "Vpp", "Vverify1", "Vverify2", "Vread-ref1", "Vread-ref2"});
  for (const auto scheme : flex::flexlevel::kNunmaSchemes) {
    const auto cfg = flex::flexlevel::nunma_config(scheme);
    config_table.add_row({cfg.name(), TablePrinter::num(cfg.vpp()),
                          TablePrinter::num(cfg.verify(1)),
                          TablePrinter::num(cfg.verify(2)),
                          TablePrinter::num(cfg.read_ref(0)),
                          TablePrinter::num(cfg.read_ref(1))});
  }
  std::printf("%s\n", config_table.to_string().c_str());

  std::printf("=== Fig. 5: C2C-interference BER ===\n\n");
  flex::Rng rng(0xF150);
  // Large population: reduced-state C2C errors are rare events.
  flex::reliability::BerEngine engine(
      {.wordlines = 128, .bitlines = 512, .rounds = 16, .coupling = {}});
  const flex::reliability::GrayMapper gray;
  const flex::flexlevel::ReduceCodeMapper reduce;

  TablePrinter table({"scheme", "C2C BER", "95% margin", "vs baseline"});
  std::vector<double> bers;
  {
    const auto report =
        engine.measure(flex::nand::LevelConfig::baseline_mlc(), gray,
                       /*retention=*/nullptr, 0, 0.0, rng);
    bers.push_back(report.c2c.rate());
    table.add_row({"baseline", TablePrinter::num(report.c2c.rate()),
                   TablePrinter::num(report.c2c.margin95(), 2), "1.0x"});
  }
  for (const auto scheme : flex::flexlevel::kNunmaSchemes) {
    const auto report =
        engine.measure(flex::flexlevel::nunma_config(scheme), reduce,
                       /*retention=*/nullptr, 0, 0.0, rng);
    bers.push_back(report.c2c.rate());
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1fx lower",
                  bers.front() / std::max(report.c2c.rate(), 1e-9));
    table.add_row({flex::flexlevel::nunma_name(scheme),
                   TablePrinter::num(report.c2c.rate()),
                   TablePrinter::num(report.c2c.margin95(), 2), ratio});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf(
      "Paper shape: NUNMA 1 up to 6x below baseline; NUNMA 3 ~50%% and "
      "~20%% above NUNMA 1 and NUNMA 2 (higher verify voltages eat C2C "
      "margin).\n");
  std::printf("Measured: NUNMA3/NUNMA1 = %.2f, NUNMA3/NUNMA2 = %.2f\n",
              bers[3] / std::max(bers[1], 1e-12),
              bers[3] / std::max(bers[2], 1e-12));
  return 0;
}
