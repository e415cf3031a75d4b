// Ablation of §4.2's design choice: *non-uniform* noise margins versus the
// basic (uniform-margin) LevelAdjust, and the per-level error distribution
// that motivates NUNMA (paper: ~78% of retention errors at level 2, ~15% at
// level 1 under basic LevelAdjust).
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "reliability/ber_engine.h"
#include "reliability/ber_model.h"

int main(int argc, char** argv) {
  // No arguments: a usage error for anything but the shared --jobs.
  const flex::bench::Cli cli(argc, argv);
  using flex::TablePrinter;
  flex::Rng rng(0xAB1A);
  const flex::flexlevel::ReduceCodeMapper reduce;
  const flex::reliability::RetentionModel retention;

  // Per-level retention error distribution of basic LevelAdjust — the
  // observation that justifies NUNMA.
  {
    flex::reliability::BerEngine engine(
        {.wordlines = 64, .bitlines = 512, .rounds = 8,
         .coupling = {.gamma_x = 0.0, .gamma_y = 0.0, .gamma_xy = 0.0}});
    const auto report = engine.measure(
        flex::flexlevel::nunma_config(flex::flexlevel::NunmaScheme::kBasic),
        reduce, &retention, 6000, flex::kMonth, rng);
    const double total = static_cast<double>(std::accumulate(
        report.cell_errors_by_level.begin(),
        report.cell_errors_by_level.end(), std::uint64_t{0}));
    std::printf("=== Retention-error distribution, basic LevelAdjust ===\n");
    std::printf("(paper observation: ~78%% at level 2, ~15%% at level 1)\n\n");
    for (std::size_t l = 0; l < report.cell_errors_by_level.size(); ++l) {
      std::printf("  level %zu: %5.1f%%\n", l,
                  100.0 * report.cell_errors_by_level[l] / total);
    }
    std::printf("\n");
  }

  // Margin-allocation ablation: uniform vs the three non-uniform configs.
  std::printf("=== Margin allocation ablation (retention BER, P/E 6000) ===\n\n");
  const flex::reliability::BerEngine::Config mc{
      .wordlines = 32, .bitlines = 128, .rounds = 1, .coupling = {}};
  TablePrinter table({"scheme", "verify1", "verify2", "1 week", "1 month",
                      "C2C BER"});
  for (const auto scheme :
       {flex::flexlevel::NunmaScheme::kBasic,
        flex::flexlevel::NunmaScheme::kNunma1,
        flex::flexlevel::NunmaScheme::kNunma2,
        flex::flexlevel::NunmaScheme::kNunma3}) {
    const auto cfg = flex::flexlevel::nunma_config(scheme);
    const flex::reliability::BerModel model(cfg, reduce, retention, mc, rng);
    table.add_row({cfg.name(), TablePrinter::num(cfg.verify(1)),
                   TablePrinter::num(cfg.verify(2)),
                   TablePrinter::num(model.retention_ber(6000, flex::kWeek)),
                   TablePrinter::num(model.retention_ber(6000, flex::kMonth)),
                   TablePrinter::num(model.c2c_ber())});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("Takeaway: pushing verify2 up buys retention margin where the "
              "errors are; the C2C cost shows up at the level-1/level-2 "
              "boundary (NUNMA 3 column).\n");
  return 0;
}
