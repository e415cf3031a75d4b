// Reproduces paper Table 4: retention-time BER of the baseline MLC cell and
// the three NUNMA reduced-state configurations across P/E cycles and
// storage time. Prints measured (analytic model, cross-checked by the
// Monte-Carlo engine in tests) next to the paper's reported values.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "reliability/ber_model.h"

namespace {

using flex::TablePrinter;
using flex::flexlevel::NunmaScheme;

// Paper Table 4, indexed [scheme][pe][time]; schemes: baseline, NUNMA 1-3.
const std::map<std::string, std::map<int, std::vector<double>>> kPaper = {
    {"baseline",
     {{2000, {0.000638, 0.000715, 0.00103, 0.00184}},
      {3000, {0.00146, 0.00169, 0.00260, 0.00459}},
      {4000, {0.00229, 0.00284, 0.00456, 0.00778}},
      {5000, {0.00359, 0.00457, 0.00699, 0.0120}},
      {6000, {0.00484, 0.00613, 0.00961, 0.0161}}}},
    {"NUNMA 1",
     {{2000, {0.000370, 0.000453, 0.000827, 0.00149}},
      {3000, {0.000677, 0.000860, 0.00143, 0.00249}},
      {4000, {0.00117, 0.00149, 0.00240, 0.00402}},
      {5000, {0.00177, 0.00233, 0.00349, 0.00545}},
      {6000, {0.00218, 0.00288, 0.00446, 0.00672}}}},
    {"NUNMA 2",
     {{2000, {0.000167, 0.000173, 0.000243, 0.000330}},
      {3000, {0.000343, 0.000367, 0.000570, 0.000807}},
      {4000, {0.000443, 0.000633, 0.000820, 0.00150}},
      {5000, {0.000690, 0.000853, 0.00123, 0.00227}},
      {6000, {0.00100, 0.00131, 0.00192, 0.00324}}}},
    {"NUNMA 3",
     {{2000, {0.000120, 0.000133, 0.000167, 0.000181}},
      {3000, {0.000237, 0.000257, 0.000293, 0.000390}},
      {4000, {0.000327, 0.000343, 0.000457, 0.000633}},
      {5000, {0.000460, 0.000540, 0.000713, 0.00109}},
      {6000, {0.000623, 0.000627, 0.000973, 0.00151}}}},
};

}  // namespace

int main(int argc, char** argv) {
  // No arguments: a usage error for anything but the shared --jobs.
  const flex::bench::Cli cli(argc, argv);
  std::printf("=== Table 4: retention-time BER (measured vs paper) ===\n\n");

  flex::Rng rng(0x7AB4);
  const flex::reliability::BerEngine::Config mc{
      .wordlines = 32, .bitlines = 128, .rounds = 1, .coupling = {}};
  const flex::reliability::RetentionModel retention;
  const flex::reliability::GrayMapper gray;
  const flex::flexlevel::ReduceCodeMapper reduce;

  struct Scheme {
    std::string name;
    flex::reliability::BerModel model;
  };
  std::vector<Scheme> schemes;
  schemes.push_back({"baseline",
                     {flex::nand::LevelConfig::baseline_mlc(), gray,
                      retention, mc, rng}});
  for (const auto s : flex::flexlevel::kNunmaSchemes) {
    schemes.push_back({flex::flexlevel::nunma_name(s),
                       {flex::flexlevel::nunma_config(s), reduce, retention,
                        mc, rng}});
  }

  const std::vector<std::pair<std::string, double>> ages = {
      {"1 day", flex::kDay},
      {"2 days", 2 * flex::kDay},
      {"1 week", flex::kWeek},
      {"1 month", flex::kMonth}};

  TablePrinter table({"P/E", "scheme", "1 day", "2 days", "1 week", "1 month",
                      "paper(1m)"});
  for (const int pe : {2000, 3000, 4000, 5000, 6000}) {
    for (const auto& scheme : schemes) {
      std::vector<std::string> row = {std::to_string(pe), scheme.name};
      for (const auto& [label, age] : ages) {
        row.push_back(TablePrinter::num(scheme.model.retention_ber(pe, age)));
      }
      row.push_back(
          TablePrinter::num(kPaper.at(scheme.name).at(pe).back()));
      table.add_row(std::move(row));
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  // Headline reductions (paper: ~2x / ~5x / ~9x on average).
  std::printf("Average retention-BER reduction vs baseline:\n");
  for (std::size_t s = 1; s < schemes.size(); ++s) {
    double ratio_sum = 0.0;
    int count = 0;
    for (const int pe : {2000, 3000, 4000, 5000, 6000}) {
      for (const auto& [label, age] : ages) {
        const double base = schemes[0].model.retention_ber(pe, age);
        const double ours = schemes[s].model.retention_ber(pe, age);
        if (ours > 0.0) {
          ratio_sum += base / ours;
          ++count;
        }
      }
    }
    const double paper_target = s == 1 ? 2.0 : (s == 2 ? 5.0 : 9.0);
    std::printf("  %-10s measured %.1fx   (paper: ~%.0fx)\n",
                schemes[s].name.c_str(), ratio_sum / count, paper_target);
  }
  return 0;
}
