// Ablation of the progressive-sensing retry policy: plain ladder retry
// (start hard every time) vs the per-block sensing hint of LDPC-in-SSD's
// fine-grained scheme [2] (start at the block's last known depth), and how
// much headroom either leaves for FlexLevel's reduced-state pages.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "telemetry/telemetry.h"
#include "trace/workloads.h"

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(
      argc, argv, {{"requests", 0}},
      {flex::bench::kTraceOut, flex::bench::kMetricsOut});
  const std::uint64_t requests = cli.count(0);

  std::printf("=== Progressive-sensing retry policy ablation (P/E 6000) ===\n\n");
  flex::bench::ExperimentHarness harness;

  // Three custom-config runs per workload: ladder retry, retry with page
  // hint, FlexLevel. run_indexed fans them like any other cell sweep.
  const std::vector<flex::trace::Workload> workloads = {
      flex::trace::Workload::kWeb1, flex::trace::Workload::kFin2,
      flex::trace::Workload::kWin2};
  struct Variant {
    flex::trace::Workload workload;
    const char* policy;
    flex::ssd::SsdConfig cfg;
  };
  std::vector<Variant> variants;
  for (const auto workload : workloads) {
    auto cfg = flex::bench::ExperimentHarness::drive_config(
        flex::ssd::Scheme::kLdpcInSsd, 6000);
    cfg.age_model = flex::ssd::AgeModel::kStaticPerLba;
    variants.push_back({workload, "ladder", cfg});
    cfg.sensing_hint = true;
    variants.push_back({workload, "hint", cfg});
    auto flex_cfg = flex::bench::ExperimentHarness::drive_config(
        flex::ssd::Scheme::kFlexLevel, 6000);
    flex_cfg.age_model = flex::ssd::AgeModel::kStaticPerLba;
    variants.push_back({workload, "flexlevel", flex_cfg});
  }
  std::vector<std::string> labels;
  for (const Variant& variant : variants) {
    labels.push_back(flex::trace::workload_name(variant.workload) + "/" +
                     variant.policy);
  }
  const auto results = flex::bench::run_sweep(
      cli, labels, [&](std::size_t i, flex::telemetry::Telemetry* telemetry) {
        return harness.run_with(variants[i].cfg, variants[i].workload,
                                requests, telemetry);
      });

  TablePrinter table({"workload", "ladder retry (us)", "with page hint (us)",
                      "hint saving", "FlexLevel (us)"});
  std::size_t cell = 0;
  for (const auto workload : workloads) {
    const auto& plain = results[cell++];
    const auto& hinted = results[cell++];
    const auto& flexlevel = results[cell++];

    table.add_row(
        {flex::trace::workload_name(workload),
         TablePrinter::num(plain.all_response.mean() * 1e6, 4),
         TablePrinter::num(hinted.all_response.mean() * 1e6, 4),
         TablePrinter::percent(hinted.all_response.mean() /
                                   plain.all_response.mean() -
                               1.0),
         TablePrinter::num(flexlevel.all_response.mean() * 1e6, 4)});
    std::fflush(stdout);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "The block hint removes the failed-decode retries of the ladder but "
      "still pays the soft\nsensing itself; FlexLevel removes the soft "
      "sensing for the data that matters.\n");

  return 0;
}
