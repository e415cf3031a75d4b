// Adaptive read-threshold / MI-sensing ablation (reliability::ReadChannel;
// no paper figure — the DAC'15 evaluation keeps static references; the
// threshold model follows the adaptive-read-threshold line of work and the
// quantizer follows MI-optimized LDPC quantization, see PAPERS.md).
//
// The stress point is a worn drive late in a retention cycle: high P/E,
// month-scale prefill ages and accelerated read disturb push many reads
// past the hard-decision cap, so the static ladder pays soft-sensing
// retries on a large fraction of reads. Adaptive per-block thresholds
// re-center the references against the tracked V_th drift (disturb via
// residual read counts, retention via the mean-loss estimate) and the
// MI-optimized quantizer raises every soft step's BER cap; both shrink
// required sensing depth, which shows up directly as fewer retries and a
// lower read tail. The measured-decode variant additionally replaces the
// linear decode-latency table with real min-sum iteration counts.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "telemetry/telemetry.h"
#include "trace/workloads.h"

namespace {

/// Soft-sensing retries implied by the per-required-level read counts: a
/// read whose data needs ladder step k walked (and failed) the k steps
/// below it first.
std::uint64_t soft_retries(const std::vector<std::uint64_t>& by_level) {
  // Table-5 ladder {0,1,2,4,6}: required extra levels -> failed attempts.
  const std::size_t ladder_index[] = {0, 1, 2, 0, 3, 0, 4};
  std::uint64_t retries = 0;
  for (std::size_t levels = 1; levels < by_level.size(); ++levels) {
    if (levels < std::size(ladder_index)) {
      retries += ladder_index[levels] * by_level[levels];
    }
  }
  return retries;
}

std::uint64_t soft_reads(const std::vector<std::uint64_t>& by_level) {
  std::uint64_t reads = 0;
  for (std::size_t levels = 1; levels < by_level.size(); ++levels) {
    reads += by_level[levels];
  }
  return reads;
}

}  // namespace

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(
      argc, argv, {{"requests", 100'000}},
      {flex::bench::kTraceOut, flex::bench::kMetricsOut,
       flex::bench::kBenchOut});
  const std::uint64_t requests = cli.count(0);

  std::printf(
      "=== Read-threshold / MI-sensing ablation (web-1, P/E 9000, %llu "
      "requests) ===\n\n",
      static_cast<unsigned long long>(requests));
  flex::bench::ExperimentHarness harness;

  // Accelerated disturb stress (ablation_disturb's setting) so web-1's
  // read-hot blocks cross ladder steps within bench-scale read counts.
  flex::reliability::ReadDisturbModel::Params stress;
  stress.vth_shift_per_read = 1.8e-4;

  struct Variant {
    std::string label;
    bool adaptive = false;
    bool mi = false;
    bool measured = false;
  };
  const std::vector<Variant> variants = {
      {.label = "static references (baseline)"},
      {.label = "adaptive thresholds", .adaptive = true},
      {.label = "MI-optimized sensing", .mi = true},
      {.label = "adaptive + MI", .adaptive = true, .mi = true},
      {.label = "adaptive + MI + measured decode",
       .adaptive = true,
       .mi = true,
       .measured = true},
  };

  std::vector<std::string> labels;
  for (const Variant& variant : variants) {
    labels.push_back("thresholds/" + variant.label);
  }
  const auto all = flex::bench::run_sweep(
      cli, labels, [&](std::size_t i, flex::telemetry::Telemetry* telemetry) {
        flex::ssd::SsdConfig cfg = flex::bench::ExperimentHarness::
            drive_config(flex::ssd::Scheme::kLdpcInSsd, 9000);
        // Late in the retention cycle: data is up to a quarter old, so the
        // retention term dominates and re-centering has drift to reclaim.
        cfg.max_prefill_age = 3 * flex::kMonth;
        cfg.read_disturb.enabled = true;
        cfg.read_disturb.model = stress;
        const Variant& v = variants[i];
        cfg.channel.enabled = v.adaptive || v.mi || v.measured;
        cfg.channel.adaptive_thresholds = v.adaptive;
        cfg.channel.quantizer =
            v.mi ? flex::reliability::ChannelQuantizer::kMiOptimized
                 : flex::reliability::ChannelQuantizer::kUniform;
        cfg.channel.decode_latency =
            v.measured ? flex::reliability::DecodeLatencyMode::kMeasured
                       : flex::reliability::DecodeLatencyMode::kTable;
        return harness.run_with(cfg, flex::trace::Workload::kWeb1, requests,
                                telemetry);
      });
  const auto& reference = all.front();

  TablePrinter table({"variant", "norm mean read", "norm p99 read",
                      "soft reads", "soft retries", "uncorrectable"});
  const double ref_mean = reference.read_response.mean();
  const double ref_p99 = reference.read_latency_hist.quantile(0.99);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = all[i];
    table.add_row(
        {variants[i].label,
         TablePrinter::num(r.read_response.mean() / ref_mean, 3),
         TablePrinter::num(r.read_latency_hist.quantile(0.99) / ref_p99, 3),
         std::to_string(soft_reads(r.sensing_level_reads)),
         std::to_string(soft_retries(r.sensing_level_reads)),
         std::to_string(r.uncorrectable_reads)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Re-centered references stop compensated drift from eating sensing "
      "margin, and MI-placed strobes raise each ladder step's BER cap — "
      "both push reads back down the ladder, trading soft-sensing retries "
      "for hard reads and pulling in the read tail. Measured decode "
      "re-prices each attempt from real min-sum iteration counts, leaving "
      "depth (and retry counts) unchanged.\n");

  flex::bench::write_bench_json(cli, "thresholds", requests, labels, all);
  return 0;
}
