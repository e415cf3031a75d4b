// Fault-injection / graceful-degradation ablation (no paper figure — the
// DAC'15 evaluation assumes a defect-free drive; the fault model follows
// the JEDEC-style grown-defect lifecycle, see faults/fault_injector.h).
//
// Web-1 (99% reads, Zipf 0.9) is the paper's headline workload, so it is
// the right place to ask what happens when the drive underneath it starts
// failing: program-status failures burn frontier pages and retire their
// blocks, erase failures and grown defects remove blocks outright, and
// every retirement shrinks the usable over-provisioning. The sweep raises
// the per-op defect rate across four decades and reports how far host
// latency, write amplification, and the retirement ledger drift from the
// fault-free reference. A second table runs FlexLevel at the same rates:
// retirements there also shrink the ReducedCell pool, so the graceful-
// degradation path (pool eviction + migration back to normal cells) shows
// up as a falling pool gauge rather than a latency cliff.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "telemetry/telemetry.h"
#include "trace/workloads.h"

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(
      argc, argv, {{"requests", 100'000}},
      {flex::bench::kTraceOut, flex::bench::kMetricsOut});
  const std::uint64_t requests = cli.count(0);

  std::printf(
      "=== Fault-injection ablation (web-1, P/E 6000, %llu requests) ===\n\n",
      static_cast<unsigned long long>(requests));
  flex::bench::ExperimentHarness harness;

  struct Variant {
    std::string label;
    flex::ssd::Scheme scheme = flex::ssd::Scheme::kLdpcInSsd;
    double rate = 0.0;  ///< program = erase = grown-defect rate; 0 = off
    /// Accelerated read-disturb with no refresh: drives the read-hot tail
    /// past the deepest ladder step so the recovery re-read has
    /// uncorrectable reads to adjudicate.
    bool disturb = false;
    double rescue = 0.9;  ///< recovery re-read success probability
  };
  // One knob on purpose: program, erase, and grown-defect rates move
  // together so the sweep reads as "how broken is the flash", not as a
  // 3-way factorial. The top rate is bounded by the drive itself:
  // preconditioning alone programs the full logical space, so a per-program
  // fail rate much past 1e-3 retires more blocks than the 27% over-
  // provisioning holds and the drive (correctly) dies of over-commitment.
  std::vector<Variant> variants = {
      {.label = "fault-free (reference)"},
      {.label = "defect rate 1e-5", .rate = 1e-5},
      {.label = "defect rate 1e-4", .rate = 1e-4},
      {.label = "defect rate 3e-4", .rate = 3e-4},
      {.label = "defect rate 1e-3", .rate = 1e-3},
      {.label = "disturb, faults off", .disturb = true},
      {.label = "disturb, rescue 0.9",
       .rate = 1e-4,
       .disturb = true,
       .rescue = 0.9},
      {.label = "disturb, rescue 0.5",
       .rate = 1e-4,
       .disturb = true,
       .rescue = 0.5},
      {.label = "FlexLevel fault-free",
       .scheme = flex::ssd::Scheme::kFlexLevel},
      {.label = "FlexLevel @ 1e-4",
       .scheme = flex::ssd::Scheme::kFlexLevel,
       .rate = 1e-4},
      {.label = "FlexLevel @ 1e-3",
       .scheme = flex::ssd::Scheme::kFlexLevel,
       .rate = 1e-3},
  };

  std::vector<std::string> labels;
  for (const Variant& variant : variants) {
    labels.push_back("web-1/" + variant.label);
  }
  const auto all = flex::bench::run_sweep(
      cli, labels, [&](std::size_t i, flex::telemetry::Telemetry* telemetry) {
        flex::ssd::SsdConfig cfg =
            flex::bench::ExperimentHarness::drive_config(variants[i].scheme,
                                                         6000);
        if (variants[i].rate > 0.0) {
          cfg.faults.enabled = true;
          cfg.faults.program_fail_rate = variants[i].rate;
          cfg.faults.erase_fail_rate = variants[i].rate;
          cfg.faults.grown_defect_rate = variants[i].rate;
          cfg.faults.read_retry_rescue = variants[i].rescue;
        }
        if (variants[i].disturb) {
          cfg.read_disturb.enabled = true;
          cfg.read_disturb.model.vth_shift_per_read = 1.8e-4;
        }
        return harness.run_with(cfg, flex::trace::Workload::kWeb1, requests,
                                telemetry);
      });
  const auto& reference = all.front();

  const auto waf = [](const flex::ssd::SsdResults& r) {
    return r.ftl.host_writes == 0
               ? 0.0
               : static_cast<double>(r.ftl.nand_writes) /
                     static_cast<double>(r.ftl.host_writes);
  };

  TablePrinter table({"variant", "norm mean read", "norm p99 read", "WAF",
                      "retired blocks"});
  const double ref_mean = reference.read_response.mean();
  const double ref_p99 = reference.read_latency_hist.quantile(0.99);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto& r = all[i];
    table.add_row(
        {variants[i].label,
         TablePrinter::num(r.read_response.mean() / ref_mean, 3),
         TablePrinter::num(r.read_latency_hist.quantile(0.99) / ref_p99, 3),
         TablePrinter::num(waf(r), 3), std::to_string(r.retired_blocks)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Block retirements spend over-provisioning, so GC runs hotter (WAF) "
      "long before host latency moves: web-1's read tail is insulated until "
      "the free-block deficit backs up into the write path. Retired counts "
      "include prefill/preconditioning casualties — on this read-heavy "
      "workload that is where nearly all programs (and hence program "
      "fails) happen.\n\n");

  TablePrinter recovery_table({"variant", "uncorrectable", "recovered",
                               "data loss", "norm p99 read"});
  const double disturb_p99 = all[5].read_latency_hist.quantile(0.99);
  for (std::size_t i = 5; i < 8; ++i) {
    const auto& r = all[i];
    recovery_table.add_row(
        {variants[i].label, std::to_string(r.uncorrectable_reads),
         std::to_string(r.recovered_reads),
         std::to_string(r.data_loss_reads),
         TablePrinter::num(r.read_latency_hist.quantile(0.99) / disturb_p99,
                           3)});
  }
  std::printf("%s\n", recovery_table.to_string().c_str());
  std::printf(
      "Recovery ladder: unchecked disturb pushes read-hot pages past the "
      "deepest ladder step. With faults off those reads are merely counted; "
      "with the injector on, each one pays a deepest-sensing re-read and is "
      "then adjudicated — rescued or declared data loss at the configured "
      "rescue probability.\n\n");

  TablePrinter pool_table({"variant", "norm mean read", "pool capacity",
                           "pool pages", "to-normal migrations", "retired"});
  const double flex_ref = all[8].read_response.mean();
  for (std::size_t i = 8; i < variants.size(); ++i) {
    const auto& r = all[i];
    pool_table.add_row(
        {variants[i].label,
         TablePrinter::num(r.read_response.mean() / flex_ref, 3),
         std::to_string(r.pool_capacity_pages),
         std::to_string(r.pool_pages),
         std::to_string(r.migrations_to_normal),
         std::to_string(r.retired_blocks)});
  }
  std::printf("%s\n", pool_table.to_string().c_str());
  std::printf(
      "FlexLevel degrades gracefully: each retired block shrinks the "
      "ReducedCell pool budget (reduced pages cost 1/(1-f) physical pages, "
      "so a retired block forfeits pages_per_block * f/(1-f) of budget), "
      "evicting the coldest pool members back to normal cells instead of "
      "overcommitting a smaller drive. Latency gives back a little of the "
      "fast-pool win; nothing is lost.\n");

  return 0;
}
