// Power-loss crash-consistency sweep (no paper figure — the DAC'15
// evaluation never pulls the plug; the recovery design follows the OOB
// mount convention of production FTLs, see ftl/page_mapping.h §Mount).
//
// Web-1 is the paper's headline workload, so it is the right traffic to
// crash under. Each crash point is one full workload → power-loss →
// mount → verify cycle: the injector hashes (seed, event ordinal, salt),
// so sweeping the salt walks the power loss across distinct event-queue
// boundaries while the workload itself stays byte-identical. A salt whose
// hash never fires inside the trace still crashes at end of trace (cord
// pull), so every point exercises recovery. After mount, the harness
// checks the three durability invariants (no acknowledged-durable write
// lost, no double-mapped LPN, retired-block ledger intact) plus the FTL's
// structural self-checks; any violation fails the bench (nonzero exit).
//
//   ablation_crash [requests] [crash_points] [--jobs N]
//                  [--report-out PATH]   # per-point JSONL recovery report
//
// Output is deterministic and independent of --jobs.
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "ftl/page_mapping.h"
#include "ssd/crash_harness.h"
#include "trace/workloads.h"

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(argc, argv,
                             {{"requests", 6000}, {"crash points", 32}},
                             {"--report-out"});
  const std::uint64_t requests = cli.count(0);
  const std::uint64_t crash_points = cli.count(1);

  std::printf(
      "=== Crash-consistency sweep (web-1, P/E 6000, %llu requests, "
      "%llu crash points per variant) ===\n\n",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(crash_points));
  flex::bench::ExperimentHarness harness;

  struct Variant {
    std::string label;
    flex::ssd::Scheme scheme;
    flex::ssd::DurabilityPolicy policy;
  };
  const std::vector<Variant> variants = {
      {"LDPC-in-SSD, flush-barrier", flex::ssd::Scheme::kLdpcInSsd,
       flex::ssd::DurabilityPolicy::kFlushBarrier},
      {"LDPC-in-SSD, FUA", flex::ssd::Scheme::kLdpcInSsd,
       flex::ssd::DurabilityPolicy::kFua},
      {"FlexLevel, flush-barrier", flex::ssd::Scheme::kFlexLevel,
       flex::ssd::DurabilityPolicy::kFlushBarrier},
  };

  const auto config_for = [&](const Variant& variant) {
    flex::ssd::SsdConfig cfg =
        flex::bench::ExperimentHarness::drive_config(variant.scheme, 6000);
    // Program/erase faults ride along so block retirements happen and
    // invariant 3 (retirement survives the crash) has something to check.
    cfg.faults.enabled = true;
    cfg.faults.program_fail_rate = 1e-4;
    cfg.faults.erase_fail_rate = 1e-4;
    cfg.faults.crash_enabled = true;
    // ~12k-18k events per trace at the default request count: this rate
    // lands most salts mid-trace; the rest cord-pull at end of trace.
    cfg.faults.crash_rate = 1.0 / 8192.0;
    cfg.durability.policy = variant.policy;
    // Small enough that barriers actually fire inside web-1's ~1% write
    // share, so the sweep exercises mid-trace durability promotion.
    cfg.durability.flush_barrier_interval = 64;
    return cfg;
  };

  // Same trace methodology as every system bench (bench_common.h):
  // workload defaults, arrival rate scaled with the drive, fixed seed.
  flex::trace::WorkloadParams params =
      flex::trace::workload_params(flex::trace::Workload::kWeb1);
  if (requests > 0) params.requests = requests;
  params.iops *= 0.45;
  const auto trace = flex::trace::generate(params, /*seed=*/2015);
  // 80% standing population, as in ExperimentHarness::run_with.
  const std::uint64_t prefill_pages =
      flex::ftl::PageMappingFtl(
          flex::bench::ExperimentHarness::drive_config(
              flex::ssd::Scheme::kLdpcInSsd, 6000)
              .ftl)
          .logical_pages() *
      4 / 5;

  // Fan the (variant, salt) grid across jobs: every cell owns its
  // simulator, results land in index order, so output never depends on
  // the job count.
  const auto verdicts = flex::bench::run_indexed(
      variants.size() * crash_points,
      [&](std::size_t i) {
        return flex::ssd::run_crash_point(
            config_for(variants[i / crash_points]), trace, i % crash_points,
            prefill_pages, harness.normal_model(), harness.reduced_model());
      },
      cli.jobs());

  std::uint64_t violations = 0;
  TablePrinter table({"variant", "mid-trace", "acked", "durable",
                      "dirty lost", "recovered", "stale", "mount ms",
                      "violations"});
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::uint64_t mid_trace = 0, acked = 0, durable = 0, dirty = 0;
    std::uint64_t recovered = 0, stale = 0, bad = 0;
    flex::Duration mount_time = 0;
    for (std::uint64_t salt = 0; salt < crash_points; ++salt) {
      const auto& verdict = verdicts[v * crash_points + salt];
      mid_trace += verdict.crashed_mid_trace ? 1 : 0;
      acked += verdict.writes_acked;
      durable += verdict.writes_durable;
      dirty += verdict.dirty_lost;
      recovered += verdict.report.mappings_recovered;
      stale += verdict.stale_records;
      mount_time += verdict.mount_time;
      if (!verdict.ok()) {
        ++bad;
        std::fprintf(stderr,
                     "VIOLATION %s salt=%llu: lost_acked=%llu "
                     "double_mapped=%zu ledger_ok=%d consistent=%d %s\n",
                     variants[v].label.c_str(),
                     static_cast<unsigned long long>(salt),
                     static_cast<unsigned long long>(
                         verdict.lost_acknowledged),
                     verdict.double_mapped.size(),
                     verdict.retired_ledger_ok ? 1 : 0,
                     verdict.consistent ? 1 : 0,
                     verdict.consistency_message.c_str());
      }
    }
    violations += bad;
    const double points = static_cast<double>(crash_points);
    table.add_row({variants[v].label,
                   std::to_string(mid_trace) + "/" +
                       std::to_string(crash_points),
                   std::to_string(acked), std::to_string(durable),
                   std::to_string(dirty),
                   std::to_string(recovered / crash_points),
                   std::to_string(stale),
                   TablePrinter::num(flex::to_seconds(mount_time) * 1e3 /
                                         points,
                                     5),
                   std::to_string(bad)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Each crash point: workload -> power loss -> OOB mount -> verify. "
      "\"acked\" vs \"durable\" is the durability policy's promise window; "
      "\"dirty lost\" pages were acknowledged under a barrier policy but "
      "never durable, so losing them is within contract — the invariants "
      "only protect what was programmed. \"stale\" counts superseded OOB "
      "records that last-epoch-wins correctly discarded; mount time is the "
      "simulated OOB scan (summary read per block + spare read per "
      "programmed page).\n\n");
  std::printf("invariant violations: %llu\n",
              static_cast<unsigned long long>(violations));

  if (const std::string& path = cli.path("--report-out"); !path.empty()) {
    flex::bench::write_file(path, [&](std::ostream& out) {
      for (std::size_t v = 0; v < variants.size(); ++v) {
        for (std::uint64_t salt = 0; salt < crash_points; ++salt) {
          const auto& verdict = verdicts[v * crash_points + salt];
          flex::bench::JsonWriter(out, /*rows=*/false)
              .begin_object()
              .field("variant", variants[v].label)
              .field("salt", salt)
              .field("mid_trace", verdict.crashed_mid_trace)
              .field("crash_ordinal", verdict.crash_ordinal)
              .field("acked", verdict.writes_acked)
              .field("durable", verdict.writes_durable)
              .field("dirty_lost", verdict.dirty_lost)
              .field("lost_acknowledged", verdict.lost_acknowledged)
              .field("double_mapped", verdict.double_mapped.size())
              .field("retired_ledger_ok", verdict.retired_ledger_ok)
              .field("consistent", verdict.consistent)
              .field("pages_scanned", verdict.report.pages_scanned)
              .field("mappings_recovered", verdict.report.mappings_recovered)
              .field("stale_records", verdict.stale_records)
              .field("mount_time_ns", verdict.mount_time)
              .end();
        }
      }
    });
  }
  return violations == 0 ? 0 : 1;
}
