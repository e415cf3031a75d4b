// End-to-end data-integrity ablation (no paper figure — the DAC'15
// evaluation assumes the medium returns what was written; this bench
// exercises the SsdConfig::integrity payload-seal layer against the three
// silent-data-corruption fault kinds, on a bare drive and on a RAID-10
// array with replica failover + read-repair).
//
// Two sections:
//  * single drive — corruption-rate sweep with integrity off (clean
//    reference) and on: every host read re-verifies the page's CRC64 seal
//    against its carried payload, transient post-ECC flips are cured by
//    the recovery re-read, and persistent medium faults (misdirected
//    writes, torn relocations) are flagged as integrity mismatches. The
//    headline verdict is *zero undetected corruptions*: no read that
//    delivered wrong bytes passed verification.
//  * RAID-10 (4 drives, 2 copies) — the same sweep where a persistent
//    mismatch additionally fails over to the mirror copy and writes the
//    clean data back (read-repair). A bounded scrub loop (each page read
//    twice per pass, so round-robin steering hits both replicas) then
//    drives the array to convergence: every scrubbed page verifies on
//    *both* mirrors, i.e. the copies are byte-equal again.
//
// Stdout is fully deterministic and byte-identical across --jobs values;
// host wall-clock goes to BENCH_integrity.json only, along with the
// machine-checkable verdict block CI asserts on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "host/array.h"
#include "trace/trace.h"

namespace {

using flex::bench::ExperimentHarness;
using flex::host::ArrayConfig;
using flex::host::ArraySimulator;

struct Variant {
  std::string label;
  bool array = false;      ///< false: bare drive; true: 4-drive RAID-10
  bool integrity = false;  ///< SsdConfig::integrity.enabled
  /// Common rate for all three corruption kinds (silent bit flips,
  /// misdirected writes, torn relocations); 0 = fault-free.
  double rate = 0.0;
};

/// Everything one row contributes to the table and the JSON verdict.
struct Row {
  std::uint64_t reads = 0;
  double read_mean_s = 0.0;
  double read_p99_s = 0.0;
  std::uint64_t verified = 0;
  std::uint64_t mismatch = 0;
  std::uint64_t undetected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t unrecovered = 0;
  std::uint64_t misdirected = 0;
  std::uint64_t torn = 0;
  std::uint64_t repair_writes = 0;
  std::uint64_t failovers = 0;
  std::uint64_t read_repairs = 0;
  std::uint32_t scrub_passes = 0;
  std::uint64_t corrupt_after_scrub = 0;
  bool mirrors_equal = true;
  double wall_seconds = 0.0;
};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void arm(flex::ssd::SsdConfig& cfg, const Variant& v) {
  cfg.integrity.enabled = v.integrity;
  if (v.rate > 0.0) {
    cfg.faults.enabled = true;
    cfg.faults.silent_corruption_rate = v.rate;
    cfg.faults.misdirected_write_rate = v.rate;
    cfg.faults.torn_relocation_rate = v.rate;
  }
}

Row run_single(const ExperimentHarness& harness, const Variant& v,
               std::uint64_t requests) {
  const auto start = std::chrono::steady_clock::now();
  flex::ssd::SsdConfig cfg = ExperimentHarness::drive_config(
      flex::ssd::Scheme::kLdpcInSsd, 6000);
  arm(cfg, v);
  const flex::ssd::SsdResults r =
      harness.run_with(cfg, flex::trace::Workload::kWeb1, requests);
  Row row;
  row.reads = r.read_response.count();
  row.read_mean_s = r.read_response.mean();
  row.read_p99_s = r.read_latency_hist.quantile(0.99);
  row.verified = r.integrity_verified_reads;
  row.mismatch = r.integrity_mismatch_reads;
  row.undetected = r.integrity_undetected_reads;
  row.recovered = r.integrity_recovered_reads;
  row.unrecovered = r.integrity_unrecovered_reads;
  row.misdirected = r.ftl.misdirected_writes;
  row.torn = r.ftl.torn_relocations;
  row.repair_writes = r.ftl.repair_writes;
  row.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return row;
}

/// Pages of [0, host_pages) with a replica that fails the medium audit.
/// A page passing on every replica means the mirrors are byte-equal in
/// host terms: each copy verifies as its drive's current acknowledged
/// generation, and the generations agree because both mirrors consumed
/// the identical host write stream. (Raw drive-local version *counters*
/// legitimately differ — preconditioning overwrites are drawn from each
/// drive's own RNG stream — so they are not compared here.)
std::uint64_t audit_array(const ArraySimulator& array,
                          std::uint64_t host_pages) {
  const flex::host::VolumeMapper& volume = array.volume();
  std::uint64_t corrupt = 0;
  for (std::uint64_t hpn = 0; hpn < host_pages; ++hpn) {
    const auto loc = volume.locate(hpn);
    for (std::uint32_t r = 0; r < volume.replicas(); ++r) {
      if (!array.drive(volume.drive_of(loc.group, r))
               .page_verifies(loc.dlpn)) {
        ++corrupt;
        break;
      }
    }
  }
  return corrupt;
}

Row run_array(const ExperimentHarness& harness, const Variant& v,
              std::uint64_t requests) {
  const auto start = std::chrono::steady_clock::now();
  ArrayConfig cfg;
  cfg.drives = 4;
  cfg.replication_factor = 2;
  cfg.stripe_pages = 64;
  cfg.queue_pair.doorbell_latency = 500;    // ns
  cfg.queue_pair.completion_latency = 500;  // ns
  cfg.interconnect.requesters = 2;
  cfg.interconnect.requester_link = {.latency = 200, .gb_per_s = 8.0};
  cfg.interconnect.switch_fabric = {.latency = 100, .gb_per_s = 16.0};
  cfg.interconnect.drive_link = {.latency = 200, .gb_per_s = 4.0};
  cfg.drive = ExperimentHarness::drive_config(flex::ssd::Scheme::kLdpcInSsd,
                                              6000);
  arm(cfg.drive, v);
  auto built = ArraySimulator::Builder(harness.normal_model(),
                                       harness.reduced_model())
                   .config(cfg)
                   .Build();
  if (!built.ok()) {
    std::fprintf(stderr, "integrity array config rejected (%s): %s\n",
                 v.label.c_str(), built.status().to_string().c_str());
    std::exit(EXIT_FAILURE);
  }
  ArraySimulator& array = **built;
  const std::uint64_t footprint =
      std::min<std::uint64_t>(40'000, array.logical_pages());
  array.prefill(footprint);

  // Main phase: 90% reads / 10% writes over the prefilled footprint at a
  // fixed offered rate. Misdirected writes land during prefill and here;
  // reads that hit them fail over to the mirror and trigger read-repair.
  constexpr flex::Duration kGap = 250'000;  // ns between arrivals (4k IOPS)
  std::vector<flex::trace::Request> trace;
  trace.reserve(requests);
  for (std::uint64_t i = 0; i < requests; ++i) {
    const std::uint64_t h = mix64(i ^ 0x1E67'D1C0ULL);
    trace.push_back({.arrival = static_cast<flex::SimTime>(i * kGap),
                     .is_write = (h % 10) == 0,
                     .lpn = static_cast<std::uint32_t>(mix64(h) % footprint),
                     .pages = 1});
  }
  array.run_segment(trace);
  Row row;
  {
    const flex::host::ArrayResults& r = array.results();
    row.reads = r.read_response.count();
    row.read_mean_s = r.read_response.mean();
    row.read_p99_s = r.read_latency_hist.quantile(0.99);
    for (const auto& d : r.drive) {
      row.verified += d.integrity_verified_reads;
      row.mismatch += d.integrity_mismatch_reads;
      row.undetected += d.integrity_undetected_reads;
      row.recovered += d.integrity_recovered_reads;
      row.unrecovered += d.integrity_unrecovered_reads;
    }
    // Lifetime FTL totals (prefill included — the prefill writes are
    // where most misdirections land on this read-heavy mix).
    for (std::uint32_t d = 0; d < array.drives(); ++d) {
      const flex::ftl::FtlStats& total = array.drive(d).ftl().stats();
      row.misdirected += total.misdirected_writes;
      row.torn += total.torn_relocations;
      row.repair_writes += total.repair_writes;
    }
    row.failovers = r.integrity_failovers;
    row.read_repairs = r.read_repairs;
  }

  // Scrub to convergence: each pass reads every footprint page twice
  // back-to-back, so round-robin replica steering serves both mirrors and
  // any persistently corrupt copy is repaired from its sibling. A repair
  // write can itself be misdirected, hence the (bounded) loop.
  if (v.integrity) {
    flex::SimTime scrub_base = static_cast<flex::SimTime>(requests * kGap);
    for (std::uint32_t pass = 0; pass < 5; ++pass) {
      if (audit_array(array, footprint) == 0) break;
      ++row.scrub_passes;
      scrub_base += 1'000'000'000'000LL;  // 1000 s of slack between passes
      std::vector<flex::trace::Request> scrub;
      scrub.reserve(footprint * 2);
      for (std::uint64_t hpn = 0; hpn < footprint; ++hpn) {
        for (int copy = 0; copy < 2; ++copy) {
          scrub.push_back(
              {.arrival = scrub_base +
                          static_cast<flex::SimTime>(
                              (hpn * 2 + static_cast<std::uint64_t>(copy)) *
                              kGap),
               .is_write = false,
               .lpn = static_cast<std::uint32_t>(hpn),
               .pages = 1});
        }
      }
      array.run_segment(scrub);
    }
    const flex::host::ArrayResults& r = array.results();
    row.failovers = r.integrity_failovers;
    row.read_repairs = r.read_repairs;
    row.corrupt_after_scrub = audit_array(array, footprint);
    row.mirrors_equal = row.corrupt_after_scrub == 0;
  }
  row.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(argc, argv, {{"requests", 20'000}},
                             {flex::bench::kBenchOut});
  const std::uint64_t requests = cli.count(0);

  std::printf(
      "=== End-to-end integrity ablation (web-1 drive + RAID-10 array, "
      "%llu requests) ===\n\n",
      static_cast<unsigned long long>(requests));
  ExperimentHarness harness;

  const std::vector<Variant> variants = {
      {.label = "single/off (reference)"},
      {.label = "single/on clean", .integrity = true},
      {.label = "single/on 1e-4", .integrity = true, .rate = 1e-4},
      {.label = "single/on 1e-3", .integrity = true, .rate = 1e-3},
      {.label = "raid10/off (reference)", .array = true},
      {.label = "raid10/on 1e-4",
       .array = true,
       .integrity = true,
       .rate = 1e-4},
      {.label = "raid10/on 1e-3",
       .array = true,
       .integrity = true,
       .rate = 1e-3},
  };

  const std::vector<Row> rows = flex::bench::run_indexed(
      variants.size(),
      [&](std::size_t i) {
        return variants[i].array ? run_array(harness, variants[i], requests)
                                 : run_single(harness, variants[i], requests);
      },
      cli.jobs());

  TablePrinter table({"variant", "read mean ms", "read p99 ms", "verified",
                      "mismatch", "undetected", "cured", "persistent",
                      "repairs"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Row& r = rows[i];
    table.add_row({variants[i].label,
                   TablePrinter::num(r.read_mean_s * 1e3, 3),
                   TablePrinter::num(r.read_p99_s * 1e3, 3),
                   std::to_string(r.verified), std::to_string(r.mismatch),
                   std::to_string(r.undetected), std::to_string(r.recovered),
                   std::to_string(r.unrecovered),
                   std::to_string(variants[i].array ? r.read_repairs
                                                    : r.repair_writes)});
  }
  std::printf("%s\n", table.to_string().c_str());

  TablePrinter array_table({"variant", "misdirected", "torn", "failovers",
                            "read repairs", "scrub passes",
                            "corrupt after scrub", "mirrors equal"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (!variants[i].array || !variants[i].integrity) continue;
    const Row& r = rows[i];
    array_table.add_row(
        {variants[i].label, std::to_string(r.misdirected),
         std::to_string(r.torn), std::to_string(r.failovers),
         std::to_string(r.read_repairs), std::to_string(r.scrub_passes),
         std::to_string(r.corrupt_after_scrub),
         r.mirrors_equal ? "yes" : "no"});
  }
  std::printf("%s\n", array_table.to_string().c_str());

  // Each failed check, as "<row>: <check>".
  std::vector<std::string> failures;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Row& r = rows[i];
    const std::string& label = variants[i].label;
    if (r.undetected != 0) {
      failures.push_back(label + ": " + std::to_string(r.undetected) +
                         " reads delivered wrong bytes unflagged "
                         "(undetected must be 0)");
    }
    if (variants[i].integrity && variants[i].rate > 0.0 && r.mismatch == 0) {
      failures.push_back(label +
                         ": armed corruption surfaced no mismatch "
                         "(mismatch must be > 0)");
    }
    if (variants[i].array && variants[i].integrity) {
      if (r.corrupt_after_scrub != 0) {
        failures.push_back(label + ": " +
                           std::to_string(r.corrupt_after_scrub) +
                           " pages still corrupt after scrub (must be 0)");
      }
      if (!r.mirrors_equal) {
        failures.push_back(label + ": mirrors differ after scrub");
      }
    }
  }
  const bool verdict_ok = failures.empty();
  if (verdict_ok) {
    std::printf(
        "Verdict: PASS. Every read that delivered wrong bytes was flagged "
        "(undetected = 0 on every row); transient post-ECC flips were "
        "cured by the recovery re-read, persistent medium faults failed "
        "over to the mirror copy, and the scrub loop restored both mirrors "
        "to verifying (byte-equal) state. The integrity layer costs no "
        "simulated latency when clean — seals ride the existing OOB path "
        "— so the on/off latency columns differ only where corruption "
        "forces recovery re-reads and failover hops.\n");
  } else {
    std::printf("Verdict: FAIL. %zu check(s) failed:\n", failures.size());
    for (const std::string& failure : failures) {
      std::printf("  %s\n", failure.c_str());
    }
  }

  flex::bench::write_bench_file(
      cli, "integrity", requests, [&](flex::bench::JsonWriter& json) {
        json.field("verdict_ok", verdict_ok).begin_array("runs");
        for (std::size_t i = 0; i < variants.size(); ++i) {
          const Variant& v = variants[i];
          const Row& r = rows[i];
          json.begin_object()
              .field("label", v.label)
              .field("array", v.array)
              .field("integrity", v.integrity)
              .field("corruption_rate", v.rate)
              .field("reads", r.reads)
              .field("read_mean_s", r.read_mean_s)
              .field("read_p99_s", r.read_p99_s)
              .field("verified_reads", r.verified)
              .field("mismatch_reads", r.mismatch)
              .field("undetected_reads", r.undetected)
              .field("recovered", r.recovered)
              .field("unrecovered", r.unrecovered)
              .field("misdirected_writes", r.misdirected)
              .field("torn_relocations", r.torn)
              .field("repair_writes", r.repair_writes)
              .field("integrity_failovers", r.failovers)
              .field("read_repairs", r.read_repairs)
              .field("scrub_passes", r.scrub_passes)
              .field("corrupt_after_scrub", r.corrupt_after_scrub)
              .field("mirrors_equal", r.mirrors_equal)
              .field("wall_clock_s",
                     flex::bench::serial_wall(cli, r.wall_seconds))
              .end();
        }
        json.end();
      });
  return verdict_ok ? 0 : 1;
}
