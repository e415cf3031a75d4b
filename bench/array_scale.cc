// Multi-SSD array scaling bench (no paper figure — the DAC'15 evaluation
// is single-drive; this bench exercises the src/host array subsystem:
// shared-kernel composition, NVMe-ish queue pairs, the interconnect, and
// the striped/replicated volume).
//
// Three experiments:
//  * a RAID-0 scale sweep (1/2/4/8 drives) at a fixed per-drive offered
//    load (60% of the single-drive saturation knee) — read throughput
//    must scale near-linearly with drive count, since the volume stripes
//    the address space and the drives share nothing but the host links;
//  * a replica-steering comparison on a 4-drive RAID-10 (2 copies) under
//    a read-hot population with accelerated read disturb — round-robin
//    vs. shortest-queue vs. disturb-aware placement, the last spreading
//    block read counts across copies to defer refresh scrubs;
//  * the AccessEval scope ablation on a FlexLevel RAID-10: kPerDrive
//    (each copy learns only the reads it serves — replication dilutes
//    the hotness signal) vs. kGlobal (replicated reads also feed the
//    sibling copies, so all replicas converge on the array-wide view).
//
// Stdout is fully deterministic (simulated clocks only, no wall-clock or
// machine state) and must be byte-identical across --jobs values; host
// wall-clock per run goes to BENCH_array.json only.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "common/units.h"
#include "host/array.h"
#include "workload/engine.h"

namespace {

using flex::bench::ExperimentHarness;
using flex::host::ArrayConfig;
using flex::host::ArrayResults;
using flex::host::ArraySimulator;

// Per-drive offered load: 60% of the 4k requests/s knee where the scaled
// drive saturates under this tenant mix (see ablation_qos.cc) — every
// array size runs its drives at the same utilisation, so total offered
// IOPS grows linearly with drive count and measured throughput is the
// scaling signal.
constexpr double kPerDriveIops = 0.6 * 4'000.0;

struct Variant {
  std::string label;
  std::uint32_t drives = 1;
  std::uint32_t replication = 1;
  flex::host::ReplicaPolicy policy = flex::host::ReplicaPolicy::kRoundRobin;
  flex::host::AccessEvalScope scope = flex::host::AccessEvalScope::kPerDrive;
  flex::ssd::Scheme scheme = flex::ssd::Scheme::kLdpcInSsd;
  double read_fraction = 0.7;
  flex::ssd::ReadDisturbConfig disturb;
  /// Tenant footprint in host pages; 0 = the whole standing population.
  /// The disturb and AccessEval rows concentrate reads on a small working
  /// set — block read counts and hotness classification need repeats.
  std::uint64_t footprint_pages = 0;
  /// Hotness-filter rotation window override (accesses per filter); 0 =
  /// the drive default, which is sized for a drive receiving the whole
  /// host stream. An array drive sees 1/N of the reads, so the AccessEval
  /// rows shrink the window to keep the identifier's timescale constant.
  std::uint64_t hotness_window = 0;
};

const char* policy_name(flex::host::ReplicaPolicy policy) {
  switch (policy) {
    case flex::host::ReplicaPolicy::kRoundRobin: return "round-robin";
    case flex::host::ReplicaPolicy::kShortestQueue: return "shortest-queue";
    case flex::host::ReplicaPolicy::kDisturbAware: return "disturb-aware";
  }
  return "?";
}

/// The non-degenerate host profile shared by every row: per-hop costs are
/// small against the ~0.3 ms drive service time, so they tax rather than
/// dominate the response (the zero-cost identity profile lives in the
/// tests, not here).
ArrayConfig array_config(const Variant& v) {
  ArrayConfig cfg;
  cfg.drives = v.drives;
  cfg.replication_factor = v.replication;
  cfg.stripe_pages = 64;
  cfg.replica_policy = v.policy;
  cfg.access_eval_scope = v.scope;
  cfg.tenants = 4;
  cfg.queue_pair.queue_pairs = 4;
  cfg.queue_pair.sq_depth = 64;
  cfg.queue_pair.cq_depth = 64;
  cfg.queue_pair.doorbell_latency = 500;    // ns
  cfg.queue_pair.completion_latency = 500;  // ns
  cfg.interconnect.requesters = 2;
  cfg.interconnect.requester_link = {.latency = 200, .gb_per_s = 8.0};
  cfg.interconnect.switch_fabric = {.latency = 100, .gb_per_s = 16.0};
  cfg.interconnect.drive_link = {.latency = 200, .gb_per_s = 4.0};
  cfg.drive = ExperimentHarness::drive_config(v.scheme, 6000);
  cfg.drive.read_disturb = v.disturb;
  if (v.hotness_window > 0) {
    cfg.drive.access_eval.hotness.window_accesses = v.hotness_window;
  }
  return cfg;
}

/// One row under the harness methodology: 80% standing population,
/// warmup window feeding seamlessly into the measured window.
ArrayResults run_row(const ExperimentHarness& harness, const Variant& v,
                     std::uint64_t warmup, std::uint64_t requests) {
  const auto start = std::chrono::steady_clock::now();
  auto built = ArraySimulator::Builder(harness.normal_model(),
                                       harness.reduced_model())
                   .config(array_config(v))
                   .Build();
  if (!built.ok()) {
    std::fprintf(stderr, "array config rejected (%s): %s\n",
                 v.label.c_str(), built.status().to_string().c_str());
    std::exit(EXIT_FAILURE);
  }
  ArraySimulator& array = **built;
  const std::uint64_t standing = array.logical_pages() * 4 / 5;
  array.prefill(standing);
  const std::uint64_t footprint =
      v.footprint_pages > 0 ? std::min(v.footprint_pages, standing)
                            : standing;

  // 4 Zipf(0.9) tenants over equal slices of the standing population;
  // tenant 0 is the latency-sensitive foreground service, and tenants pin
  // to alternating host ports so both uplinks carry traffic.
  flex::workload::EngineConfig engine;
  engine.arrivals.base_iops = kPerDriveIops * v.drives;
  engine.tenants = flex::workload::zipf_tenant_population(4, 0.9, footprint);
  for (std::size_t i = 0; i < engine.tenants.size(); ++i) {
    engine.tenants[i].read_fraction = v.read_fraction;
    engine.tenants[i].requester = static_cast<std::uint8_t>(i % 2);
  }
  engine.tenants[0].priority = 1;
  engine.seed = 0xA44A;
  if (const flex::Status status = engine.Validate(); !status.ok()) {
    std::fprintf(stderr, "array workload rejected (%s): %s\n",
                 v.label.c_str(), status.to_string().c_str());
    std::exit(EXIT_FAILURE);
  }
  flex::workload::WorkloadEngine source(engine);

  if (warmup > 0) array.run_open_loop(source, warmup);
  array.reset_measurements();
  array.run_open_loop(source, requests);
  ArrayResults results = array.results();
  results.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return results;
}

double reads_per_second(const ArrayResults& r) {
  const double window = flex::to_seconds(r.window);
  return window <= 0.0
             ? 0.0
             : static_cast<double>(r.read_response.count()) / window;
}

std::uint64_t sum_refresh(const ArrayResults& r) {
  std::uint64_t sum = 0;
  for (const auto& d : r.drive) sum += d.refresh_blocks;
  return sum;
}

std::uint64_t sum_migrations(const ArrayResults& r) {
  std::uint64_t sum = 0;
  for (const auto& d : r.drive) {
    sum += d.migrations_to_reduced + d.migrations_to_normal;
  }
  return sum;
}

void write_array_json(const flex::bench::Cli& cli, std::uint64_t requests,
                      const std::vector<Variant>& variants,
                      const std::vector<ArrayResults>& all) {
  flex::bench::write_bench_file(
      cli, "array", requests, [&](flex::bench::JsonWriter& json) {
        json.field("per_drive_iops", kPerDriveIops).begin_array("runs");
        for (std::size_t i = 0; i < variants.size(); ++i) {
          const Variant& v = variants[i];
          const ArrayResults& r = all[i];
          const flex::Duration window = r.window > 0 ? r.window : 1;
          json.begin_object()
              .field("label", v.label)
              .field("drives", v.drives)
              .field("replication", v.replication)
              .field("policy", policy_name(v.policy))
              .field("access_eval_scope",
                     v.scope == flex::host::AccessEvalScope::kGlobal
                         ? "global"
                         : "per-drive")
              .field("scheme", flex::ssd::scheme_name(v.scheme))
              .field("requests", r.all_response.count())
              .field("reads", r.read_response.count())
              .field("writes", r.write_response.count())
              .field("window_s", flex::to_seconds(r.window))
              .field("read_throughput_rps", reads_per_second(r))
              .field("read_mean_s", r.read_response.mean())
              .field("read_p99_s", r.read_latency_hist.quantile(0.99))
              .field("read_p999_s", r.read_latency_hist.quantile(0.999))
              .field("write_mean_s", r.write_response.mean())
              .begin_object("breakdown_s")
              .field("submit", flex::to_seconds(r.read_breakdown.submit))
              .field("queue", flex::to_seconds(r.read_breakdown.queue))
              .field("drive", flex::to_seconds(r.read_breakdown.drive))
              .field("completion",
                     flex::to_seconds(r.read_breakdown.completion))
              .end()
              .field("switch_utilization",
                     r.switch_fabric.utilization(window))
              .field("observe_feeds", r.observe_feeds)
              .field("refresh_blocks", sum_refresh(r))
              .field("migrations", sum_migrations(r))
              .field("wall_clock_s",
                     flex::bench::serial_wall(cli, r.wall_seconds))
              .begin_array("replica_reads");
          for (const std::uint64_t reads : r.replica_reads) json.item(reads);
          json.end().begin_array("drive_link_utilization");
          for (const auto& link : r.drive_link) {
            json.item(link.utilization(window));
          }
          json.end().begin_array("qp");
          for (const auto& qp : r.qp) {
            json.begin_object()
                .field("submitted", qp.submitted)
                .field("backlogged", qp.backlogged)
                .field("cq_stalls", qp.cq_stalls)
                .field("sq_high_water", qp.sq_high_water)
                .end();
          }
          json.end().begin_array("tenants");
          for (const flex::ssd::TenantStats& ts : r.tenant) {
            json.begin_object()
                .field("reads", ts.read_response.count())
                .field("read_mean_s", ts.read_response.mean())
                .field("read_p99_s", ts.read_latency_hist.quantile(0.99))
                .field("read_p999_s", ts.read_latency_hist.quantile(0.999))
                .end();
          }
          json.end().end();
        }
        json.end();
      });
}

}  // namespace

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::Cli cli(argc, argv, {{"requests", 40'000}},
                             {flex::bench::kBenchOut});
  const std::uint64_t requests = cli.count(0);
  const std::uint64_t warmup = requests / 3;

  std::printf(
      "=== Array scaling (per-drive load %.0f req/s, 4 tenants, %llu "
      "requests) ===\n\n",
      kPerDriveIops, static_cast<unsigned long long>(requests));
  ExperimentHarness harness;

  std::vector<Variant> variants;
  for (const std::uint32_t drives : {1u, 2u, 4u, 8u, 16u}) {
    Variant v;
    v.label = "scale/raid0-" + std::to_string(drives);
    v.drives = drives;
    variants.push_back(std::move(v));
  }
  for (const flex::host::ReplicaPolicy policy :
       {flex::host::ReplicaPolicy::kRoundRobin,
        flex::host::ReplicaPolicy::kShortestQueue,
        flex::host::ReplicaPolicy::kDisturbAware}) {
    // Read-hot mirror pair under accelerated disturb: replica steering
    // decides which copy's blocks absorb the read-count pressure.
    Variant v;
    v.label = std::string("replica/") + policy_name(policy);
    v.drives = 4;
    v.replication = 2;
    v.policy = policy;
    v.read_fraction = 0.98;
    v.footprint_pages = 96'000;
    v.disturb.enabled = true;
    v.disturb.model.vth_shift_per_read = 1.8e-4;
    v.disturb.refresh_threshold = 64;
    variants.push_back(std::move(v));
  }
  for (const flex::host::AccessEvalScope scope :
       {flex::host::AccessEvalScope::kPerDrive,
        flex::host::AccessEvalScope::kGlobal}) {
    Variant v;
    v.label = std::string("accesseval/") +
              (scope == flex::host::AccessEvalScope::kGlobal ? "global"
                                                             : "per-drive");
    v.drives = 4;
    v.replication = 2;
    v.scope = scope;
    v.scheme = flex::ssd::Scheme::kFlexLevel;
    v.footprint_pages = 96'000;
    v.hotness_window = 4'096;
    variants.push_back(std::move(v));
  }

  const auto all = flex::bench::run_indexed(
      variants.size(),
      [&](std::size_t i) {
        return run_row(harness, variants[i], warmup, requests);
      },
      cli.jobs());

  TablePrinter table({"variant", "drives", "R", "reads/s", "scaling",
                      "read mean ms", "read p99 ms", "t0 p99 ms",
                      "refresh", "feeds"});
  const double base_rps = reads_per_second(all[0]);
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    const ArrayResults& r = all[i];
    const bool scale_row = v.label.rfind("scale/", 0) == 0;
    table.add_row(
        {v.label, std::to_string(v.drives), std::to_string(v.replication),
         TablePrinter::num(reads_per_second(r), 6),
         scale_row && base_rps > 0
             ? TablePrinter::num(reads_per_second(r) / base_rps, 2) + "x"
             : "-",
         TablePrinter::num(r.read_response.mean() * 1e3, 3),
         TablePrinter::num(r.read_latency_hist.quantile(0.99) * 1e3, 3),
         TablePrinter::num(
             r.tenant[0].read_latency_hist.quantile(0.99) * 1e3, 3),
         std::to_string(sum_refresh(r)), std::to_string(r.observe_feeds)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Scale rows stripe one address space across N drives at a fixed "
      "per-drive offered load, so reads/s tracks drive count while the "
      "per-request response stays flat: the drives share nothing but the "
      "host links. Replica rows mirror a read-hot population under "
      "accelerated read disturb — disturb-aware steering splits each "
      "block's read count across the two copies, deferring refresh "
      "scrubs. AccessEval rows measure what an array-wide hotness view "
      "buys FlexLevel on a mirror: per-drive scope halves each copy's "
      "view of a page's heat, the global scope feeds served reads to the "
      "sibling replicas too. The feed roughly doubles promotions into the "
      "ReducedCell pool (the migrations column of BENCH_array.json); "
      "whether that pays depends on the marginal pages' re-read rate — "
      "here their relocation traffic costs more than their sensing "
      "savings return, so the diluted per-drive signal acts as a useful "
      "promotion filter.\n");

  write_array_json(cli, requests, variants, all);
  return 0;
}
