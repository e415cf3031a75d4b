// Multi-tenant QoS scheduling ablation (no paper figure — the DAC'15
// evaluation is single-tenant closed-loop; this bench exercises the
// open-loop workload engine and the QoS chip scheduler added on top).
//
// Three experiments, each run under two configurations of the one EDF
// scheduler (a FIFO control arm vs. EDF-with-weighted-fair deadline
// scheduling) on the aged P/E-6000 drive:
//  * an arrival-rate sweep from light load to past saturation, 4 Zipf
//    tenants with a high-priority latency-sensitive tenant 0 — the
//    deadline policy's read/write class separation buys back the read
//    tail as queueing builds;
//  * a "GC storm": write-heavy MMPP bursts with fault injection (block
//    retirements eat over-provisioning, so GC runs hot), admission
//    control and write-through back-pressure bounding queue memory;
//  * a "refresh storm": a 98%-read population with accelerated read
//    disturb and a tight refresh threshold, so scrub relocation trains
//    compete with host reads for the chips.
//
// Stdout is fully deterministic (no wall-clock, no machine state) and
// must be byte-identical across --jobs values; host wall-clock per run
// goes to BENCH_qos.json only.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/table.h"
#include "telemetry/telemetry.h"
#include "workload/engine.h"

namespace {

// Requests/s at which the 8-chip array saturates under this bench's
// 70%-read 4-tenant mix. The naive bound (8 chips / ~0.6 ms of chip
// occupancy per 2-page request) is ~13k, but Zipf(0.9) address skew
// concentrates the hot ranks on a few chips, so the bottleneck chip
// saturates around 4k requests/s — empirically the knee where FIFO's
// read p99 starts growing with the window length.
constexpr double kSaturationIops = 4'000.0;

// 4 tenants x 60k pages — inside the 80% standing population of the
// scaled drive's logical space, so tenant reads hit mapped pages.
constexpr std::uint64_t kFootprintPages = 240'000;

struct Variant {
  std::string label;
  flex::workload::EngineConfig engine;
  flex::ssd::QosConfig qos;
  flex::ssd::ReadDisturbConfig disturb;
  bool faults = false;
};

}  // namespace

int main(int argc, char** argv) {
  using flex::TablePrinter;
  const flex::bench::OutputOptions outputs =
      flex::bench::parse_outputs(&argc, argv);
  const int jobs = flex::bench::parse_jobs(&argc, argv);
  const std::uint64_t requests =
      flex::bench::positional_count(argc, argv, 1, "requests", 60'000);
  const std::uint64_t warmup = requests / 3;

  std::printf(
      "=== QoS scheduling ablation (4 tenants, P/E 6000, %llu requests) "
      "===\n\n",
      static_cast<unsigned long long>(requests));
  flex::bench::ExperimentHarness harness;

  // The shared tenant population: Zipf(0.9) arrival shares over equal
  // footprint slices; tenant 0 is the latency-sensitive foreground
  // service (high priority, 4x fair share), the rest are batch. The FIFO
  // arm runs every tenant at priority 0, which the engine only copies
  // into requests, so both arms see the identical arrival stream.
  auto population = [](double read_fraction, bool fifo) {
    auto tenants =
        flex::workload::zipf_tenant_population(4, 0.9, kFootprintPages);
    for (auto& tenant : tenants) tenant.read_fraction = read_fraction;
    tenants[0].priority = fifo ? 0 : 1;
    tenants[0].qos_weight = 4.0;
    return tenants;
  };
  // FIFO is EDF with one budget for every class (the background budget,
  // so the throttle's expiry is unchanged) and the weighted-fair override
  // off: a deadline is then arrival + budget, which never decreases with
  // submission order, so EDF serves the lowest eligible sequence number.
  auto qos_config = [](bool fifo) {
    flex::ssd::QosConfig qos;
    qos.enabled = true;
    qos.tenants = 4;
    qos.tenant_weights = {4.0, 1.0, 1.0, 1.0};
    if (fifo) {
      qos.read_deadline = qos.background_deadline;
      qos.write_deadline = qos.background_deadline;
      qos.fair_share_slack = std::numeric_limits<flex::Duration>::max();
    }
    return qos;
  };

  std::vector<Variant> variants;
  const struct {
    const char* label;
    double load;
  } sweep[] = {{"sweep 30%", 0.3},
               {"sweep 60%", 0.6},
               {"sweep 80%", 0.8},
               {"sweep 100%", 1.0},
               {"sweep 120%", 1.2}};
  const struct {
    const char* name;
    bool fifo;
  } policies[] = {{"fifo", true}, {"deadline", false}};
  for (const auto& point : sweep) {
    for (const auto& policy : policies) {
      Variant v;
      v.label = std::string(point.label) + " " + policy.name;
      v.engine.arrivals.base_iops = kSaturationIops * point.load;
      v.engine.tenants = population(/*read_fraction=*/0.7, policy.fifo);
      v.engine.seed = 0xAB1A;  // same stream for both policies at a load
      v.qos = qos_config(policy.fifo);
      variants.push_back(std::move(v));
    }
  }
  for (const auto& policy : policies) {
    // GC storm: write-heavy bursts (6x for ~15% of the time) on a faulty
    // drive. Admission control and the dirty watermark bound queue
    // memory; GC throttling defers the relocation trains the extra
    // writes provoke. rescue = 1.0 keeps the storm lossless so both
    // policies serve the identical request population.
    Variant v;
    v.label = std::string("gc storm ") + policy.name;
    v.engine.arrivals.base_iops = kSaturationIops * 0.5;
    v.engine.arrivals.burst_rate_multiplier = 6.0;
    v.engine.arrivals.burst_on_fraction = 0.15;
    v.engine.arrivals.burst_mean_on_s = 0.05;
    v.engine.tenants = population(/*read_fraction=*/0.35, policy.fifo);
    v.engine.seed = 0x6C57;
    v.qos = qos_config(policy.fifo);
    v.qos.admission_max_outstanding = 128;
    v.qos.write_admission_dirty_watermark = 96;
    v.qos.gc_throttle_queue_depth = 6;
    v.faults = true;
    variants.push_back(std::move(v));
  }
  for (const auto& policy : policies) {
    // Refresh storm: read-hot tenants under accelerated disturb with a
    // tight scrub threshold — background relocation pressure without
    // host writes. GC throttling keeps scrubs out of read bursts.
    Variant v;
    v.label = std::string("refresh storm ") + policy.name;
    v.engine.arrivals.base_iops = kSaturationIops * 0.7;
    v.engine.tenants = population(/*read_fraction=*/0.98, policy.fifo);
    v.engine.seed = 0x5C2B;
    v.qos = qos_config(policy.fifo);
    v.qos.gc_throttle_queue_depth = 6;
    v.disturb.enabled = true;
    v.disturb.model.vth_shift_per_read = 1.8e-4;
    v.disturb.refresh_threshold = 400;
    variants.push_back(std::move(v));
  }

  const bool collect =
      !outputs.trace_out.empty() || !outputs.metrics_out.empty();
  const auto all = flex::bench::run_indexed(
      variants.size(),
      [&](std::size_t i) {
        const Variant& v = variants[i];
        flex::ssd::SsdConfig cfg = flex::bench::ExperimentHarness::
            drive_config(flex::ssd::Scheme::kLdpcInSsd, 6000);
        cfg.qos = v.qos;
        cfg.read_disturb = v.disturb;
        if (v.faults) {
          cfg.faults.enabled = true;
          cfg.faults.program_fail_rate = 2e-4;
          cfg.faults.erase_fail_rate = 2e-4;
          cfg.faults.grown_defect_rate = 1e-4;
          cfg.faults.read_retry_rescue = 1.0;
        }
        if (!collect) {
          return harness.run_open_loop(cfg, v.engine, warmup, requests);
        }
        flex::telemetry::Telemetry telemetry;
        telemetry.pid = static_cast<std::int32_t>(i + 1);
        telemetry.trace = !outputs.trace_out.empty();
        return harness.run_open_loop(cfg, v.engine, warmup, requests,
                                     &telemetry);
      },
      jobs);

  TablePrinter table({"variant", "read mean ms", "read p99 ms",
                      "read p999 ms", "t0 p99 ms", "rejected",
                      "bg deferrals", "fair overrides"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& r = all[i];
    table.add_row(
        {variants[i].label,
         TablePrinter::num(r.read_response.mean() * 1e3, 3),
         TablePrinter::num(r.read_latency_hist.quantile(0.99) * 1e3, 3),
         TablePrinter::num(r.read_latency_hist.quantile(0.999) * 1e3, 3),
         TablePrinter::num(
             r.tenant[0].read_latency_hist.quantile(0.99) * 1e3, 3),
         std::to_string(r.admission_rejected),
         std::to_string(r.background_deferrals),
         std::to_string(r.fairness_overrides)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Sweep rows at one load level serve the identical arrival stream "
      "and walk the identical FTL state trajectory — they isolate pure "
      "dispatch-order effects. Under load the deadline policy's class "
      "budgets pull reads ahead of writes and maintenance, buying back "
      "the read tail; the weighted-fair override and the priority "
      "deadline shrink tenant 0's p99 further. (Storm rows are not "
      "state-identical across policies: admission rejections and "
      "disturb-triggered scrubs depend on queue state, which is the "
      "policy's to shape.)\n");

  std::vector<flex::bench::RunLabel> runs;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    runs.push_back(
        {"qos/" + variants[i].label, static_cast<std::int32_t>(i + 1)});
  }
  if (collect) {
    if (!outputs.trace_out.empty()) {
      flex::bench::write_trace_file(outputs.trace_out, runs, all);
    }
    if (!outputs.metrics_out.empty()) {
      flex::bench::write_metrics_file(outputs.metrics_out, runs, all);
    }
  }
  flex::bench::write_bench_json(
      outputs.bench_out.empty() ? "BENCH_qos.json" : outputs.bench_out,
      "qos", requests, jobs, runs, all);
  return 0;
}
