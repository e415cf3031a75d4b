// flexbench: the end-to-end and per-layer benchmark binary.
//
// One process measures one workload (README.md says why each exists):
//
//   flexbench --workload NAME [--seed S] [--seconds N] [--trace]
//             [--trace-dir DIR]
//   flexbench --smoke [--seed S]
//
// Every workload follows the same script, wall-timed phase by phase: build
// the BER models (ExperimentHarness), Build() the drive or array, prefill
// and precondition it, run the warmup window and reset the measurements.
// That set-up runs three times, each in a fresh process so the program's
// process-wide caches start cold, and is reported as its median. The measured
// window is a series of timed passes: trace replays run a fresh draw of the
// workload's trace, shifted past the previous pass; open loops run the next
// chunk of the same arrival stream. --seconds fixes the number of passes
// through a per-workload nominal pass time, never through a clock, so every
// simulated result — and the CRC64 digest over them — depends only on
// (workload, seed, seconds).
//
// An untraced run (the default) reports the end-to-end metrics with
// telemetry detached. --trace attaches a metrics-only telemetry context to
// the measured window, records spans for its first requests, and then
// replays the workload's own request stream into one layer's public
// function at a time. Traced and untraced runs of one seed share every
// segment boundary, so their digests must agree: telemetry only observes.
//
// Output is a line protocol that flexbench.py reads:
//   run <workload> <seed> <untraced|traced>
//   metric <name> <value> <unit>   end-to-end (untraced) or per-layer
//   layer <name> <value> <unit>    per-layer, measured by an untraced run
//   check <name> <ok|FAIL> <detail>
//   info <key> <value>
//   digest <16 hex digits>
//   end <attempted> <failed> <correct 0|1>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "common/alloc_counter.h"
#include "common/crc64.h"
#include "common/rng.h"
#include "flexlevel/access_eval.h"
#include "ftl/page_mapping.h"
#include "ftl/payload.h"
#include "host/array.h"
#include "host/volume.h"
#include "ldpc/channel.h"
#include "ldpc/decoder.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_code.h"
#include "reliability/read_channel.h"
#include "ssd/chip_scheduler.h"
#include "ssd/event_queue.h"
#include "telemetry/export.h"
#include "trace/workloads.h"
#include "workload/engine.h"

#ifdef FLEXBENCH_COUNT_ALLOCATIONS
FLEX_DEFINE_COUNTING_ALLOCATOR()
#endif

namespace {

using namespace flex;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

/// Requests at the head of the measured window that a traced run records
/// spans for. Every run splits each pass at this point, traced or not, so
/// both kinds of run see identical segment boundaries.
constexpr std::size_t kHeadRequests = 20'000;
/// Replays feed at most this many requests of the workload's stream.
constexpr std::size_t kReplayRequests = 200'000;
/// Replays cycle the stream's write pages until a repetition has this many.
constexpr std::size_t kMinReplayWrites = 65'536;
constexpr int kReplayReps = 5;
/// Smoke scale: requests per trace, per open-loop chunk, per warmup.
constexpr std::uint64_t kSmokeRequests = 10'000;

/// Folds replay results into a sink the optimizer cannot discard.
volatile std::uint64_t g_sink = 0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Host throughput of a measured window: the median of its fastest quarter
/// of passes. A noisy neighbour on a shared host only ever slows a pass, so
/// the fastest passes estimate what the code costs best; their median keeps
/// one lucky pass from setting the number.
double fastest_quarter_median(std::vector<double> rates) {
  std::sort(rates.begin(), rates.end(), std::greater<>());
  rates.resize(std::max<std::size_t>(1, rates.size() / 4));
  return median(rates);
}

double rss_now_mib() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) return 0.0;
  long pages = 0;
  long resident = 0;
  const int read = std::fscanf(file, "%ld %ld", &pages, &resident);
  std::fclose(file);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// splitmix64 finalizer (per-pass trace seeds, the calibration loop).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Fixed reference work in flexbench itself, independent of the simulator: its
/// drift between the start and the end of a run flags a noisy host.
double calibration_ns() {
  constexpr std::uint64_t kIterations = 1u << 22;
  std::uint64_t x = 0x2015;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIterations; ++i) x = mix64(x);
  const auto t1 = Clock::now();
  g_sink = g_sink ^ x;
  return seconds_between(t0, t1) * 1e9 / static_cast<double>(kIterations);
}

/// Wall-clock spans around flexbench's phases, passes and replays: the
/// host-side view of where a run's time went. Recorded only when tracing.
class HostTrace {
 public:
  explicit HostTrace(bool enabled) : enabled_(enabled) {}

  void record(const char* name, Clock::time_point start,
              Clock::time_point end) {
    if (!enabled_) return;
    const auto ns = [](Clock::duration d) {
      return static_cast<std::int64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    spans_.push_back({.name = name,
                      .cat = "flexbench",
                      .start = ns(start - kProcessStart),
                      .dur = ns(end - start)});
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    telemetry::write_chrome_trace(
        out, spans_, {{.name = "flexbench host (wall clock)"}});
  }

 private:
  bool enabled_;
  std::vector<telemetry::Span> spans_;
};

/// CRC64 over every deterministic result field of a run: identical
/// simulations give identical digests, whatever the host did.
class Digest {
 public:
  template <class T>
    requires std::is_integral_v<T>
  void add(T v) {
    const auto word = static_cast<std::uint64_t>(v);
    crc_ = crc64(&word, sizeof word, crc_);
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const RunningStats& s) {
    add(s.count());
    add(s.sum());
    add(s.mean());
    add(s.variance());
    add(s.min());
    add(s.max());
  }
  void add(const Histogram& h) {
    for (std::size_t i = 0; i < h.bins(); ++i) add(h.bin_count(i));
  }
  std::uint64_t value() const { return crc_; }

 private:
  std::uint64_t crc_ = 0;
};

void digest_drive(Digest& d, const ssd::SsdResults& r) {
  d.add(r.read_response);
  d.add(r.write_response);
  d.add(r.all_response);
  d.add(r.read_latency_hist);
  const ssd::ReadBreakdown& b = r.read_breakdown;
  for (const Duration part :
       {b.queue_wait, b.sensing, b.transfer, b.decode, b.buffer}) {
    d.add(part);
  }
  const ftl::FtlStats& f = r.ftl;
  for (const std::uint64_t v :
       {f.host_writes, f.nand_writes, f.nand_erases, f.gc_runs,
        f.gc_page_moves, f.mode_migrations, f.refresh_runs,
        f.refresh_page_moves, f.program_fails, f.erase_fails,
        f.grown_defects, f.retired_blocks, f.retire_page_moves,
        f.misdirected_writes, f.torn_relocations, f.repair_writes}) {
    d.add(v);
  }
  for (const std::uint64_t v :
       {r.buffer_hits, r.unmapped_reads, r.uncorrectable_reads,
        r.migrations_to_reduced, r.migrations_to_normal, r.refresh_blocks,
        r.refresh_page_moves, r.pool_pages, r.recovered_reads,
        r.data_loss_reads, r.integrity_verified_reads,
        r.integrity_mismatch_reads, r.integrity_recovered_reads,
        r.integrity_unrecovered_reads, r.integrity_undetected_reads,
        r.writes_acked, r.writes_durable, r.dirty_buffer_pages,
        r.admission_rejected, r.slo_rejected, r.qos_request_slots_high_water,
        r.qos_pending_high_water, r.background_deferrals,
        r.fairness_overrides}) {
    d.add(v);
  }
  for (const std::uint64_t v : r.sensing_level_reads) d.add(v);
  for (const ssd::ChipStats& c : r.chip_stats) {
    d.add(c.commands);
    d.add(c.queued_commands);
    d.add(c.wait_time);
    d.add(c.channel_busy);
    d.add(c.die_busy);
    d.add(c.controller_busy);
    d.add(c.max_queue_depth);
  }
  for (const ssd::TenantStats& t : r.tenant) {
    d.add(t.read_response);
    d.add(t.write_response);
    d.add(t.read_latency_hist);
    d.add(t.admission_rejected);
  }
}

void digest_array(Digest& d, const host::ArrayResults& r) {
  d.add(r.read_response);
  d.add(r.write_response);
  d.add(r.all_response);
  d.add(r.read_latency_hist);
  const host::HostBreakdown& b = r.read_breakdown;
  for (const Duration part : {b.submit, b.queue, b.drive, b.completion}) {
    d.add(part);
  }
  for (const ssd::TenantStats& t : r.tenant) {
    d.add(t.read_response);
    d.add(t.write_response);
    d.add(t.read_latency_hist);
  }
  for (const ssd::SsdResults& drive : r.drive) digest_drive(d, drive);
  for (const host::QueuePairStats& q : r.qp) {
    for (const std::uint64_t v : {q.submitted, q.fetched, q.backlogged,
                                  q.cq_stalls, q.sq_high_water,
                                  q.backlog_high_water}) {
      d.add(v);
    }
  }
  for (const auto* links : {&r.requester_link, &r.drive_link}) {
    for (const host::LinkStats& l : *links) {
      d.add(l.busy);
      d.add(l.transfers);
    }
  }
  d.add(r.switch_fabric.busy);
  d.add(r.switch_fabric.transfers);
  for (const std::uint64_t v : r.replica_reads) d.add(v);
  d.add(r.observe_feeds);
  d.add(r.integrity_failovers);
  d.add(r.read_repairs);
  d.add(r.window);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kTrace, kOpenLoop, kArray };

struct WorkloadDef {
  std::string_view name;
  Kind kind;
  /// Host seconds one measured pass (trace replay) or chunk (open loop)
  /// takes on the reference machine (4-vCPU x86-64 VM, RelWithDebInfo).
  /// --seconds divided by this is the number of measured passes. It is a
  /// constant, not a measurement, so the window is the same on any host.
  double pass_seconds;
  /// Open loops: requests in the warmup window and in one measured chunk.
  std::uint64_t warmup;
  std::uint64_t chunk;
  /// FlexLevel drives must migrate pages into the ReducedCell pool.
  bool must_migrate;
};

constexpr WorkloadDef kWorkloads[] = {
    {"paper-read", Kind::kTrace, 0.45, 0, 0, true},
    {"paper-write", Kind::kTrace, 0.75, 0, 0, true},
    {"worn-read", Kind::kTrace, 0.4, 0, 0, false},
    {"tenants-qos", Kind::kOpenLoop, 0.4, 500'000, 375'000, false},
    {"raid10-integrity", Kind::kArray, 0.4, 250'000, 125'000, false},
};

const WorkloadDef* find_workload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

/// The drive each workload runs on (the array's template drive for
/// raid10-integrity), derived from the bench harness's scaled drive.
ssd::SsdConfig drive_config(std::string_view name) {
  using bench::ExperimentHarness;
  if (name == "paper-read" || name == "paper-write") {
    // The Fig. 6a cell: FlexLevel at P/E 6000 with the paper's static
    // per-LBA ages.
    ssd::SsdConfig cfg =
        ExperimentHarness::drive_config(ssd::Scheme::kFlexLevel, 6000);
    cfg.age_model = ssd::AgeModel::kStaticPerLba;
    return cfg;
  }
  if (name == "worn-read") {
    // ablation_thresholds' worn drive plus refresh scrubs: every read
    // pays the disturb term, the per-block threshold estimator and the
    // decoder-measured latency table.
    ssd::SsdConfig cfg =
        ExperimentHarness::drive_config(ssd::Scheme::kLdpcInSsd, 9000);
    cfg.max_prefill_age = 3 * kMonth;
    cfg.read_disturb.enabled = true;
    cfg.read_disturb.model.vth_shift_per_read = 1.8e-4;
    cfg.read_disturb.refresh_threshold = 400;
    cfg.channel.enabled = true;
    cfg.channel.adaptive_thresholds = true;
    cfg.channel.quantizer = reliability::ChannelQuantizer::kMiOptimized;
    cfg.channel.decode_latency = reliability::DecodeLatencyMode::kMeasured;
    return cfg;
  }
  ssd::SsdConfig cfg =
      ExperimentHarness::drive_config(ssd::Scheme::kLdpcInSsd, 6000);
  if (name == "tenants-qos") {
    cfg.qos.enabled = true;
    cfg.qos.policy = ssd::QosPolicy::kDeadline;
    cfg.qos.tenants = 4;
    cfg.qos.tenant_weights = {4.0, 1.0, 1.0, 1.0};
    return cfg;
  }
  // raid10-integrity: CRC64 seals with every silent-corruption kind armed.
  cfg.integrity.enabled = true;
  cfg.faults.enabled = true;
  cfg.faults.silent_corruption_rate = 1e-4;
  cfg.faults.misdirected_write_rate = 1e-4;
  cfg.faults.torn_relocation_rate = 1e-4;
  return cfg;
}

trace::WorkloadParams trace_params(std::string_view name) {
  return trace::workload_params(name == "paper-write" ? trace::Workload::kPrj1
                                                      : trace::Workload::kWeb1);
}

/// array_scale's host profile around a 4-drive RAID-10.
host::ArrayConfig array_config() {
  host::ArrayConfig cfg;
  cfg.drives = 4;
  cfg.replication_factor = 2;
  cfg.stripe_pages = 64;
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
  cfg.drive = drive_config("raid10-integrity");
  return cfg;
}

/// 4 Zipf(0.9) tenants, 70% reads; tenant 0 is the latency-sensitive
/// foreground service. tenants-qos offers 3,200 req/s (80% of the
/// ablation_qos knee); the array 3,840 req/s over its standing population.
workload::EngineConfig engine_config(std::string_view name,
                                     std::uint64_t footprint,
                                     std::uint64_t seed) {
  const bool array = name == "raid10-integrity";
  workload::EngineConfig engine;
  engine.arrivals.base_iops = array ? 3'840.0 : 3'200.0;
  engine.tenants = workload::zipf_tenant_population(4, 0.9, footprint);
  for (std::size_t i = 0; i < engine.tenants.size(); ++i) {
    engine.tenants[i].read_fraction = 0.7;
    engine.tenants[i].requester = static_cast<std::uint8_t>(i % 2);
  }
  engine.tenants[0].priority = 1;
  engine.tenants[0].qos_weight = 4.0;
  engine.seed = seed;
  return engine;
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "flexbench: %s\n", what.c_str());
  std::exit(2);
}

std::unique_ptr<ssd::SsdSimulator> build(const bench::ExperimentHarness& h,
                                         const ssd::SsdConfig& cfg) {
  auto built = ssd::SsdSimulator::Builder(h.normal_model(), h.reduced_model())
                   .config(cfg)
                   .Build();
  if (!built.ok()) die("drive rejected: " + built.status().to_string());
  return std::move(*built);
}

std::unique_ptr<host::ArraySimulator> build(const bench::ExperimentHarness& h,
                                            const host::ArrayConfig& cfg) {
  auto built =
      host::ArraySimulator::Builder(h.normal_model(), h.reduced_model())
          .config(cfg)
          .Build();
  if (!built.ok()) die("array rejected: " + built.status().to_string());
  return std::move(*built);
}

/// The 80% standing population every bench drive carries.
std::uint64_t standing_pages(const ssd::SsdSimulator& sim) {
  return sim.ftl().logical_pages() * 4 / 5;
}
std::uint64_t standing_pages(const host::ArraySimulator& array) {
  return array.logical_pages() * 4 / 5;
}

// ---------------------------------------------------------------------------
// Results, folded to what the metrics need

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// The measured window's results; array runs sum their drives.
struct Tally {
  const RunningStats* reads = nullptr;
  const RunningStats* writes = nullptr;
  const RunningStats* all = nullptr;
  const Histogram* read_hist = nullptr;
  const ssd::TenantStats* tenant0 = nullptr;
  std::uint64_t nand_writes = 0;
  std::uint64_t nand_erases = 0;
  std::uint64_t gc_page_moves = 0;
  std::uint64_t buffer_hits = 0;
  std::uint64_t unmapped_reads = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t recovered = 0;
  std::uint64_t integrity_verified = 0;
  std::uint64_t integrity_mismatch = 0;
  std::uint64_t integrity_unrecovered = 0;
  std::uint64_t undetected = 0;
  std::uint64_t migrations_to_reduced = 0;
  std::uint64_t migrations_to_normal = 0;
  std::uint64_t refresh_blocks = 0;
  std::uint64_t refresh_moves = 0;
  std::uint64_t pool_pages = 0;
  std::uint64_t pool_capacity = 0;
  std::uint64_t rejected = 0;
  std::uint64_t bg_deferrals = 0;
  std::uint64_t fair_overrides = 0;
  std::vector<std::uint64_t> levels;
  ssd::ReadBreakdown breakdown;
  ssd::ChipStats chips;  ///< summed over chips (max_queue_depth: max)
  std::uint64_t chip_count = 0;
  // Array only.
  bool array = false;
  host::HostBreakdown host;
  std::uint64_t failovers = 0;
  std::uint64_t read_repairs = 0;
  double switch_util = 0.0;
  std::uint64_t sq_high_water = 0;
  Duration window = 0;

  void add_drive(const ssd::SsdResults& r) {
    nand_writes += r.ftl.nand_writes;
    nand_erases += r.ftl.nand_erases;
    gc_page_moves += r.ftl.gc_page_moves;
    buffer_hits += r.buffer_hits;
    unmapped_reads += r.unmapped_reads;
    uncorrectable += r.uncorrectable_reads;
    recovered += r.recovered_reads;
    integrity_verified += r.integrity_verified_reads;
    integrity_mismatch += r.integrity_mismatch_reads;
    integrity_unrecovered += r.integrity_unrecovered_reads;
    undetected += r.integrity_undetected_reads;
    migrations_to_reduced += r.migrations_to_reduced;
    migrations_to_normal += r.migrations_to_normal;
    refresh_blocks += r.refresh_blocks;
    refresh_moves += r.refresh_page_moves;
    pool_pages += r.pool_pages;
    pool_capacity += r.pool_capacity_pages;
    rejected += r.admission_rejected;
    bg_deferrals += r.background_deferrals;
    fair_overrides += r.fairness_overrides;
    levels.resize(std::max(levels.size(), r.sensing_level_reads.size()), 0);
    for (std::size_t i = 0; i < r.sensing_level_reads.size(); ++i) {
      levels[i] += r.sensing_level_reads[i];
    }
    breakdown.queue_wait += r.read_breakdown.queue_wait;
    breakdown.sensing += r.read_breakdown.sensing;
    breakdown.transfer += r.read_breakdown.transfer;
    breakdown.decode += r.read_breakdown.decode;
    breakdown.buffer += r.read_breakdown.buffer;
    for (const ssd::ChipStats& c : r.chip_stats) {
      chips.commands += c.commands;
      chips.queued_commands += c.queued_commands;
      chips.wait_time += c.wait_time;
      chips.channel_busy += c.channel_busy;
      chips.die_busy += c.die_busy;
      chips.controller_busy += c.controller_busy;
      chips.max_queue_depth = std::max(chips.max_queue_depth,
                                       c.max_queue_depth);
      ++chip_count;
    }
  }

  std::uint64_t nand_reads() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t v : levels) sum += v;
    return sum;
  }
};

/// What one measured window produced, whatever the rig.
struct Window {
  std::uint64_t issued = 0;
  std::uint64_t host_write_pages = 0;
  SimTime first_arrival = 0;
  SimTime last_arrival = 0;
};

/// The latency-breakdown identity: the integer-ns component sum equals the
/// response-time sum up to double rounding of the ns -> s conversion.
Check breakdown_check(const std::string& name, Duration total_ns,
                      double response_sum_s) {
  const double total = to_seconds(total_ns);
  const bool ok =
      std::fabs(total - response_sum_s) <= 1e-9 * std::max(1.0, response_sum_s);
  return {name, ok,
          std::to_string(total) + "s_vs_" + std::to_string(response_sum_s) +
              "s"};
}

struct Folded {
  Tally tally;
  std::uint64_t digest = 0;
  std::uint64_t completed = 0;
  std::vector<Check> checks;
};

Folded fold(const ssd::SsdSimulator& sim) {
  const ssd::SsdResults& r = sim.results();
  Folded out;
  Tally& t = out.tally;
  t.reads = &r.read_response;
  t.writes = &r.write_response;
  t.all = &r.all_response;
  t.read_hist = &r.read_latency_hist;
  t.tenant0 = &r.tenant.front();
  t.add_drive(r);
  Digest digest;
  digest_drive(digest, r);
  out.digest = digest.value();
  out.completed = r.all_response.count();
  out.checks.push_back(breakdown_check("read_breakdown_identity",
                                       r.read_breakdown.total(),
                                       r.read_response.sum()));
  return out;
}

Folded fold(const host::ArraySimulator& array) {
  const host::ArrayResults& r = array.results();
  Folded out;
  Tally& t = out.tally;
  t.reads = &r.read_response;
  t.writes = &r.write_response;
  t.all = &r.all_response;
  t.read_hist = &r.read_latency_hist;
  t.tenant0 = &r.tenant.front();
  for (const ssd::SsdResults& drive : r.drive) t.add_drive(drive);
  t.array = true;
  t.host = r.read_breakdown;
  t.failovers = r.integrity_failovers;
  t.read_repairs = r.read_repairs;
  t.window = r.window;
  t.switch_util = r.switch_fabric.utilization(r.window);
  for (const host::QueuePairStats& q : r.qp) {
    t.sq_high_water = std::max(t.sq_high_water, q.sq_high_water);
  }
  Digest digest;
  digest_array(digest, r);
  out.digest = digest.value();
  out.completed = r.all_response.count();
  out.checks.push_back(breakdown_check("host_breakdown_identity",
                                       r.read_breakdown.total(),
                                       r.read_response.sum()));
  for (std::size_t d = 0; d < r.drive.size(); ++d) {
    out.checks.push_back(breakdown_check(
        "drive" + std::to_string(d) + "_read_breakdown_identity",
        r.drive[d].read_breakdown.total(), r.drive[d].read_response.sum()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rigs: one workload's system under test, driven only through public API

struct Phases {
  double model = 0.0;
  double build = 0.0;
  double prefill = 0.0;
  double warmup = 0.0;
  double total() const { return model + build + prefill + warmup; }
};

struct RunOptions {
  std::uint64_t seed = 2015;
  double seconds = 6.0;
  bool traced = false;
  bool smoke = false;
  int setup_reps = 3;
  std::string trace_dir;
};

class Rig {
 public:
  virtual ~Rig() = default;
  /// Model build, Build(), prefill + precondition and warmup, each phase
  /// wall-timed into `phases`; ends with the measurements reset.
  virtual void setup(Phases& phases, HostTrace& host) = 0;
  virtual void attach(telemetry::Telemetry* telemetry) = 0;
  /// Runs measured pass `k` (1-based) and returns its host seconds and
  /// request count. `after_head` runs once the first kHeadRequests of
  /// pass 1 are served.
  virtual std::pair<double, std::uint64_t> run_pass(
      std::size_t k, const std::function<void()>& after_head) = 0;
  virtual Folded fold_results() const = 0;
  virtual const Window& window() const = 0;
  virtual const bench::ExperimentHarness& harness() const = 0;
  virtual const ssd::SsdConfig& drive() const = 0;
  /// The first `n` requests of the workload's own input (replay stream).
  virtual std::vector<trace::Request> sample(std::size_t n) const = 0;
  /// Host ns the workload generator spends per request (median of 5).
  virtual double input_ns_per_request(std::size_t n) const = 0;
};

/// Closed-trace replay on one drive. Pass 0 is the warmup; every pass
/// replays a fresh draw of the workload's default-length trace (seeded
/// from --seed and the pass number) shifted past the previous pass, so
/// the sim_* metrics average over independent draws while the benchmark
/// holds one trace in memory at a time.
class TraceRig final : public Rig {
 public:
  TraceRig(const WorkloadDef& def, const RunOptions& options)
      : options_(options), config_(drive_config(def.name)) {
    params_ = trace_params(def.name);
    if (options.smoke) params_.requests = kSmokeRequests;
    // ExperimentHarness's arrival scaling for the 1/8-size drive.
    params_.iops *= 0.45;
  }

  void setup(Phases& phases, HostTrace& host) override {
    load(0, 0);
    sim_.reset();
    harness_.reset();
    const auto t0 = Clock::now();
    harness_ = std::make_unique<bench::ExperimentHarness>();
    const auto t1 = Clock::now();
    sim_ = build(*harness_, config_);
    const auto t2 = Clock::now();
    sim_->prefill(standing_pages(*sim_));
    const auto t3 = Clock::now();
    sim_->run_segment(head_);
    sim_->run_segment(tail_);
    const auto t4 = Clock::now();
    sim_->reset_measurements();
    phases = {seconds_between(t0, t1), seconds_between(t1, t2),
              seconds_between(t2, t3), seconds_between(t3, t4)};
    host.record("model", t0, t1);
    host.record("build", t1, t2);
    host.record("prefill", t2, t3);
    host.record("warmup", t3, t4);
  }

  void attach(telemetry::Telemetry* telemetry) override {
    sim_->attach_telemetry(telemetry);
  }

  std::pair<double, std::uint64_t> run_pass(
      std::size_t k, const std::function<void()>& after_head) override {
    load(k, end_);
    if (k == 1) window_.first_arrival = head_.front().arrival;
    const auto t0 = Clock::now();
    sim_->run_segment(head_);
    if (k == 1) after_head();
    sim_->run_segment(tail_);
    const auto t1 = Clock::now();
    const std::uint64_t requests = head_.size() + tail_.size();
    window_.issued += requests;
    for (const auto* part : {&head_, &tail_}) {
      for (const trace::Request& r : *part) {
        if (r.is_write) window_.host_write_pages += r.pages;
      }
    }
    window_.last_arrival = tail_.back().arrival;
    return {seconds_between(t0, t1), requests};
  }

  Folded fold_results() const override { return fold(*sim_); }
  const Window& window() const override { return window_; }
  const bench::ExperimentHarness& harness() const override {
    return *harness_;
  }
  const ssd::SsdConfig& drive() const override { return config_; }

  std::vector<trace::Request> sample(std::size_t n) const override {
    trace::WorkloadParams params = params_;
    params.requests = std::min<std::uint64_t>(n, params.requests);
    return trace::generate(params, pass_seed(1));
  }

  double input_ns_per_request(std::size_t n) const override {
    trace::WorkloadParams params = params_;
    params.requests = n;
    std::vector<double> ns;
    for (int rep = 0; rep < kReplayReps; ++rep) {
      const auto t0 = Clock::now();
      const std::vector<trace::Request> trace =
          trace::generate(params, pass_seed(1));
      const auto t1 = Clock::now();
      g_sink = g_sink + trace.back().lpn;
      ns.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(n));
    }
    return median(ns);
  }

 private:
  std::uint64_t pass_seed(std::size_t k) const {
    return mix64(options_.seed ^ mix64(k));
  }

  /// Generates pass `k`'s trace starting at simulated time `offset`, split
  /// at kHeadRequests (see there).
  void load(std::size_t k, SimTime offset) {
    // Release the previous trace and hand its pages back, so input churn
    // does not fragment the heap into peak_rss_mib.
    tail_ = {};
    malloc_trim(0);
    std::vector<trace::Request> all = trace::generate(params_, pass_seed(k));
    for (trace::Request& r : all) r.arrival += offset;
    const SimTime last = all.back().arrival - offset;
    end_ = offset + last + last / static_cast<SimTime>(all.size()) + 1;
    const auto head =
        static_cast<std::ptrdiff_t>(std::min(kHeadRequests, all.size() / 2));
    head_.assign(all.begin(), all.begin() + head);
    all.erase(all.begin(), all.begin() + head);
    tail_ = std::move(all);
  }

  RunOptions options_;
  ssd::SsdConfig config_;
  trace::WorkloadParams params_;
  std::vector<trace::Request> head_;
  std::vector<trace::Request> tail_;
  /// Simulated time just past the loaded trace: where the next pass starts.
  SimTime end_ = 0;
  Window window_;
  // harness_ outlives sim_, which holds references to its BER models.
  std::unique_ptr<bench::ExperimentHarness> harness_;
  std::unique_ptr<ssd::SsdSimulator> sim_;
};

/// Counts what the simulator draws from the engine, so flexbench knows
/// the measured window's size, span and host write volume.
class CountingSource final : public trace::RequestSource {
 public:
  explicit CountingSource(workload::WorkloadEngine& engine)
      : engine_(engine) {}

  std::optional<trace::Request> next() override {
    std::optional<trace::Request> r = engine_.next();
    if (r) {
      if (window_.issued == 0) window_.first_arrival = r->arrival;
      window_.last_arrival = r->arrival;
      ++window_.issued;
      if (r->is_write) window_.host_write_pages += r->pages;
    }
    return r;
  }

  void reset() { window_ = {}; }
  const Window& window() const { return window_; }

 private:
  workload::WorkloadEngine& engine_;
  Window window_;
};

/// Open-loop engine driving a single QoS drive (Sim = SsdSimulator) or the
/// RAID-10 array (Sim = ArraySimulator): a warmup window, then measured
/// chunks of the same continuous arrival stream.
template <class Sim, class Config>
class OpenLoopRig final : public Rig {
 public:
  OpenLoopRig(const WorkloadDef& def, const RunOptions& options,
              Config config, const ssd::SsdConfig& drive)
      : def_(def), options_(options), config_(std::move(config)),
        drive_(drive) {
    warmup_ = options.smoke ? kSmokeRequests / 2 : def.warmup;
    chunk_ = options.smoke ? kSmokeRequests : def.chunk;
  }

  void setup(Phases& phases, HostTrace& host) override {
    sim_.reset();
    source_.reset();
    engine_.reset();
    harness_.reset();
    const auto t0 = Clock::now();
    harness_ = std::make_unique<bench::ExperimentHarness>();
    const auto t1 = Clock::now();
    sim_ = build(*harness_, config_);
    const auto t2 = Clock::now();
    const std::uint64_t standing = standing_pages(*sim_);
    sim_->prefill(standing);
    const auto t3 = Clock::now();
    // ablation_qos's tenants share 240k pages of the standing population;
    // the array's tenants span all of it.
    engine_config_ = engine_config(
        def_.name, def_.kind == Kind::kArray ? standing : 240'000,
        options_.seed);
    if (const Status status = engine_config_.Validate(); !status.ok()) {
      die("engine rejected: " + status.to_string());
    }
    engine_ = std::make_unique<workload::WorkloadEngine>(engine_config_);
    source_ = std::make_unique<CountingSource>(*engine_);
    sim_->run_open_loop(*source_, warmup_);
    const auto t4 = Clock::now();
    sim_->reset_measurements();
    source_->reset();
    phases = {seconds_between(t0, t1), seconds_between(t1, t2),
              seconds_between(t2, t3), seconds_between(t3, t4)};
    host.record("model", t0, t1);
    host.record("build", t1, t2);
    host.record("prefill", t2, t3);
    host.record("warmup", t3, t4);
  }

  void attach(telemetry::Telemetry* telemetry) override {
    sim_->attach_telemetry(telemetry);
  }

  std::pair<double, std::uint64_t> run_pass(
      std::size_t k, const std::function<void()>& after_head) override {
    const auto t0 = Clock::now();
    if (k == 1) {
      const std::uint64_t head = std::min<std::uint64_t>(kHeadRequests,
                                                         chunk_ / 2);
      sim_->run_open_loop(*source_, head);
      after_head();
      sim_->run_open_loop(*source_, chunk_ - head);
    } else {
      sim_->run_open_loop(*source_, chunk_);
    }
    const auto t1 = Clock::now();
    return {seconds_between(t0, t1), chunk_};
  }

  Folded fold_results() const override { return fold(*sim_); }
  const Window& window() const override { return source_->window(); }
  const bench::ExperimentHarness& harness() const override {
    return *harness_;
  }
  const ssd::SsdConfig& drive() const override { return drive_; }

  std::vector<trace::Request> sample(std::size_t n) const override {
    workload::WorkloadEngine engine(engine_config_);
    return engine.materialize(n);
  }

  double input_ns_per_request(std::size_t n) const override {
    std::vector<double> ns;
    for (int rep = 0; rep < kReplayReps; ++rep) {
      workload::WorkloadEngine engine(engine_config_);
      std::uint64_t fold = 0;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) fold += engine.next()->lpn;
      const auto t1 = Clock::now();
      g_sink = g_sink + fold;
      ns.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(n));
    }
    return median(ns);
  }

 private:
  WorkloadDef def_;
  RunOptions options_;
  Config config_;
  ssd::SsdConfig drive_;
  std::uint64_t warmup_ = 0;
  std::uint64_t chunk_ = 0;
  workload::EngineConfig engine_config_;
  // Destruction order: sim_ drops its source pointer at the end of every
  // run_open_loop call, and holds references to harness_'s BER models.
  std::unique_ptr<bench::ExperimentHarness> harness_;
  std::unique_ptr<workload::WorkloadEngine> engine_;
  std::unique_ptr<CountingSource> source_;
  std::unique_ptr<Sim> sim_;
};

std::unique_ptr<Rig> make_rig(const WorkloadDef& def,
                              const RunOptions& options) {
  switch (def.kind) {
    case Kind::kTrace:
      return std::make_unique<TraceRig>(def, options);
    case Kind::kOpenLoop: {
      const ssd::SsdConfig cfg = drive_config(def.name);
      return std::make_unique<OpenLoopRig<ssd::SsdSimulator, ssd::SsdConfig>>(
          def, options, cfg, cfg);
    }
    case Kind::kArray: {
      const host::ArrayConfig cfg = array_config();
      return std::make_unique<
          OpenLoopRig<host::ArraySimulator, host::ArrayConfig>>(
          def, options, cfg, cfg.drive);
    }
  }
  die("unknown workload kind");
}

/// One set-up in a forked child, which reports its phases through a pipe and
/// exits. The caller has not set anything up yet, so the child starts cold.
Phases cold_setup(const WorkloadDef& def, const RunOptions& options) {
  int fds[2];
  if (pipe(fds) != 0) die("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    Phases phases;
    HostTrace host(false);
    make_rig(def, options)->setup(phases, host);
    const bool sent = write(fds[1], &phases, sizeof phases) == sizeof phases;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Phases phases;
  const bool received = read(fds[0], &phases, sizeof phases) == sizeof phases;
  close(fds[0]);
  int status = 0;
  const bool reaped = waitpid(pid, &status, 0) == pid;
  if (!received || !reaped || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    die("set-up child failed");
  }
  return phases;
}

// ---------------------------------------------------------------------------
// Per-layer replays: the workload's own stream fed straight into one
// layer's public function at a time, timed as ns/op (median of 5).

/// Median over kReplayReps runs of `body`, which returns the host ns its
/// timed part took, divided by `ops`.
template <class Body>
double replay_ns(std::size_t ops, const char* name, HostTrace& host,
                 Body&& body) {
  if (ops == 0) return 0.0;
  std::vector<double> ns;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    const auto t0 = Clock::now();
    const double timed = body();
    host.record(name, t0, Clock::now());
    ns.push_back(timed / static_cast<double>(ops));
  }
  return median(ns);
}

/// Times a whole callable, for replay_ns bodies without untimed parts.
template <class Fn>
double timed_ns(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now()) * 1e9;
}

/// An FTL filled the way SsdSimulator::prefill fills the drive: the
/// standing population with log-uniform ages per extent, then the
/// preconditioning overwrites.
ftl::PageMappingFtl prefilled_ftl(const ssd::SsdConfig& cfg) {
  ftl::FtlConfig fc = cfg.ftl;
  fc.integrity = cfg.integrity.enabled;
  fc.integrity_seed = cfg.seed;
  fc.integrity_payload_words = cfg.integrity.payload_words;
  ftl::PageMappingFtl ftl(fc);
  Rng rng(cfg.seed);
  const std::uint64_t pages = ftl.logical_pages() * 4 / 5;
  const double log_min = std::log(cfg.min_prefill_age);
  const double log_max = std::log(cfg.max_prefill_age);
  const auto birth = [&] {
    return static_cast<SimTime>(-std::exp(rng.uniform(log_min, log_max)) *
                                3600.0 * 1e9);
  };
  SimTime extent_birth = 0;
  for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
    if (lpn % cfg.prefill_extent_pages == 0) extent_birth = birth();
    ftl.write(lpn, ftl::PageMode::kNormal, extent_birth);
  }
  const auto overwrites = static_cast<std::uint64_t>(
      cfg.precondition_passes * static_cast<double>(pages));
  for (std::uint64_t i = 0; i < overwrites; ++i) {
    const SimTime when = birth();
    ftl.write(rng.below(pages), ftl::PageMode::kNormal, when);
  }
  return ftl;
}

/// One NAND page read of the stream, resolved through the replay FTL.
struct ReadProbe {
  std::uint64_t lpn = 0;
  std::uint64_t ppn = 0;
  std::uint64_t block_reads = 0;
  std::uint64_t version = 0;
  std::uint32_t pe = 0;
  Hours age = 0.0;
  bool reduced = false;
};

std::vector<Metric> replay_layers(const Rig& rig, const RunOptions& options,
                                  HostTrace& host) {
  const ssd::SsdConfig& cfg = rig.drive();
  const bench::ExperimentHarness& harness = rig.harness();
  const std::vector<trace::Request> stream =
      rig.sample(options.smoke ? kSmokeRequests : kReplayRequests);
  ftl::PageMappingFtl ftl = prefilled_ftl(cfg);
  const std::uint64_t logical = ftl.logical_pages();

  std::vector<ReadProbe> reads;
  std::vector<std::uint64_t> writes;
  for (const trace::Request& r : stream) {
    for (std::uint32_t i = 0; i < r.pages; ++i) {
      const std::uint64_t lpn = (r.lpn + i) % logical;
      if (r.is_write) {
        writes.push_back(lpn);
        continue;
      }
      const std::optional<ftl::PageInfo> info = ftl.lookup(lpn);
      if (!info) continue;
      reads.push_back(
          {.lpn = lpn,
           .ppn = info->ppn,
           .block_reads = info->block_reads,
           .version = ftl.data_version(lpn),
           .pe = info->pe_cycles,
           .age = std::max(0.0, static_cast<double>(r.arrival -
                                                    info->write_time) /
                                    (3600.0 * 1e9)),
           .reduced = info->mode == ftl::PageMode::kReduced});
      ftl.record_read(info->ppn);
    }
  }

  std::vector<Metric> out;
  const auto ns_metric = [&out](const char* name, double value) {
    out.push_back({name, value, "ns"});
  };

  // kernel: the simulator's scheduling mix — monotone arrivals whose
  // handlers schedule out-of-order completions one hard read later.
  {
    ssd::EventQueue queue;
    const Duration service = cfg.latency.read_fixed(0);
    ns_metric("kernel.ns_per_event",
              replay_ns(2 * stream.size(), "replay.kernel", host, [&] {
                return timed_ns([&] {
                  const SimTime base = queue.now();
                  for (const trace::Request& r : stream) {
                    queue.schedule(base + r.arrival,
                                   [&queue, service](SimTime now) {
                                     queue.schedule(now + service,
                                                    [](SimTime) {});
                                   });
                  }
                  queue.run_all();
                });
              }));
  }

  // sched: ChipScheduler::submit of one hard read per request, drained
  // (untimed) every 4,096 submits.
  {
    ssd::EventQueue queue;
    ssd::ChipScheduler scheduler(cfg.ftl.spec.chips, queue);
    const ssd::ReadCost cost = cfg.latency.read_fixed_cost(0);
    const ssd::ChipCommand cmd{.channel = cost.channel,
                               .die = cost.die,
                               .controller = cost.controller};
    ns_metric("sched.submit_ns",
              replay_ns(stream.size(), "replay.sched", host, [&] {
                double ns = 0.0;
                const SimTime base = queue.now();
                for (std::size_t i = 0; i < stream.size(); i += 4096) {
                  const std::size_t end = std::min(stream.size(), i + 4096);
                  ns += timed_ns([&] {
                    for (std::size_t j = i; j < end; ++j) {
                      scheduler.submit(stream[j].lpn % scheduler.chips(),
                                       base + stream[j].arrival, cmd, "read");
                    }
                  });
                  queue.run_all();
                }
                return ns;
              }));
  }

  // channel: ReadChannel::assess on FTL-derived (pe, age, ppn,
  // block_reads). One untimed pass fills the BER cache and yields the
  // sensing requirement the ladder and AccessEval replays consume.
  reliability::ReadChannel channel(
      {.config = cfg.channel,
       .disturb_enabled = cfg.read_disturb.enabled,
       .disturb = cfg.read_disturb.model,
       .pages_per_block = cfg.ftl.spec.pages_per_block,
       .physical_blocks = static_cast<std::uint64_t>(cfg.ftl.spec.chips) *
                          cfg.ftl.spec.blocks_per_chip},
      harness.normal_model(), harness.reduced_model());
  std::vector<int> levels;
  levels.reserve(reads.size());
  for (const ReadProbe& p : reads) {
    levels.push_back(
        channel.assess(p.reduced, p.pe, p.age, p.ppn, p.block_reads)
            .required_levels);
  }
  ns_metric("channel.assess_ns",
            replay_ns(reads.size(), "replay.channel", host, [&] {
              return timed_ns([&] {
                std::uint64_t fold = 0;
                for (const ReadProbe& p : reads) {
                  fold += static_cast<std::uint64_t>(
                      channel
                          .assess(p.reduced, p.pe, p.age, p.ppn,
                                  p.block_reads)
                          .required_levels);
                }
                g_sink = g_sink + fold;
              });
            }));

  // policy: the progressive ladder walk of LatencyModel::read_cost.
  ns_metric("policy.ladder_ns",
            replay_ns(levels.size(), "replay.ladder", host, [&] {
              return timed_ns([&] {
                Duration fold = 0;
                for (const int required : levels) {
                  fold += cfg.latency
                              .read_cost({.required_levels = required},
                                         channel.ladder())
                              .total();
                }
                g_sink = g_sink + static_cast<std::uint64_t>(fold);
              });
            }));

  // ldpc: min-sum decode of one codeword at each ladder step's cap BER,
  // quantized the way the workload's channel quantizes.
  {
    const ldpc::QcLdpcCode code = ldpc::QcLdpcCode::paper_code();
    const ldpc::Encoder encoder(code);
    const ldpc::Decoder decoder(code);
    const ldpc::QuantizerKind quantizer =
        cfg.channel.quantizer == reliability::ChannelQuantizer::kMiOptimized
            ? ldpc::QuantizerKind::kMiOptimized
            : ldpc::QuantizerKind::kUniform;
    Rng rng(options.seed);
    std::vector<std::uint8_t> message(static_cast<std::size_t>(code.k()));
    double sum_us = 0.0;
    const auto& steps = channel.ladder().steps();
    for (const auto& step : steps) {
      for (auto& bit : message) bit = static_cast<std::uint8_t>(rng.below(2));
      const ldpc::SensingChannel sensing(step.max_raw_ber, step.extra_levels,
                                         quantizer);
      const std::vector<float> llrs =
          sensing.transmit(encoder.encode(message), rng);
      sum_us += replay_ns(1, "replay.ldpc", host, [&] {
                  return timed_ns([&] {
                    g_sink = g_sink + static_cast<std::uint64_t>(
                                          decoder.decode(llrs).iterations);
                  });
                }) /
                1e3;
    }
    out.push_back({"ldpc.decode_us", sum_us / static_cast<double>(steps.size()),
                   "us"});
  }

  // flexlevel: AccessEval::on_read with each read's sensing requirement.
  {
    flexlevel::AccessEval eval(cfg.access_eval);
    ns_metric("flexlevel.on_read_ns",
              replay_ns(reads.size(), "replay.flexlevel", host, [&] {
                return timed_ns([&] {
                  std::uint64_t fold = 0;
                  for (std::size_t i = 0; i < reads.size(); ++i) {
                    fold += eval.on_read(reads[i].lpn, levels[i])
                                .migrate_to_reduced;
                  }
                  g_sink = g_sink + fold;
                });
              }));
  }

  // ftl: lookups of the stream's reads, then its page writes cycled up to
  // kMinReplayWrites per repetition (GC runs in steady state).
  ns_metric("ftl.lookup_ns",
            replay_ns(reads.size(), "replay.ftl_lookup", host, [&] {
              return timed_ns([&] {
                std::uint64_t fold = 0;
                for (const ReadProbe& p : reads) fold += ftl.lookup(p.lpn)->ppn;
                g_sink = g_sink + fold;
              });
            }));
  {
    const std::size_t ops =
        writes.empty()
            ? 0
            : (kMinReplayWrites + writes.size() - 1) / writes.size() *
                  writes.size();
    SimTime now = 0;
    ns_metric("ftl.write_ns", replay_ns(ops, "replay.ftl_write", host, [&] {
                return timed_ns([&] {
                  std::uint64_t fold = 0;
                  for (std::size_t i = 0; i < ops; ++i) {
                    now += kMicrosecond;
                    fold += ftl.write(writes[i % writes.size()],
                                      ftl::PageMode::kNormal, now)
                                .page_programs;
                  }
                  g_sink = g_sink + fold;
                });
              }));
  }

  // integrity: the CRC64 seal of each read page's current generation.
  {
    const ftl::PayloadModel payload(cfg.seed, cfg.integrity.payload_words);
    ns_metric("integrity.crc_ns",
              replay_ns(reads.size(), "replay.integrity", host, [&] {
                return timed_ns([&] {
                  std::uint64_t fold = 0;
                  for (const ReadProbe& p : reads) {
                    fold ^= payload.crc(p.lpn, p.version);
                  }
                  g_sink = g_sink + fold;
                });
              }));
  }

  // host: VolumeMapper::split over raid10-integrity's volume geometry.
  {
    const host::ArrayConfig array = array_config();
    const host::VolumeMapper volume(
        {.drives = array.drives,
         .replication_factor = array.replication_factor,
         .stripe_pages = array.stripe_pages,
         .drive_pages = logical});
    std::vector<host::VolumeMapper::Extent> extents;
    ns_metric("host.split_ns",
              replay_ns(stream.size(), "replay.host", host, [&] {
                return timed_ns([&] {
                  std::uint64_t fold = 0;
                  for (const trace::Request& r : stream) {
                    volume.split(r.lpn, r.pages, extents);
                    fold += extents.size();
                  }
                  g_sink = g_sink + fold;
                });
              }));
  }

  ns_metric("workload.next_ns", rig.input_ns_per_request(stream.size()));
  return out;
}

// ---------------------------------------------------------------------------
// One run

struct RunReport {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Per-layer metrics the untraced run measures best: its own set-up
  /// phases, pass spread and memory growth (telemetry would inflate them).
  std::vector<Metric> layers;
  std::vector<Check> checks;
  std::vector<std::pair<std::string, std::string>> info;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
};

RunReport run_workload(const WorkloadDef& def, const RunOptions& options) {
  RunReport report;
  report.workload = def.name;
  report.seed = options.seed;
  report.traced = options.traced;
  HostTrace host(options.traced);
  const double calib_before = calibration_ns();
  // Declared before the rig: the simulator keeps a pointer to it.
  telemetry::Telemetry telemetry;
  const std::unique_ptr<Rig> rig = make_rig(def, options);

  // The untraced run reports set-up; a traced run needs it only once. The
  // extra set-ups run first, each in a child process, so every one starts
  // with the program's process-wide caches cold, as a user's process does.
  std::vector<Phases> setups;
  for (int rep = 1; rep < (options.traced ? 1 : options.setup_reps); ++rep) {
    setups.push_back(cold_setup(def, options));
  }
  setups.push_back({});
  rig->setup(setups.back(), host);
  const auto phase_median = [&setups](double (*get)(const Phases&)) {
    std::vector<double> v;
    for (const Phases& p : setups) v.push_back(get(p));
    return median(v);
  };

  const std::size_t passes =
      options.smoke
          ? 2
          : static_cast<std::size_t>(std::max<long long>(
                2, std::llround(options.seconds / def.pass_seconds)));
  if (options.traced) {
    telemetry.trace = true;
    rig->attach(&telemetry);
  }
  const double rss_warm = rss_now_mib();
  const std::uint64_t allocs_before =
      common::alloc_counter::allocation_count();
  std::vector<double> rates;
  for (std::size_t k = 1; k <= passes; ++k) {
    const auto t0 = Clock::now();
    const auto [seconds, requests] =
        rig->run_pass(k, [&telemetry] { telemetry.trace = false; });
    host.record("pass", t0, Clock::now());
    rates.push_back(static_cast<double>(requests) / seconds);
  }
  const std::uint64_t allocs =
      common::alloc_counter::allocation_count() - allocs_before;
  const double rss_measured = rss_now_mib();

  const Folded folded = rig->fold_results();
  const Tally& t = folded.tally;
  const Window& window = rig->window();
  report.digest = folded.digest;
  report.checks = folded.checks;
  report.attempted = window.issued;
  // Rejected, unrescued uncorrectable, unrepaired integrity failures and
  // undetected corruption. On the array a drive's persistent integrity
  // failure is a failover, which only fails if no replica repairs it.
  report.failed = t.rejected + (t.uncorrectable - t.recovered) +
                  t.undetected +
                  (t.array ? t.failovers - t.read_repairs
                           : t.integrity_unrecovered);

  report.checks.push_back(
      {"completed_plus_rejected_equals_issued",
       folded.completed + t.rejected == window.issued,
       std::to_string(folded.completed) + "+" + std::to_string(t.rejected) +
           "_of_" + std::to_string(window.issued)});
  report.checks.push_back({"integrity_undetected_zero", t.undetected == 0,
                           std::to_string(t.undetected)});
  // Smoke windows are too short for the hotness filters to rotate.
  if (def.must_migrate && !options.smoke) {
    report.checks.push_back({"flexlevel_migrates",
                             t.migrations_to_reduced > 0,
                             std::to_string(t.migrations_to_reduced)});
  }
  std::string pass_rates;
  for (const double rate : rates) {
    pass_rates += (pass_rates.empty() ? "" : ",") + std::to_string(rate);
  }
  report.info = {{"reads", std::to_string(t.reads->count())},
                 {"writes", std::to_string(t.writes->count())},
                 {"write_mean_us", std::to_string(t.writes->mean() * 1e6)},
                 {"host_req_per_s", std::to_string(fastest_quarter_median(rates))},
                 {"pass_req_per_s", pass_rates}};

  const std::uint64_t nand_reads = t.nand_reads();
  auto& m = report.metrics;
  if (!options.traced) {
    m.push_back({"host_req_per_s", fastest_quarter_median(rates), "req/s"});
    std::vector<double> totals;
    for (const Phases& p : setups) totals.push_back(p.total());
    m.push_back({"setup_s", median(totals), "s"});
    auto& l = report.layers;
    l.push_back({"phase.model_s",
                 phase_median([](const Phases& p) { return p.model; }), "s"});
    l.push_back({"phase.build_s",
                 phase_median([](const Phases& p) { return p.build; }), "s"});
    l.push_back({"phase.prefill_s",
                 phase_median([](const Phases& p) { return p.prefill; }),
                 "s"});
    l.push_back({"phase.warmup_s",
                 phase_median([](const Phases& p) { return p.warmup; }),
                 "s"});
    const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
    l.push_back(
        {"phase.pass_spread", ratio(*hi - *lo, median(rates)), "ratio"});
    l.push_back({"phase.rss_growth_mib", rss_measured - rss_warm, "MiB"});
    l.push_back(
        {"phase.calib_ns", 0.5 * (calib_before + calibration_ns()), "ns"});
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
    m.push_back({"sim_read_mean_us", t.reads->mean() * 1e6, "us"});
    m.push_back({"sim_read_p50_us", t.read_hist->quantile(0.5) * 1e6, "us"});
    m.push_back({"sim_read_p99_us", t.read_hist->quantile(0.99) * 1e6, "us"});
    m.push_back(
        {"sim_read_p999_us", t.read_hist->quantile(0.999) * 1e6, "us"});
    m.push_back({"sim_mean_us", t.all->mean() * 1e6, "us"});
    m.push_back({"sim_write_amp",
                 ratio(static_cast<double>(t.nand_writes),
                       static_cast<double>(window.host_write_pages)),
                 "ratio"});
    m.push_back({"sim_ok_frac",
                 1.0 - ratio(static_cast<double>(report.failed),
                             static_cast<double>(window.issued)),
                 "ratio"});
    return report;
  }

  // Traced: per-layer metrics.
  const double requests = static_cast<double>(window.issued);
  const auto per = [](std::uint64_t num, double den) {
    return ratio(static_cast<double>(num), den);
  };
  m.push_back({"alloc.per_req", per(allocs, requests), "count/req"});

  const telemetry::MetricsSnapshot snapshot = telemetry.metrics.snapshot();
  const auto fired = snapshot.counters.find("event_queue.fired");
  m.push_back({"kernel.events_per_req",
               per(fired == snapshot.counters.end() ? 0 : fired->second,
                   requests),
               "count/req"});

  const double commands = static_cast<double>(t.chips.commands);
  const Duration window_ns =
      t.array ? t.window : window.last_arrival - window.first_arrival;
  m.push_back({"sched.cmds_per_req", per(t.chips.commands, requests),
               "count/req"});
  m.push_back(
      {"sched.queued_frac", per(t.chips.queued_commands, commands), "ratio"});
  m.push_back({"sched.wait_us_per_cmd",
               ratio(static_cast<double>(t.chips.wait_time) / 1e3, commands),
               "us"});
  m.push_back({"sched.util",
               ratio(static_cast<double>(t.chips.busy_time()),
                     static_cast<double>(window_ns) *
                         static_cast<double>(t.chip_count)),
               "ratio"});
  m.push_back({"sched.max_qd", static_cast<double>(t.chips.max_queue_depth),
               "count"});

  // Failed ladder attempts: a read that needs step i of the ladder walked
  // the i steps below it first (every workload starts hard-first).
  const reliability::SensingRequirement ladder;
  std::uint64_t weighted_levels = 0;
  std::uint64_t soft_reads = 0;
  std::uint64_t retries = 0;
  for (std::size_t level = 0; level < t.levels.size(); ++level) {
    weighted_levels += level * t.levels[level];
    if (level > 0) soft_reads += t.levels[level];
    for (std::size_t step = 0; step < ladder.steps().size(); ++step) {
      if (static_cast<std::size_t>(ladder.steps()[step].extra_levels) ==
          level) {
        retries += step * t.levels[level];
      }
    }
  }
  const double nand = static_cast<double>(nand_reads);
  m.push_back({"policy.mean_levels", per(weighted_levels, nand), "levels"});
  m.push_back({"policy.soft_frac", per(soft_reads, nand), "ratio"});
  m.push_back({"policy.retries_per_read", per(retries, nand), "count/read"});
  const double read_total = static_cast<double>(t.breakdown.total());
  m.push_back({"read.wait_share",
               ratio(static_cast<double>(t.breakdown.queue_wait), read_total),
               "ratio"});
  m.push_back({"read.sense_share",
               ratio(static_cast<double>(t.breakdown.sensing), read_total),
               "ratio"});
  m.push_back({"read.xfer_share",
               ratio(static_cast<double>(t.breakdown.transfer), read_total),
               "ratio"});
  m.push_back({"read.decode_share",
               ratio(static_cast<double>(t.breakdown.decode), read_total),
               "ratio"});
  m.push_back({"policy.refresh_blocks",
               static_cast<double>(t.refresh_blocks), "count"});
  m.push_back({"policy.refresh_moves", static_cast<double>(t.refresh_moves),
               "count"});
  m.push_back({"channel.uncorrectable_frac", per(t.uncorrectable, nand),
               "ratio"});
  m.push_back({"flexlevel.promotions_per_kread",
               per(t.migrations_to_reduced * 1000, nand), "count/kread"});
  m.push_back({"flexlevel.demotions_per_kread",
               per(t.migrations_to_normal * 1000, nand), "count/kread"});
  m.push_back({"flexlevel.pool_fill",
               per(t.pool_pages, static_cast<double>(t.pool_capacity)),
               "ratio"});
  const double write_pages = static_cast<double>(window.host_write_pages);
  m.push_back(
      {"ftl.gc_moves_per_write", per(t.gc_page_moves, write_pages), "ratio"});
  m.push_back({"ftl.erases_per_kwrite", per(t.nand_erases * 1000, write_pages),
               "count/kwrite"});
  m.push_back({"ftl.buffer_hit_frac",
               per(t.buffer_hits, nand + static_cast<double>(t.buffer_hits +
                                                             t.unmapped_reads)),
               "ratio"});
  m.push_back({"integrity.verifies_per_read", per(t.integrity_verified, nand),
               "ratio"});
  m.push_back({"integrity.mismatch_per_mread",
               per(t.integrity_mismatch * 1'000'000,
                   static_cast<double>(t.integrity_verified)),
               "count/Mread"});
  m.push_back(
      {"integrity.undetected", static_cast<double>(t.undetected), "count"});
  const double array_reads =
      t.array ? static_cast<double>(t.reads->count()) : 0.0;
  const auto host_us = [&](Duration part) {
    return ratio(static_cast<double>(part) / 1e3, array_reads);
  };
  m.push_back({"host.submit_us", host_us(t.host.submit), "us"});
  m.push_back({"host.queue_us", host_us(t.host.queue), "us"});
  m.push_back({"host.drive_us", host_us(t.host.drive), "us"});
  m.push_back({"host.completion_us", host_us(t.host.completion), "us"});
  m.push_back({"host.failovers", static_cast<double>(t.failovers), "count"});
  m.push_back(
      {"host.read_repairs", static_cast<double>(t.read_repairs), "count"});
  m.push_back({"host.switch_util", t.switch_util, "ratio"});
  m.push_back(
      {"host.sq_high_water", static_cast<double>(t.sq_high_water), "count"});
  m.push_back({"qos.t0_read_p99_us",
               t.tenant0->read_latency_hist.quantile(0.99) * 1e6, "us"});
  m.push_back({"qos.rejected", static_cast<double>(t.rejected), "count"});
  m.push_back(
      {"qos.bg_deferrals", static_cast<double>(t.bg_deferrals), "count"});
  m.push_back(
      {"qos.fair_overrides", static_cast<double>(t.fair_overrides), "count"});

  // The measured window is over: detach before the replays and write the
  // traces while the spans are still held.
  rig->attach(nullptr);
  const std::string base = options.trace_dir + "/flexbench-" + report.workload;
  if (!options.trace_dir.empty()) {
    std::ofstream out(base + ".trace.json");
    telemetry::write_chrome_trace(out, telemetry.spans.spans());
  }
  for (Metric& metric : replay_layers(*rig, options, host)) {
    m.push_back(std::move(metric));
  }
  if (!options.trace_dir.empty()) host.write(base + "-host.trace.json");
  return report;
}

void print_report(const RunReport& r) {
  std::printf("run %s %" PRIu64 " %s\n", r.workload.c_str(), r.seed,
              r.traced ? "traced" : "untraced");
  for (const Metric& m : r.metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : r.layers) {
    std::printf("layer %s %.17g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [key, value] : r.info) {
    std::printf("info %s %s\n", key.c_str(), value.c_str());
  }
  for (const Check& c : r.checks) {
    std::printf("check %s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }
  std::printf("digest %016" PRIx64 "\n", r.digest);
  std::printf("end %" PRIu64 " %" PRIu64 " %d\n", r.attempted, r.failed,
              r.correct() ? 1 : 0);
  std::fflush(stdout);
}

/// Every workload at smoke scale: twice on one seed (digests must agree),
/// once on the next seed (the digest must change, so the seed reaches the
/// inputs) and, in the counting build, once traced (the digest must agree
/// with the untraced one: telemetry only observes).
int smoke(std::uint64_t seed) {
  bool ok = true;
  for (const WorkloadDef& def : kWorkloads) {
    RunOptions options;
    options.seed = seed;
    options.smoke = true;
    options.setup_reps = 1;
    const RunReport first = run_workload(def, options);
    const RunReport again = run_workload(def, options);
    options.seed = seed + 1;
    const RunReport reseeded = run_workload(def, options);
    options.seed = seed;
    for (const RunReport* r : {&first, &again, &reseeded}) {
      print_report(*r);
      ok = ok && r->correct();
    }
    std::vector<Check> checks = {
        {"digest_repeats", first.digest == again.digest, ""},
        {"seed_changes_digest", first.digest != reseeded.digest, ""}};
#ifdef FLEXBENCH_COUNT_ALLOCATIONS
    options.traced = true;
    const RunReport traced = run_workload(def, options);
    print_report(traced);
    ok = ok && traced.correct();
    checks.push_back({"traced_digest_matches", traced.digest == first.digest,
                      ""});
#endif
    for (const Check& c : checks) {
      std::printf("check %s/%s %s -\n", first.workload.c_str(),
                  c.name.c_str(), c.ok ? "ok" : "FAIL");
      ok = ok && c.ok;
    }
  }
  std::printf("smoke %s\n", ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: flexbench --workload NAME [--seed S] [--seconds N] "
               "[--trace] [--trace-dir DIR]\n"
               "       flexbench --smoke [--seed S]\n"
               "workloads:");
  for (const WorkloadDef& def : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(def.name.size()),
                 def.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
#ifdef FLEXBENCH_COUNT_ALLOCATIONS
  {
    // A probe the compiler cannot elide: counting must be live before
    // alloc.per_req can be trusted.
    auto* probe = new std::vector<int>(1, argc);
    g_sink = g_sink + static_cast<std::uint64_t>(probe->front());
    delete probe;
    if (!common::alloc_counter::counting_enabled()) {
      die("counting allocator is not active");
    }
  }
#endif
  RunOptions options;
  const WorkloadDef* def = nullptr;
  bool smoke_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      def = find_workload(argv[++i]);
      if (def == nullptr) usage();
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      if (!(options.seconds > 0.0)) usage();
    } else if (arg == "--trace") {
      options.traced = true;
    } else if (arg == "--trace-dir" && has_value) {
      options.trace_dir = argv[++i];
    } else if (arg == "--smoke") {
      smoke_mode = true;
    } else {
      usage();
    }
  }
  if (smoke_mode) return smoke(options.seed);
  if (def == nullptr) usage();
#ifndef FLEXBENCH_COUNT_ALLOCATIONS
  if (options.traced) die("--trace needs the counting build (flexbench_traced)");
#endif
  const RunReport report = run_workload(*def, options);
  print_report(report);
  return report.correct() ? 0 : 1;
}
