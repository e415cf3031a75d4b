#include "bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"

#ifndef FLEX_GIT_SHA
#define FLEX_GIT_SHA "unknown"
#endif

namespace flex::bench {
namespace {

const reliability::GrayMapper kGray;
const flexlevel::ReduceCodeMapper kReduce;

reliability::BerEngine::Config c2c_mc() {
  // Large enough to resolve the (rare) reduced-state C2C errors.
  return {.wordlines = 64, .bitlines = 512, .rounds = 4, .coupling = {}};
}

}  // namespace

ExperimentHarness::ExperimentHarness() {
  Rng rng(0xF1E7);
  normal_ = std::make_unique<reliability::BerModel>(
      nand::LevelConfig::baseline_mlc(), kGray, reliability::RetentionModel{},
      c2c_mc(), rng);
  reduced_ = std::make_unique<reliability::BerModel>(
      flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), kReduce,
      reliability::RetentionModel{}, c2c_mc(), rng);
}

ssd::SsdConfig ExperimentHarness::drive_config(ssd::Scheme scheme,
                                               int pe_cycles) {
  ssd::SsdConfig cfg;
  cfg.scheme = scheme;
  // Scaled drive: 8 chips x 896 blocks x 1 MB = 7 GB raw; Table 6 page and
  // block geometry and timing preserved.
  cfg.ftl.spec.page_size_bytes = 16 * 1024;
  cfg.ftl.spec.pages_per_block = 64;
  cfg.ftl.spec.blocks_per_chip = 896;
  cfg.ftl.spec.chips = 8;
  cfg.ftl.over_provisioning = 0.27;
  cfg.ftl.gc_low_watermark = 8;
  cfg.ftl.initial_pe_cycles = static_cast<std::uint32_t>(pe_cycles);
  // Standing data aged along the paper's retention axis (Table 4/5 probe
  // the 1-day..1-month band): at P/E 6000 essentially every stale page
  // needs soft sensing, which is the regime Fig. 6 evaluates.
  cfg.min_prefill_age = kDay;
  cfg.max_prefill_age = kMonth;
  // Write buffer scaled with the drive (paper-equivalent ~0.025% of raw).
  cfg.write_buffer_pages = 128;
  cfg.write_buffer_flush_batch = 32;
  // One full overwrite pass of preconditioning: GC starts in steady state.
  cfg.precondition_passes = 1.0;
  // ReducedCell pool: the paper's 64 GB of a 256 GB drive = 25% of raw
  // capacity, expressed in logical pages of the scaled drive.
  const double raw_pages =
      static_cast<double>(cfg.ftl.spec.total_pages());
  cfg.access_eval.pool_capacity_pages =
      static_cast<std::uint64_t>(raw_pages * 0.25);
  cfg.access_eval.freq_levels = 2;       // L_f = 2 (paper §6.2)
  cfg.access_eval.sensing_buckets = 2;   // L_sensing = 2
  cfg.access_eval.overhead_threshold = 2;
  cfg.access_eval.hotness = {.filter_count = 4,
                             .bits_per_filter = 1 << 18,
                             .hashes = 2,
                             .window_accesses = 65'536};
  return cfg;
}

ssd::SsdResults ExperimentHarness::run(const CellSpec& cell) const {
  ssd::SsdConfig cfg = drive_config(cell.scheme, cell.pe_cycles);
  cfg.age_model = cell.age_model;
  if (cell.pool_override_pages > 0) {
    cfg.access_eval.pool_capacity_pages = cell.pool_override_pages;
  }
  if (!cell.collect_metrics && !cell.collect_spans) {
    return run_with(std::move(cfg), cell.workload, cell.requests_override);
  }
  telemetry::Telemetry telemetry;
  telemetry.pid = cell.telemetry_pid;
  telemetry.trace = cell.collect_spans;
  return run_with(std::move(cfg), cell.workload, cell.requests_override,
                  &telemetry);
}

ssd::SsdResults ExperimentHarness::run_with(
    ssd::SsdConfig cfg, trace::Workload workload,
    std::uint64_t requests_override, telemetry::Telemetry* telemetry) const {
  const auto start = std::chrono::steady_clock::now();
  trace::WorkloadParams params = trace::workload_params(workload);
  if (requests_override > 0) params.requests = requests_override;
  // The drive is scaled to 1/8 of the paper's chip count; scale the arrival
  // rate with it so array utilisation (and hence queueing) matches what the
  // full-size drive would see.
  params.iops *= 0.45;
  const auto requests = trace::generate(params, /*seed=*/2015);
  // Warm up on the first third of the trace (hotness filters, pool,
  // buffer), then measure steady state on the remainder.
  trace::VectorSource source(requests);
  const std::uint64_t warmup = requests.size() / 3;
  return run_source(std::move(cfg), source, warmup, requests.size() - warmup,
                    telemetry, start);
}

ssd::SsdResults ExperimentHarness::run_open_loop(
    ssd::SsdConfig cfg, const workload::EngineConfig& engine,
    std::uint64_t warmup_requests, std::uint64_t measure_requests,
    telemetry::Telemetry* telemetry) const {
  const auto start = std::chrono::steady_clock::now();
  if (const Status status = engine.Validate(); !status.ok()) {
    std::fprintf(stderr, "bench workload rejected: %s\n",
                 status.to_string().c_str());
    std::exit(EXIT_FAILURE);
  }
  // One continuous arrival stream: the engine's arrival clock carries
  // straight from the warmup window into the measured one.
  workload::WorkloadEngine source(engine);
  return run_source(std::move(cfg), source, warmup_requests,
                    measure_requests, telemetry, start);
}

ssd::SsdResults ExperimentHarness::run_source(
    ssd::SsdConfig cfg, trace::RequestSource& source,
    std::uint64_t warmup_requests, std::uint64_t measure_requests,
    telemetry::Telemetry* telemetry,
    std::chrono::steady_clock::time_point start) const {
  // Builder path: a bad configuration surfaces its Status message and a
  // clean nonzero exit — every bench front-end funnels through here.
  auto built = ssd::SsdSimulator::Builder(*normal_, *reduced_)
                   .config(std::move(cfg))
                   .Build();
  if (!built.ok()) {
    std::fprintf(stderr, "bench configuration rejected: %s\n",
                 built.status().to_string().c_str());
    std::exit(EXIT_FAILURE);
  }
  ssd::SsdSimulator& sim = **built;
  // The drive carries a realistic standing population (80% of the logical
  // space mapped): high enough that reduced-state storage genuinely eats
  // into over-provisioning headroom, low enough that the resulting GC
  // remains serviceable by the chip array.
  sim.prefill(sim.ftl().logical_pages() * 4 / 5);
  // The warmup window primes hotness filters, pool and write buffer. Its
  // backlog drains before measurement, so measured latencies start from a
  // defined point instead of inheriting warmup queue debt.
  if (warmup_requests > 0) sim.run_open_loop(source, warmup_requests);
  sim.reset_measurements();
  // Telemetry attaches after warmup (deliberately not via the Builder) so
  // metrics and spans cover exactly the measured window. Observation-only:
  // results are bit-identical with or without it.
  if (telemetry) sim.attach_telemetry(telemetry);
  sim.run_open_loop(source, measure_requests);
  ssd::SsdResults results = sim.results();
  results.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return results;
}

std::vector<ssd::SsdResults> run_cells(const ExperimentHarness& harness,
                                       const std::vector<CellSpec>& cells,
                                       int jobs) {
  return run_indexed(
      cells.size(),
      [&](std::size_t i) { return harness.run(cells[i]); }, jobs);
}

void parse_path_flags(int* argc, char** argv,
                      std::initializer_list<PathFlag> flags) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    bool consumed = false;
    for (const auto& [flag, dest] : flags) {
      const std::size_t len = std::strlen(flag);
      const char* value = nullptr;
      if (std::strcmp(argv[i], flag) == 0) {
        value = i + 1 < *argc ? argv[++i] : "";
      } else if (std::strncmp(argv[i], flag, len) == 0 &&
                 argv[i][len] == '=') {
        value = argv[i] + len + 1;
      }
      if (value == nullptr) continue;
      if (*value == '\0') {
        std::fprintf(stderr, "usage error: %s expects a path, got \"\"\n",
                     flag);
        std::exit(2);
      }
      *dest = value;
      consumed = true;
      break;
    }
    if (!consumed) argv[out++] = argv[i];
  }
  *argc = out;
}

OutputOptions parse_outputs(int* argc, char** argv) {
  OutputOptions options;
  parse_path_flags(argc, argv,
                   {{"--trace-out", &options.trace_out},
                    {"--metrics-out", &options.metrics_out},
                    {"--bench-out", &options.bench_out}});
  return options;
}

std::string cell_label(const CellSpec& cell) {
  return trace::workload_name(cell.workload) + "/" +
         ssd::scheme_name(cell.scheme) + "/pe" +
         std::to_string(cell.pe_cycles);
}

void write_trace_file(const std::string& path,
                      const std::vector<RunLabel>& runs,
                      const std::vector<ssd::SsdResults>& results) {
  std::vector<telemetry::Span> spans;
  std::vector<telemetry::TrackLabel> labels;
  std::set<std::pair<std::int32_t, std::int32_t>> tracks;
  for (std::size_t i = 0; i < runs.size() && i < results.size(); ++i) {
    if (results[i].spans.empty()) continue;
    labels.push_back(
        {.pid = runs[i].pid, .thread = false, .name = runs[i].label});
    for (const telemetry::Span& span : results[i].spans) {
      spans.push_back(span);
      tracks.emplace(span.pid, span.tid);
    }
  }
  for (const auto& [pid, tid] : tracks) {
    telemetry::TrackLabel label{.pid = pid, .tid = tid, .thread = true};
    if (tid == telemetry::kHostTrack) {
      label.name = "host";
    } else if (tid == telemetry::kFtlTrack) {
      label.name = "ftl";
    } else {
      label.name = "chip " + std::to_string(tid);
    }
    labels.push_back(std::move(label));
  }
  std::ofstream out(path);
  telemetry::write_chrome_trace(out, spans, labels);
}

void write_trace_file(const std::string& path,
                      const std::vector<CellSpec>& cells,
                      const std::vector<ssd::SsdResults>& results) {
  std::vector<RunLabel> runs;
  runs.reserve(cells.size());
  for (const CellSpec& cell : cells) {
    runs.push_back({cell_label(cell), cell.telemetry_pid});
  }
  write_trace_file(path, runs, results);
}

void write_metrics_file(const std::string& path,
                        const std::vector<RunLabel>& runs,
                        const std::vector<ssd::SsdResults>& results) {
  std::ofstream out(path);
  telemetry::MetricsSnapshot merged;
  for (std::size_t i = 0; i < runs.size() && i < results.size(); ++i) {
    if (results[i].metrics.empty()) continue;
    telemetry::write_metrics_jsonl(out, runs[i].label, results[i].metrics);
    // Index-order fold: deterministic whatever --jobs produced them.
    merged.merge(results[i].metrics);
  }
  if (!merged.empty()) {
    telemetry::write_metrics_jsonl(out, "_merged", merged);
  }
}

void write_metrics_file(const std::string& path,
                        const std::vector<CellSpec>& cells,
                        const std::vector<ssd::SsdResults>& results) {
  std::vector<RunLabel> runs;
  runs.reserve(cells.size());
  for (const CellSpec& cell : cells) {
    runs.push_back({cell_label(cell), cell.telemetry_pid});
  }
  write_metrics_file(path, runs, results);
}

namespace {

/// Shared preamble of both BENCH_*.json shapes: bench identity, git SHA
/// and the drive geometry. `rows` names the row array that follows
/// ("cells" or "runs").
void write_bench_preamble(std::ofstream& out, const std::string& bench,
                          std::uint64_t requests_override, int jobs,
                          const char* rows) {
  using telemetry::format_double;
  using telemetry::json_escape;
  const ssd::SsdConfig cfg =
      ExperimentHarness::drive_config(ssd::Scheme::kLdpcInSsd, 6000);
  out << "{\n\"bench\":\"" << json_escape(bench) << "\",\n"
      << "\"git_sha\":\"" << json_escape(FLEX_GIT_SHA) << "\",\n"
      << "\"config\":{"
      << "\"chips\":" << cfg.ftl.spec.chips
      << ",\"blocks_per_chip\":" << cfg.ftl.spec.blocks_per_chip
      << ",\"pages_per_block\":" << cfg.ftl.spec.pages_per_block
      << ",\"page_size_bytes\":" << cfg.ftl.spec.page_size_bytes
      << ",\"over_provisioning\":"
      << format_double(cfg.ftl.over_provisioning)
      << ",\"requests_override\":" << requests_override
      << ",\"jobs\":" << jobs << "},\n\"" << rows << "\":[";
}

}  // namespace

void write_bench_json(const std::string& path, const std::string& bench,
                      std::uint64_t requests_override, int jobs,
                      const std::vector<CellSpec>& cells,
                      const std::vector<ssd::SsdResults>& results) {
  using telemetry::format_double;
  using telemetry::json_escape;
  std::ofstream out(path);
  write_bench_preamble(out, bench, requests_override, jobs, "cells");
  for (std::size_t i = 0; i < cells.size() && i < results.size(); ++i) {
    const CellSpec& cell = cells[i];
    const ssd::SsdResults& r = results[i];
    const ssd::ReadBreakdown& b = r.read_breakdown;
    const double total = static_cast<double>(b.total());
    out << (i == 0 ? "\n" : ",\n") << "{\"workload\":\""
        << json_escape(trace::workload_name(cell.workload))
        << "\",\"scheme\":\"" << json_escape(ssd::scheme_name(cell.scheme))
        << "\",\"pe_cycles\":" << cell.pe_cycles << ",\"age_model\":\""
        << (cell.age_model == ssd::AgeModel::kStaticPerLba ? "static"
                                                           : "physical")
        << "\",\"requests\":" << r.all_response.count()
        << ",\"reads\":" << r.read_response.count()
        << ",\"writes\":" << r.write_response.count()
        << ",\"all_mean_s\":" << format_double(r.all_response.mean())
        << ",\"read_mean_s\":" << format_double(r.read_response.mean())
        << ",\"read_p99_s\":"
        << format_double(r.read_latency_hist.quantile(0.99))
        << ",\"read_total_s\":" << format_double(r.read_response.sum())
        << ",\"wall_clock_s\":" << format_double(r.wall_seconds)
        << ",\"breakdown_s\":{";
    const std::pair<const char*, Duration> parts[] = {
        {"queue_wait", b.queue_wait},
        {"sensing", b.sensing},
        {"transfer", b.transfer},
        {"decode", b.decode},
        {"buffer", b.buffer}};
    for (std::size_t p = 0; p < std::size(parts); ++p) {
      out << (p == 0 ? "" : ",") << '"' << parts[p].first
          << "\":" << format_double(to_seconds(parts[p].second));
    }
    out << "},\"breakdown_share\":{";
    for (std::size_t p = 0; p < std::size(parts); ++p) {
      const double share =
          total > 0.0 ? static_cast<double>(parts[p].second) / total : 0.0;
      out << (p == 0 ? "" : ",") << '"' << parts[p].first
          << "\":" << format_double(share);
    }
    out << "}}";
  }
  out << "\n]}\n";
}

void write_bench_json(const std::string& path, const std::string& bench,
                      std::uint64_t requests_override, int jobs,
                      const std::vector<RunLabel>& runs,
                      const std::vector<ssd::SsdResults>& results) {
  using telemetry::format_double;
  using telemetry::json_escape;
  std::ofstream out(path);
  write_bench_preamble(out, bench, requests_override, jobs, "runs");
  for (std::size_t i = 0; i < runs.size() && i < results.size(); ++i) {
    const ssd::SsdResults& r = results[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"label\":\""
        << json_escape(runs[i].label) << '"'
        << ",\"requests\":" << r.all_response.count()
        << ",\"reads\":" << r.read_response.count()
        << ",\"writes\":" << r.write_response.count()
        << ",\"read_mean_s\":" << format_double(r.read_response.mean())
        << ",\"read_p99_s\":"
        << format_double(r.read_latency_hist.quantile(0.99))
        << ",\"read_p999_s\":"
        << format_double(r.read_latency_hist.quantile(0.999))
        << ",\"write_mean_s\":" << format_double(r.write_response.mean())
        << ",\"admission_rejected\":" << r.admission_rejected
        << ",\"request_slots_high_water\":" << r.qos_request_slots_high_water
        << ",\"pending_high_water\":" << r.qos_pending_high_water
        << ",\"background_deferrals\":" << r.background_deferrals
        << ",\"fairness_overrides\":" << r.fairness_overrides
        << ",\"wall_clock_s\":" << format_double(r.wall_seconds)
        << ",\"tenants\":[";
    for (std::size_t t = 0; t < r.tenant.size(); ++t) {
      const ssd::TenantStats& ts = r.tenant[t];
      out << (t == 0 ? "" : ",")
          << "{\"reads\":" << ts.read_response.count()
          << ",\"writes\":" << ts.write_response.count()
          << ",\"read_mean_s\":" << format_double(ts.read_response.mean())
          << ",\"read_p99_s\":"
          << format_double(ts.read_latency_hist.quantile(0.99))
          << ",\"read_p999_s\":"
          << format_double(ts.read_latency_hist.quantile(0.999))
          << ",\"write_mean_s\":" << format_double(ts.write_response.mean())
          << ",\"rejected\":" << ts.admission_rejected << '}';
    }
    out << "]}";
  }
  out << "\n]}\n";
}

std::optional<int> parse_jobs_value(const char* text) {
  const std::optional<std::uint64_t> value =
      parse_count_value(text, std::numeric_limits<int>::max());
  if (!value.has_value()) return std::nullopt;
  return static_cast<int>(*value);
}

std::uint64_t positional_count(int argc, char** argv, int index,
                               const char* name, std::uint64_t fallback,
                               std::uint64_t max) {
  if (index >= argc) return fallback;
  const std::optional<std::uint64_t> value = parse_count_value(argv[index], max);
  if (!value.has_value()) {
    std::fprintf(stderr,
                 "usage error: positional argument %d (%s) expects a count "
                 "(decimal digits only), got \"%s\"\n",
                 index, name, argv[index]);
    std::exit(2);
  }
  return *value;
}

namespace {

/// Parses a --jobs / FLEX_BENCH_JOBS value or exits with a usage error.
int jobs_or_exit(const char* source, const char* text) {
  const std::optional<int> jobs = parse_jobs_value(text);
  if (!jobs.has_value()) {
    std::fprintf(stderr,
                 "usage error: %s expects a job count (a non-negative "
                 "integer, 0 = one per hardware thread), got \"%s\"\n",
                 source, text);
    std::exit(2);
  }
  return *jobs;
}

}  // namespace

int parse_jobs(int* argc, char** argv) {
  int jobs = 1;
  if (const char* env = std::getenv("FLEX_BENCH_JOBS")) {
    jobs = jobs_or_exit("FLEX_BENCH_JOBS", env);
  }
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 ||
        std::strcmp(argv[i], "-j") == 0) {
      const char* const flag = argv[i];
      jobs = jobs_or_exit(flag, i + 1 < *argc ? argv[++i] : "");
      continue;
    }
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = jobs_or_exit("--jobs", argv[i] + 7);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  return jobs;
}

}  // namespace flex::bench
