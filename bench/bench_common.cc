#include "bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include <sys/resource.h>
#include <unistd.h>

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

/// Whether a file could be created at `path`: its directory exists and is
/// writable, and `path` itself is not a directory.
bool writable_path(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) return false;
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  return fs::is_directory(dir, ec) && ::access(dir.c_str(), W_OK | X_OK) == 0;
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

ssd::SsdResults ExperimentHarness::run(const CellSpec& cell,
                                       telemetry::Telemetry* telemetry) const {
  ssd::SsdConfig cfg = drive_config(cell.scheme, cell.pe_cycles);
  cfg.age_model = cell.age_model;
  if (cell.pool_override_pages > 0) {
    cfg.access_eval.pool_capacity_pages = cell.pool_override_pages;
  }
  return run_with(std::move(cfg), cell.workload, cell.requests_override,
                  telemetry);
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
  const auto measure_start = std::chrono::steady_clock::now();
  sim.run_open_loop(source, measure_requests);
  const auto end = std::chrono::steady_clock::now();
  ssd::SsdResults results = sim.results();
  results.wall_seconds = std::chrono::duration<double>(end - start).count();
  results.measured_wall_seconds =
      std::chrono::duration<double>(end - measure_start).count();
  return results;
}

std::vector<ssd::SsdResults> run_cells(const ExperimentHarness& harness,
                                       const std::vector<CellSpec>& cells,
                                       int jobs) {
  return run_indexed(
      cells.size(),
      [&](std::size_t i) { return harness.run(cells[i]); }, jobs);
}

std::string cell_label(const CellSpec& cell) {
  return trace::workload_name(cell.workload) + "/" +
         ssd::scheme_name(cell.scheme) + "/pe" +
         std::to_string(cell.pe_cycles);
}

std::optional<int> parse_jobs_value(const char* text) {
  const std::optional<std::uint64_t> value =
      parse_count_value(text, std::numeric_limits<int>::max());
  if (!value.has_value()) return std::nullopt;
  return static_cast<int>(*value);
}

Cli::Cli(int argc, const char* const* argv,
         std::initializer_list<Positional> positionals,
         std::initializer_list<std::string_view> path_flags) {
  const auto fail = [](const std::string& message) {
    std::fprintf(stderr, "usage error: %s\n", message.c_str());
    std::exit(2);
  };
  const auto jobs_or_fail = [&](std::string_view source, const char* text) {
    const std::optional<int> jobs = parse_jobs_value(text);
    if (!jobs.has_value()) {
      fail(std::string(source) +
           " expects a job count (a non-negative integer, 0 = one per "
           "hardware thread), got \"" + text + "\"");
    }
    return *jobs;
  };
  if (const char* env = std::getenv("FLEX_BENCH_JOBS")) {
    jobs_ = jobs_or_fail("FLEX_BENCH_JOBS", env);
  }
  for (const std::string_view flag : path_flags) paths_.emplace_back(flag, "");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // `--flag VALUE` takes the next argument ("" when there is none);
    // `--flag=VALUE` carries its own.
    const auto value_of = [&](std::string_view flag) -> const char* {
      if (arg == flag) return i + 1 < argc ? argv[++i] : "";
      if (arg.size() > flag.size() && arg.starts_with(flag) &&
          arg[flag.size()] == '=') {
        return argv[i] + flag.size() + 1;
      }
      return nullptr;
    };
    if (const char* value = value_of("--jobs")) {
      jobs_ = jobs_or_fail("--jobs", value);
      continue;
    }
    if (arg == "-j") {
      jobs_ = jobs_or_fail("-j", i + 1 < argc ? argv[++i] : "");
      continue;
    }
    bool taken = false;
    for (auto& [flag, dest] : paths_) {
      const char* value = value_of(flag);
      if (value == nullptr) continue;
      if (*value == '\0') {
        fail(std::string(flag) + " expects a path, got \"\"");
      }
      dest = value;
      taken = true;
      break;
    }
    if (taken) continue;
    if (arg.size() > 1 && arg.front() == '-') {
      fail("unknown flag \"" + std::string(arg) + "\"");
    }
    const std::size_t index = counts_.size();
    if (index >= positionals.size()) {
      fail("unexpected argument \"" + std::string(arg) + "\" (takes " +
           std::to_string(positionals.size()) + " positional argument" +
           (positionals.size() == 1 ? "" : "s") + ")");
    }
    const Positional& positional = positionals.begin()[index];
    const std::optional<std::uint64_t> value =
        parse_count_value(argv[i], positional.max);
    if (!value.has_value()) {
      fail("positional argument " + std::to_string(index + 1) + " (" +
           positional.name +
           ") expects a count (decimal digits only), got \"" +
           std::string(arg) + "\"");
    }
    counts_.push_back(*value);
  }
  for (std::size_t i = counts_.size(); i < positionals.size(); ++i) {
    counts_.push_back(positionals.begin()[i].fallback);
  }
  // An output that cannot be written fails here, before any cell runs,
  // with the message write_file() would print after the sweep. Without
  // --bench-out, BENCH_<name>.json goes into the current directory.
  for (const auto& [flag, path] : paths_) {
    const std::string target =
        path.empty() && flag == kBenchOut ? "BENCH_*.json" : path;
    if (!target.empty() && !writable_path(target)) {
      std::fprintf(stderr, "cannot write %s\n", target.c_str());
      std::exit(EXIT_FAILURE);
    }
  }
}

const std::string& Cli::path(std::string_view flag) const {
  static const std::string kNone;
  for (const auto& [name, value] : paths_) {
    if (name == flag) return value;
  }
  return kNone;
}

std::string Cli::bench_out(const std::string& bench) const {
  const std::string& path = this->path(kBenchOut);
  return path.empty() ? "BENCH_" + bench + ".json" : path;
}

void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream out(path);
  if (out) body(out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(EXIT_FAILURE);
  }
}

void write_sweep_files(const Cli& cli, const std::vector<std::string>& labels,
                       const std::vector<ssd::SsdResults>& results) {
  if (const std::string& path = cli.path(kTraceOut); !path.empty()) {
    std::vector<telemetry::Span> spans;
    std::vector<telemetry::TrackLabel> tracks;
    std::set<std::pair<std::int32_t, std::int32_t>> threads;
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (results[i].spans.empty()) continue;
      tracks.push_back({.pid = static_cast<std::int32_t>(i + 1),
                        .thread = false,
                        .name = labels[i]});
      for (const telemetry::Span& span : results[i].spans) {
        spans.push_back(span);
        threads.emplace(span.pid, span.tid);
      }
    }
    for (const auto& [pid, tid] : threads) {
      tracks.push_back({.pid = pid,
                        .tid = tid,
                        .thread = true,
                        .name = tid == telemetry::kHostTrack  ? "host"
                                : tid == telemetry::kFtlTrack ? "ftl"
                                : "chip " + std::to_string(tid)});
    }
    write_file(path, [&](std::ostream& out) {
      telemetry::write_chrome_trace(out, spans, tracks);
    });
  }
  if (const std::string& path = cli.path(kMetricsOut); !path.empty()) {
    write_file(path, [&](std::ostream& out) {
      telemetry::MetricsSnapshot merged;
      for (std::size_t i = 0; i < labels.size(); ++i) {
        if (results[i].metrics.empty()) continue;
        telemetry::write_metrics_jsonl(out, labels[i], results[i].metrics);
        // Index-order fold: deterministic whatever --jobs produced them.
        merged.merge(results[i].metrics);
      }
      if (!merged.empty()) {
        telemetry::write_metrics_jsonl(out, "_merged", merged);
      }
    });
  }
}

std::vector<ssd::SsdResults> run_cell_sweep(
    const Cli& cli, const ExperimentHarness& harness,
    const std::vector<CellSpec>& cells) {
  std::vector<std::string> labels;
  for (const CellSpec& cell : cells) labels.push_back(cell_label(cell));
  return run_sweep(cli, labels,
                   [&](std::size_t i, telemetry::Telemetry* telemetry) {
                     return harness.run(cells[i], telemetry);
                   });
}

void JsonWriter::open_slot(std::string_view key) {
  if (stack_.empty()) return;
  Frame& parent = stack_.back();
  if (!parent.empty) out_ << ',';
  parent.empty = false;
  if (parent.rows) out_ << '\n';
  if (!key.empty()) out_ << '"' << telemetry::json_escape(key) << "\":";
}

JsonWriter& JsonWriter::open(std::string_view key, bool array) {
  open_slot(key);
  out_ << (array ? '[' : '{');
  // Row layout: the root's members, and the items of its array members.
  const bool rows =
      rows_ && (stack_.empty() || (stack_.size() == 1 && array));
  stack_.push_back({.array = array, .empty = true, .rows = rows});
  return *this;
}

JsonWriter& JsonWriter::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.rows && !frame.empty) out_ << '\n';
  out_ << (frame.array ? ']' : '}');
  if (stack_.empty()) out_ << '\n';
  return *this;
}

void write_bench_file(const Cli& cli, const std::string& bench,
                      std::uint64_t requests_override,
                      const std::function<void(JsonWriter&)>& body) {
  const ssd::SsdConfig cfg =
      ExperimentHarness::drive_config(ssd::Scheme::kLdpcInSsd, 6000);
  // The process's resource use up to the artifact write (all its runs):
  // machine-dependent like the walls, so no gate reads it.
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  write_file(cli.bench_out(bench), [&](std::ostream& out) {
    JsonWriter json(out, /*rows=*/true);
    json.begin_object()
        .field("bench", bench)
        .field("git_sha", FLEX_GIT_SHA)
        .field("jobs", cli.jobs())
        .field("hardware_concurrency", std::thread::hardware_concurrency())
        .field("peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0)
        .field("user_cpu_s",
               static_cast<double>(usage.ru_utime.tv_sec) +
                   static_cast<double>(usage.ru_utime.tv_usec) / 1e6)
        .begin_object("config")
        .field("chips", cfg.ftl.spec.chips)
        .field("blocks_per_chip", cfg.ftl.spec.blocks_per_chip)
        .field("pages_per_block", cfg.ftl.spec.pages_per_block)
        .field("page_size_bytes", cfg.ftl.spec.page_size_bytes)
        .field("over_provisioning", cfg.ftl.over_provisioning)
        .field("requests_override", requests_override)
        .end();
    body(json);
    json.end();
  });
}

std::optional<double> serial_wall(const Cli& cli, double seconds) {
  if (cli.jobs() != 1) return std::nullopt;
  return seconds;
}

void write_bench_json(const Cli& cli, const std::string& bench,
                      std::uint64_t requests_override,
                      const std::vector<CellSpec>& cells,
                      const std::vector<ssd::SsdResults>& results) {
  write_bench_file(cli, bench, requests_override, [&](JsonWriter& json) {
    json.begin_array("cells");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellSpec& cell = cells[i];
      const ssd::SsdResults& r = results[i];
      const ssd::ReadBreakdown& b = r.read_breakdown;
      json.begin_object()
          .field("workload", trace::workload_name(cell.workload))
          .field("scheme", ssd::scheme_name(cell.scheme))
          .field("pe_cycles", cell.pe_cycles)
          .field("age_model", cell.age_model == ssd::AgeModel::kStaticPerLba
                                  ? "static"
                                  : "physical")
          .field("requests", r.all_response.count())
          .field("reads", r.read_response.count())
          .field("writes", r.write_response.count())
          .field("all_mean_s", r.all_response.mean())
          .field("read_mean_s", r.read_response.mean())
          .field("read_p99_s", r.read_latency_hist.quantile(0.99))
          .field("read_total_s", r.read_response.sum())
          .field("wall_clock_s", serial_wall(cli, r.wall_seconds));
      const std::pair<const char*, Duration> parts[] = {
          {"queue_wait", b.queue_wait},
          {"sensing", b.sensing},
          {"transfer", b.transfer},
          {"decode", b.decode},
          {"buffer", b.buffer}};
      json.begin_object("breakdown_s");
      for (const auto& [name, part] : parts) {
        json.field(name, to_seconds(part));
      }
      json.end().begin_object("breakdown_share");
      const double total = static_cast<double>(b.total());
      for (const auto& [name, part] : parts) {
        json.field(name,
                   total > 0.0 ? static_cast<double>(part) / total : 0.0);
      }
      json.end().end();
    }
    json.end();
  });
}

void write_bench_json(const Cli& cli, const std::string& bench,
                      std::uint64_t requests_override,
                      const std::vector<std::string>& labels,
                      const std::vector<ssd::SsdResults>& results) {
  write_bench_file(cli, bench, requests_override, [&](JsonWriter& json) {
    json.begin_array("runs");
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const ssd::SsdResults& r = results[i];
      json.begin_object()
          .field("label", labels[i])
          .field("requests", r.all_response.count())
          .field("reads", r.read_response.count())
          .field("writes", r.write_response.count())
          .field("read_mean_s", r.read_response.mean())
          .field("read_p99_s", r.read_latency_hist.quantile(0.99))
          .field("read_p999_s", r.read_latency_hist.quantile(0.999))
          .field("write_mean_s", r.write_response.mean())
          .field("admission_rejected", r.admission_rejected)
          .field("request_slots_high_water", r.qos_request_slots_high_water)
          .field("pending_high_water", r.qos_pending_high_water)
          .field("background_deferrals", r.background_deferrals)
          .field("fairness_overrides", r.fairness_overrides)
          .field("wall_clock_s", serial_wall(cli, r.wall_seconds))
          .begin_array("tenants");
      for (const ssd::TenantStats& ts : r.tenant) {
        json.begin_object()
            .field("reads", ts.read_response.count())
            .field("writes", ts.write_response.count())
            .field("read_mean_s", ts.read_response.mean())
            .field("read_p99_s", ts.read_latency_hist.quantile(0.99))
            .field("read_p999_s", ts.read_latency_hist.quantile(0.999))
            .field("write_mean_s", ts.write_response.mean())
            .field("rejected", ts.admission_rejected)
            .end();
      }
      json.end().end();
    }
    json.end();
  });
}

}  // namespace flex::bench
