// Shared harness for the system-level benches (Fig. 6(a)/(b), Fig. 7,
// pool-size ablation): builds the scaled drive, the per-mode BER models,
// and runs (workload, scheme, P/E) combinations — serially or fanned
// across a thread pool (`--jobs N` / FLEX_BENCH_JOBS). Parallelism is safe
// because each cell owns its simulator and shares only the const
// BerModels; results are deterministic and independent of the job count.
//
// Scaling note (documented in EXPERIMENTS.md): the paper simulates a
// 256 GB drive; we keep Table 6's page/block geometry and timing but shrink
// the chip count so a full 7-workload x 4-scheme sweep runs in seconds.
// Over-provisioning (27%), the ReducedCell pool share (64 GB / 256 GB =
// 25% of capacity) and all latency parameters are preserved as ratios.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/count.h"
#include "common/parallel.h"
#include "reliability/ber_model.h"
#include "ssd/simulator.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "trace/workloads.h"
#include "workload/engine.h"

namespace flex::bench {

/// One independent experiment cell of a sweep.
struct CellSpec {
  trace::Workload workload = trace::Workload::kFin2;
  ssd::Scheme scheme = ssd::Scheme::kLdpcInSsd;
  int pe_cycles = 6000;
  /// 0 = use the workload default request count.
  std::uint64_t requests_override = 0;
  ssd::AgeModel age_model = ssd::AgeModel::kStaticPerLba;
  /// 0 = keep the drive default ReducedCell pool size.
  std::uint64_t pool_override_pages = 0;
};

class ExperimentHarness {
 public:
  /// Builds the BER models (one-off Monte-Carlo inside).
  ExperimentHarness();

  /// Runs one cell: its workload under its scheme at its pre-aged P/E
  /// count. `requests_override` (0 = use the workload default) trims
  /// runtime for sweeps; `age_model` selects between the paper's static
  /// per-LBA storage-time axis (its Fig. 6 setting) and physically tracked
  /// per-page ages. Thread-safe: the shared BerModels are immutable and
  /// every run owns its simulator. `telemetry` is as for run_with().
  ssd::SsdResults run(const CellSpec& cell,
                      telemetry::Telemetry* telemetry = nullptr) const;

  /// Runs an arbitrary SsdConfig under the harness methodology (scaled
  /// arrival rate, standing population, preconditioning, a warmup pass on
  /// the trace's first third).
  /// `telemetry` (optional) is attached for the measured pass only, so
  /// its metrics and spans cover exactly the measurement window.
  ssd::SsdResults run_with(ssd::SsdConfig config, trace::Workload workload,
                           std::uint64_t requests_override = 0,
                           telemetry::Telemetry* telemetry = nullptr) const;

  /// Open-loop analogue of run_with(): drives an arbitrary SsdConfig from
  /// a workload-engine arrival stream instead of a pre-generated trace.
  /// The same methodology applies — 80% standing population, a warmup
  /// window (the engine's stream continues seamlessly into the measured
  /// window, so queues stay primed), measurements reset in between and
  /// telemetry attached for the measured pass only. `warmup_requests` /
  /// `measure_requests` bound the two windows (measure_requests must be
  /// nonzero; an open loop never drains on its own).
  ssd::SsdResults run_open_loop(ssd::SsdConfig config,
                                const workload::EngineConfig& engine,
                                std::uint64_t warmup_requests,
                                std::uint64_t measure_requests,
                                telemetry::Telemetry* telemetry
                                  = nullptr) const;

  const reliability::BerModel& normal_model() const { return *normal_; }
  const reliability::BerModel& reduced_model() const { return *reduced_; }

  /// Drive geometry shared by every scheme run.
  static ssd::SsdConfig drive_config(ssd::Scheme scheme, int pe_cycles);

 private:
  /// The one run body behind run_with() and run_open_loop(): Build (or
  /// exit with the rejection), 80% standing population, `warmup_requests`
  /// from `source` (none when 0), reset measurements, attach `telemetry`,
  /// then `measure_requests` more (0 = until the source ends), with the
  /// wall time stamped since `start`.
  ssd::SsdResults run_source(ssd::SsdConfig cfg, trace::RequestSource& source,
                             std::uint64_t warmup_requests,
                             std::uint64_t measure_requests,
                             telemetry::Telemetry* telemetry,
                             std::chrono::steady_clock::time_point start)
      const;

  // unique_ptrs because BerModel is neither copyable nor default-
  // constructible (it owns a one-off Monte-Carlo calibration).
  std::unique_ptr<reliability::BerModel> normal_;
  std::unique_ptr<reliability::BerModel> reduced_;
};

/// Runs `count` independent experiments on flex::parallel_for's pool
/// (`jobs` as there). `runner(i)` must be safe to call from any thread and
/// return a default-constructible result; results come back in index
/// order regardless of completion order, so output is identical to a
/// serial sweep.
template <typename Runner>
auto run_indexed(std::size_t count, const Runner& runner, int jobs)
    -> std::vector<std::invoke_result_t<const Runner&, std::size_t>> {
  std::vector<std::invoke_result_t<const Runner&, std::size_t>> results(
      count);
  // Runs are independent (each owns its simulator; shared inputs are
  // const), so any assignment of indices to threads yields the same
  // per-index results.
  parallel_for(count, jobs,
               [&](std::size_t i) { results[i] = runner(i); });
  return results;
}

/// Fans a list of cells across `jobs` threads (see run_indexed).
std::vector<ssd::SsdResults> run_cells(const ExperimentHarness& harness,
                                       const std::vector<CellSpec>& cells,
                                       int jobs);

/// "workload/scheme/peNNNN" identity of a cell (trace process names,
/// metrics line tags, bench JSON rows).
std::string cell_label(const CellSpec& cell);

// --- Command line ---------------------------------------------------------

/// The output flags a bench may take, each spelled `--flag PATH` or
/// `--flag=PATH`.
inline constexpr std::string_view kTraceOut = "--trace-out";
inline constexpr std::string_view kMetricsOut = "--metrics-out";
inline constexpr std::string_view kBenchOut = "--bench-out";

/// One positional count argument: its name in usage errors, the value
/// when it is absent, and its cap.
struct Positional {
  const char* name;
  std::uint64_t fallback;
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

/// The one bench front end. Every bench takes `--jobs N` (also `-j N` and
/// `--jobs=N`; the FLEX_BENCH_JOBS environment variable when the flag is
/// absent; default 1, 0 = one job per hardware thread), the path flags
/// it names, and up to one count per positional it names. Anything else
/// (an unknown flag, a surplus positional, a malformed count, a flag
/// without its value) prints a usage error and exits with status 2. A
/// path flag whose directory is missing or not writable (and, for a bench
/// taking --bench-out without it, a current directory that is not
/// writable) prints "cannot write PATH" and exits with status 1 before
/// the bench runs anything.
/// The flag names are kept as views: pass literals or the k*Out constants.
class Cli {
 public:
  Cli(int argc, const char* const* argv,
      std::initializer_list<Positional> positionals = {},
      std::initializer_list<std::string_view> path_flags = {});

  int jobs() const { return jobs_; }

  /// Positional `index` (0-based), or its fallback when absent.
  std::uint64_t count(std::size_t index) const { return counts_.at(index); }

  /// The value of path flag `flag`; empty when it was not given.
  const std::string& path(std::string_view flag) const;

  /// Where BENCH_<bench>.json goes: the --bench-out path if given.
  std::string bench_out(const std::string& bench) const;

 private:
  int jobs_ = 1;
  std::vector<std::uint64_t> counts_;
  std::vector<std::pair<std::string_view, std::string>> paths_;
};

/// Parses a job count: parse_count_value() capped at INT_MAX.
std::optional<int> parse_jobs_value(const char* text);

/// The digits-only count rule behind every numeric bench argument
/// (common/count.h).
using flex::parse_count_value;

// --- Sweeps ---------------------------------------------------------------

/// Writes the --trace-out and --metrics-out files of one sweep, if asked
/// for: run i's spans under a process track named labels[i] (Chrome pid
/// i + 1), and its metrics snapshot tagged labels[i], followed by the
/// index-order fold of every snapshot tagged "_merged" (the deterministic
/// merge that must not depend on --jobs).
void write_sweep_files(const Cli& cli, const std::vector<std::string>& labels,
                       const std::vector<ssd::SsdResults>& results);

/// Runs `body(i, telemetry)` for every run i of `labels` across
/// cli.jobs() threads (see run_indexed), then writes the sweep's trace
/// and metrics files. `telemetry` is null unless --trace-out or
/// --metrics-out was given; then each run gets its own context, with
/// Chrome pid i + 1, recording spans iff --trace-out was given.
/// Telemetry only observes: the results are identical either way.
template <typename Body>
std::vector<ssd::SsdResults> run_sweep(const Cli& cli,
                                       const std::vector<std::string>& labels,
                                       const Body& body) {
  const bool trace = !cli.path(kTraceOut).empty();
  const bool collect = trace || !cli.path(kMetricsOut).empty();
  auto results = run_indexed(
      labels.size(),
      [&](std::size_t i) -> ssd::SsdResults {
        if (!collect) return body(i, nullptr);
        telemetry::Telemetry telemetry;
        telemetry.pid = static_cast<std::int32_t>(i + 1);
        telemetry.trace = trace;
        return body(i, &telemetry);
      },
      cli.jobs());
  write_sweep_files(cli, labels, results);
  return results;
}

/// run_sweep() over `cells`, each run labelled by cell_label().
std::vector<ssd::SsdResults> run_cell_sweep(const Cli& cli,
                                            const ExperimentHarness& harness,
                                            const std::vector<CellSpec>& cells);

// --- Artifacts ------------------------------------------------------------

/// Writes `path` through `body`. A file that cannot be opened or written
/// prints "cannot write PATH" and exits with status 1.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& body);

/// A streaming JSON emitter: objects, arrays and fields, with strings
/// escaped by telemetry::json_escape and doubles printed by
/// telemetry::format_double (shortest round-trip form).
class JsonWriter {
 public:
  /// `rows` puts each member of the root object, and each item of an
  /// array member of the root, on its own line (the BENCH_*.json layout);
  /// otherwise the document is one line (a JSONL record). Either way it
  /// ends with a newline.
  JsonWriter(std::ostream& out, bool rows) : out_(out), rows_(rows) {}

  /// Opens an object or array: the root or an array item when `key` is
  /// empty, else a member of the enclosing object.
  JsonWriter& begin_object(std::string_view key = {}) {
    return open(key, false);
  }
  JsonWriter& begin_array(std::string_view key = {}) {
    return open(key, true);
  }
  /// Closes the innermost open object or array.
  JsonWriter& end();

  /// One member: a string, bool, integer, double or optional double
  /// (std::nullopt prints null).
  template <typename T>
  JsonWriter& field(std::string_view key, const T& value) {
    open_slot(key);
    write_value(value);
    return *this;
  }
  /// One array item.
  template <typename T>
  JsonWriter& item(const T& value) {
    return field({}, value);
  }

 private:
  struct Frame {
    bool array = false;
    bool empty = true;
    bool rows = false;  ///< children each on their own line
  };
  void open_slot(std::string_view key);
  JsonWriter& open(std::string_view key, bool array);

  template <typename T>
  void write_value(const T& value) {
    if constexpr (std::is_same_v<T, bool>) {
      out_ << (value ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      out_ << value;
    } else if constexpr (std::is_floating_point_v<T>) {
      out_ << telemetry::format_double(value);
    } else if constexpr (std::is_same_v<T, std::optional<double>>) {
      if (value.has_value()) {
        write_value(*value);
      } else {
        out_ << "null";
      }
    } else {
      out_ << '"' << telemetry::json_escape(value) << '"';
    }
  }

  std::ostream& out_;
  bool rows_;
  std::vector<Frame> stack_;
};

/// Writes BENCH_<bench>.json (or the --bench-out path): the preamble every
/// artifact shares (bench, git SHA, job count, the machine's hardware
/// threads, the process's getrusage peak RSS in MiB and user CPU seconds,
/// and the scaled drive's config with `requests_override`), then `body`'s
/// members.
void write_bench_file(const Cli& cli, const std::string& bench,
                      std::uint64_t requests_override,
                      const std::function<void(JsonWriter&)>& body);

/// A run's wall-clock seconds for an artifact: only a --jobs 1 wall is
/// recorded (null otherwise), since parallel runs share the CPU.
std::optional<double> serial_wall(const Cli& cli, double seconds);

/// The BENCH_<bench>.json of a CellSpec sweep: per-cell mean/p99/latency-
/// breakdown rows (plus read/write request counts and host wall-clock)
/// under "cells".
void write_bench_json(const Cli& cli, const std::string& bench,
                      std::uint64_t requests_override,
                      const std::vector<CellSpec>& cells,
                      const std::vector<ssd::SsdResults>& results);

/// The BENCH_<bench>.json of a labelled sweep (the QoS and read-threshold
/// ablations): per-run latency/QoS-gauge rows under "runs", each with a
/// "tenants" array carrying per-tenant mean/p99/p999 and admission
/// rejections.
void write_bench_json(const Cli& cli, const std::string& bench,
                      std::uint64_t requests_override,
                      const std::vector<std::string>& labels,
                      const std::vector<ssd::SsdResults>& results);

}  // namespace flex::bench
