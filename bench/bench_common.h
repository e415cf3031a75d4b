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
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/count.h"
#include "reliability/ber_model.h"
#include "ssd/simulator.h"
#include "telemetry/export.h"
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
  /// Attach a telemetry context for the measured pass (warmup excluded);
  /// its snapshot lands in SsdResults::metrics. Observation-only: the
  /// simulated results are bit-identical either way.
  bool collect_metrics = false;
  /// Additionally record per-request spans (implies a metrics context);
  /// they land in SsdResults::spans.
  bool collect_spans = false;
  /// Chrome-trace process id for this cell's spans (one track per cell).
  std::int32_t telemetry_pid = 0;
};

class ExperimentHarness {
 public:
  /// Builds the BER models (one-off Monte-Carlo inside).
  ExperimentHarness();

  /// Runs one workload under one scheme at the given pre-aged P/E count.
  /// `requests_override` (0 = use the workload default) trims runtime for
  /// sweeps. `age_model` selects between the paper's static
  /// per-LBA storage-time axis (its Fig. 6 setting) and physically
  /// tracked per-page ages. Thread-safe: the shared BerModels are
  /// immutable and every run owns its simulator.
  ssd::SsdResults run(trace::Workload workload, ssd::Scheme scheme,
                      int pe_cycles, std::uint64_t requests_override = 0,
                      ssd::AgeModel age_model = ssd::AgeModel::kStaticPerLba,
                      std::uint64_t pool_override_pages = 0) const;

  ssd::SsdResults run(const CellSpec& cell) const;

  /// Runs an arbitrary SsdConfig under the harness methodology (scaled
  /// arrival rate, standing population, preconditioning, warmup pass).
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
  // unique_ptrs because BerModel is neither copyable nor default-
  // constructible (it owns a one-off Monte-Carlo calibration).
  std::unique_ptr<reliability::BerModel> normal_;
  std::unique_ptr<reliability::BerModel> reduced_;
};

/// Runs `count` independent experiments across `jobs` worker threads
/// (jobs <= 1: serial, in index order on the calling thread; jobs == 0:
/// one per hardware thread). `runner(i)` must be safe to call from any
/// thread and return a default-constructible result; results come back in
/// index order regardless of completion order, so output is identical to
/// a serial sweep.
template <typename Runner>
auto run_indexed(std::size_t count, const Runner& runner, int jobs)
    -> std::vector<std::invoke_result_t<const Runner&, std::size_t>> {
  if (jobs == 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) jobs = 1;
  }
  std::vector<std::invoke_result_t<const Runner&, std::size_t>> results(
      count);
  if (jobs <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = runner(i);
    return results;
  }
  // Work stealing over a shared index: runs are independent (each owns
  // its simulator; shared inputs are const), so any assignment of
  // indices to threads yields the same per-index results.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      results[i] = runner(i);
    }
  };
  std::vector<std::thread> pool;
  const auto threads =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), count);
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
  return results;
}

/// Fans a list of cells across `jobs` threads (see run_indexed).
std::vector<ssd::SsdResults> run_cells(const ExperimentHarness& harness,
                                       const std::vector<CellSpec>& cells,
                                       int jobs);

/// Extracts `--jobs N` (or `-j N`, `--jobs=N`) from argv, compacting it,
/// and falls back to the FLEX_BENCH_JOBS environment variable; defaults
/// to 1. 0 means "one job per hardware thread". A value that
/// parse_jobs_value() rejects, or a flag with no value, prints a usage
/// error and exits with status 2.
int parse_jobs(int* argc, char** argv);

/// Parses a job count: parse_count_value() capped at INT_MAX.
std::optional<int> parse_jobs_value(const char* text);

/// The digits-only count rule behind every numeric bench argument
/// (common/count.h).
using flex::parse_count_value;

/// Positional argument `index` of an argv already compacted by
/// parse_outputs()/parse_jobs(), as a count; `fallback` when it is absent.
/// A value parse_count_value() rejects (`--help`, `-5`, `20k`) prints a
/// usage error naming `name` and exits with status 2, instead of parsing
/// as 0 and running the default experiment.
std::uint64_t positional_count(
    int argc, char** argv, int index, const char* name,
    std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Telemetry/export destinations for a bench run (empty string = off).
struct OutputOptions {
  std::string trace_out;    ///< Chrome trace-event JSON
  std::string metrics_out;  ///< metrics JSONL (per cell + merged)
  std::string bench_out;    ///< BENCH_*.json override (benches default it)
};

/// Extracts `--trace-out PATH`, `--metrics-out PATH` and `--bench-out
/// PATH` (also the `--flag=PATH` spellings) from argv, compacting it.
OutputOptions parse_outputs(int* argc, char** argv);

/// "workload/scheme/peNNNN" identity of a cell (trace process names,
/// metrics line tags, bench JSON rows).
std::string cell_label(const CellSpec& cell);

/// Label + Chrome process id of one telemetry-collecting run, for benches
/// whose variants are not CellSpecs (custom-config ablations).
struct RunLabel {
  std::string label;
  std::int32_t pid = 0;
};

/// Writes one Chrome trace-event file combining every run's spans, one
/// process track per run.
void write_trace_file(const std::string& path,
                      const std::vector<RunLabel>& runs,
                      const std::vector<ssd::SsdResults>& results);
void write_trace_file(const std::string& path,
                      const std::vector<CellSpec>& cells,
                      const std::vector<ssd::SsdResults>& results);

/// Writes metrics JSONL: every run's snapshot tagged with its label (in
/// index order), then the fold of all snapshots tagged "_merged" — the
/// deterministic-merge artifact that must not depend on --jobs.
void write_metrics_file(const std::string& path,
                        const std::vector<RunLabel>& runs,
                        const std::vector<ssd::SsdResults>& results);
void write_metrics_file(const std::string& path,
                        const std::vector<CellSpec>& cells,
                        const std::vector<ssd::SsdResults>& results);

/// Writes the machine-readable BENCH_<name>.json summary: git SHA, drive
/// config, and per-cell mean/p99/latency-breakdown rows (plus read/write
/// request counts and host wall-clock per cell).
void write_bench_json(const std::string& path, const std::string& bench,
                      std::uint64_t requests_override, int jobs,
                      const std::vector<CellSpec>& cells,
                      const std::vector<ssd::SsdResults>& results);

/// RunLabel-keyed variant for benches whose rows are not CellSpecs (the
/// QoS ablation): per-run latency/QoS-gauge rows, each with a "tenants"
/// array carrying per-tenant mean/p99/p999 and admission rejections.
void write_bench_json(const std::string& path, const std::string& bench,
                      std::uint64_t requests_override, int jobs,
                      const std::vector<RunLabel>& runs,
                      const std::vector<ssd::SsdResults>& results);

}  // namespace flex::bench
