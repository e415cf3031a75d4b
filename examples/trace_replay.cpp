// Replay a block trace — one of the built-in synthetic workloads or a CSV
// file — through the SSD simulator under any of the four §6.2 schemes.
//
// Usage:
//   trace_replay [workload|csv-path] [scheme] [pe_cycles] [requests]
//     workload : fin-2 web-1 web-2 prj-1 prj-2 win-1 win-2 (default fin-2)
//     scheme   : baseline ldpc-in-ssd leveladjust flexlevel (default flexlevel)
//     pe_cycles: pre-aged wear level (default 6000)
//     requests : trims the synthetic trace (default: workload preset)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "reliability/ber_model.h"
#include "ssd/simulator.h"
#include "trace/workloads.h"

namespace {

using namespace flex;

std::optional<trace::Workload> parse_workload(const std::string& name) {
  for (const auto w : trace::kAllWorkloads) {
    if (trace::workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::optional<ssd::Scheme> parse_scheme(const std::string& name) {
  if (name == "baseline") return ssd::Scheme::kBaseline;
  if (name == "ldpc-in-ssd") return ssd::Scheme::kLdpcInSsd;
  if (name == "leveladjust") return ssd::Scheme::kLevelAdjustOnly;
  if (name == "flexlevel") return ssd::Scheme::kFlexLevel;
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string source = argc > 1 ? argv[1] : "fin-2";
  const std::string scheme_name = argc > 2 ? argv[2] : "flexlevel";
  const int pe_cycles = argc > 3 ? std::atoi(argv[3]) : 6000;
  const std::uint64_t request_cap =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 0;

  const auto scheme = parse_scheme(scheme_name);
  if (!scheme) {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme_name.c_str());
    return 1;
  }

  // Load or synthesize the trace.
  std::vector<trace::Request> requests;
  std::uint64_t footprint = 0;
  if (const auto workload = parse_workload(source)) {
    trace::WorkloadParams params = trace::workload_params(*workload);
    if (request_cap > 0) params.requests = request_cap;
    requests = trace::generate(params, 2015);
    footprint = params.footprint_pages;
  } else {
    std::ifstream file(source);
    if (!file) {
      std::fprintf(stderr, "cannot open trace file or workload '%s'\n",
                   source.c_str());
      return 1;
    }
    try {
      requests = trace::read_csv(file);
    } catch (const std::runtime_error& error) {
      std::fprintf(stderr, "%s: %s\n", source.c_str(), error.what());
      return 1;
    }
    footprint = trace::summarize(requests).max_lpn + 1;
    if (request_cap > 0 && requests.size() > request_cap) {
      requests.resize(request_cap);
    }
  }
  const trace::TraceSummary summary = trace::summarize(requests);
  std::printf("trace: %llu requests, %.0f%% reads, footprint %llu pages\n",
              static_cast<unsigned long long>(summary.requests),
              100.0 * summary.read_fraction(),
              static_cast<unsigned long long>(footprint));

  // Build the drive (scaled geometry, Table 6 timing).
  Rng rng(7);
  const reliability::BerEngine::Config mc{
      .wordlines = 64, .bitlines = 256, .rounds = 4, .coupling = {}};
  const reliability::GrayMapper gray;
  const flexlevel::ReduceCodeMapper reduce;
  const reliability::BerModel normal(nand::LevelConfig::baseline_mlc(), gray,
                                     reliability::RetentionModel{}, mc, rng);
  const reliability::BerModel reduced(
      flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
      reliability::RetentionModel{}, mc, rng);

  ssd::SsdConfig cfg;
  cfg.scheme = *scheme;
  cfg.ftl.spec.blocks_per_chip = 896;
  cfg.ftl.spec.chips = 8;
  cfg.ftl.initial_pe_cycles = static_cast<std::uint32_t>(pe_cycles);
  cfg.access_eval.pool_capacity_pages = cfg.ftl.spec.total_pages() / 4;
  cfg.access_eval.hotness = {.filter_count = 4,
                             .bits_per_filter = 1 << 18,
                             .hashes = 2,
                             .window_accesses = 16'384};
  // Builder: a bad configuration (e.g. hand-edited geometry) reports its
  // Status message instead of asserting deep inside the constructor.
  auto built =
      ssd::SsdSimulator::Builder(normal, reduced).config(cfg).Build();
  if (!built.ok()) {
    std::fprintf(stderr, "invalid drive configuration: %s\n",
                 built.status().to_string().c_str());
    return 1;
  }
  ssd::SsdSimulator& sim = **built;
  sim.prefill(footprint);
  sim.run_segment(requests);
  const ssd::SsdResults& results = sim.results();

  std::printf("\nscheme: %s @ P/E %d\n", ssd::scheme_name(*scheme).c_str(),
              pe_cycles);
  std::printf("  mean response    : %.0f us (reads %.0f us, writes %.0f us)\n",
              results.all_response.mean() * 1e6,
              results.read_response.mean() * 1e6,
              results.write_response.mean() * 1e6);
  std::printf("  read p50 / p99   : %.0f / %.0f us\n",
              results.read_latency_hist.quantile(0.5) * 1e6,
              results.read_latency_hist.quantile(0.99) * 1e6);
  std::printf("  max response     : %.1f ms\n",
              results.all_response.max() * 1e3);
  std::printf("  buffer hits      : %llu\n",
              static_cast<unsigned long long>(results.buffer_hits));
  std::printf("  NAND writes      : %llu (WAF %.2f)\n",
              static_cast<unsigned long long>(results.ftl.nand_writes),
              results.ftl.write_amplification());
  std::printf("  NAND erases      : %llu\n",
              static_cast<unsigned long long>(results.ftl.nand_erases));
  std::printf("  migrations       : %llu to reduced, %llu back\n",
              static_cast<unsigned long long>(results.migrations_to_reduced),
              static_cast<unsigned long long>(results.migrations_to_normal));
  std::printf("  sensing levels   :");
  for (std::size_t l = 0; l < results.sensing_level_reads.size(); ++l) {
    if (results.sensing_level_reads[l] > 0) {
      std::printf(" %zu:%llu", l,
                  static_cast<unsigned long long>(
                      results.sensing_level_reads[l]));
    }
  }
  std::printf("\n");
  return 0;
}
