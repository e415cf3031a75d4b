// Microbenchmarks of the FTL hot paths: mapped writes under GC pressure,
// lookups (back to back, and in the simulator's shape with and without a
// one-step prefetch), and the write buffer.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "ftl/page_mapping.h"
#include "ftl/write_buffer.h"
#include "ssd/simulator.h"
#include "trace/workloads.h"

namespace {

using namespace flex;

ftl::FtlConfig bench_config() {
  ftl::FtlConfig cfg;
  cfg.spec.page_size_bytes = 16 * 1024;
  cfg.spec.pages_per_block = 64;
  cfg.spec.blocks_per_chip = 512;
  cfg.spec.chips = 4;
  cfg.over_provisioning = 0.27;
  cfg.gc_low_watermark = 8;
  return cfg;
}

void BM_FtlWriteChurn(benchmark::State& state) {
  ftl::PageMappingFtl ftl(bench_config());
  Rng rng(1);
  const std::uint64_t hot_set = ftl.logical_pages() / 4;
  // Warm up: fill the drive so GC is active during measurement.
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ftl.write(lpn, ftl::PageMode::kNormal, 0);
  }
  SimTime now = 1;
  for (auto _ : state) {
    ftl.write(rng.below(hot_set), ftl::PageMode::kNormal, now++);
  }
  state.counters["waf"] = ftl.stats().write_amplification();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlWriteChurn)->Unit(benchmark::kNanosecond);

void BM_FtlLookup(benchmark::State& state) {
  ftl::PageMappingFtl ftl(bench_config());
  Rng rng(2);
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ftl.write(lpn, ftl::PageMode::kNormal, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.lookup(rng.below(ftl.logical_pages())));
  }
}
BENCHMARK(BM_FtlLookup);

// BM_FtlLookup issues independent lookups back to back, so the CPU
// overlaps their cache misses; a drive serves one request between two
// lookups and overlaps nothing. The in-situ benches below keep that
// shape on the harness drive (8 chips x 896 blocks x 64 pages), filled
// and preconditioned by SsdSimulator::prefill, read at web-1's NAND page
// reads.
struct InSituDrive {
  InSituDrive();
  bench::ExperimentHarness harness;
  std::unique_ptr<ssd::SsdSimulator> sim;
  std::vector<std::uint64_t> lpns;  ///< web-1's read pages, in trace order
};

InSituDrive::InSituDrive() {
  auto built = ssd::SsdSimulator::Builder(harness.normal_model(),
                                          harness.reduced_model())
                   .config(bench::ExperimentHarness::drive_config(
                       ssd::Scheme::kLdpcInSsd, 9000))
                   .Build();
  sim = std::move(*built);
  const std::uint64_t logical = sim->ftl().logical_pages();
  sim->prefill(logical * 4 / 5);
  trace::WorkloadParams params = trace::workload_params(trace::Workload::kWeb1);
  params.requests = 100'000;
  for (const trace::Request& r : trace::generate(params, 2015)) {
    if (r.is_write) continue;
    for (std::uint32_t i = 0; i < r.pages; ++i) {
      lpns.push_back((r.lpn + i) % logical);
    }
  }
}

const InSituDrive& in_situ_drive() {
  static const InSituDrive drive;
  return drive;
}

enum class InSitu { kWorkOnly, kLookup, kPrefetched };

/// Dependent multiply-adds per step: about the CPU time the simulator
/// spends serving a request between two lookups (a few hundred ns).
constexpr int kServiceSteps = 256;

// One step per read page: look it up, then run a fixed chain of dependent
// work that consumes the result. The chain's value feeds the next step's
// lpn through an opaque zero, so the next lookup starts only when this
// step's work is done, as the simulator's next arrival is served only
// after this one. kPrefetched prefetches the next step's lpn first, the
// drive's one-request lookahead. Time per lookup is a step's time less
// the kWorkOnly step's.
void BM_FtlLookupInSitu(benchmark::State& state, InSitu mode) {
  const InSituDrive& drive = in_situ_drive();
  const ftl::PageMappingFtl& ftl = drive.sim->ftl();
  const std::vector<std::uint64_t>& lpns = drive.lpns;
  std::uint64_t zero = 0;
  benchmark::DoNotOptimize(zero);
  std::uint64_t x = 1;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t next = i + 1 == lpns.size() ? 0 : i + 1;
    if (mode == InSitu::kPrefetched) ftl.prefetch(lpns[next]);
    if (mode != InSitu::kWorkOnly) {
      const auto info = ftl.lookup(lpns[i] + (x & zero));
      if (info) x ^= info->ppn ^ static_cast<std::uint64_t>(info->write_time);
    }
    for (int step = 0; step < kServiceSteps; ++step) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      benchmark::DoNotOptimize(x);
    }
    i = next;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_FtlLookupInSitu, work_only, InSitu::kWorkOnly);
BENCHMARK_CAPTURE(BM_FtlLookupInSitu, lookup, InSitu::kLookup);
BENCHMARK_CAPTURE(BM_FtlLookupInSitu, prefetched, InSitu::kPrefetched);

void BM_FtlMigrate(benchmark::State& state) {
  ftl::PageMappingFtl ftl(bench_config());
  Rng rng(3);
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages() / 2; ++lpn) {
    ftl.write(lpn, ftl::PageMode::kNormal, 0);
  }
  SimTime now = 1;
  bool to_reduced = true;
  for (auto _ : state) {
    const std::uint64_t lpn = rng.below(ftl.logical_pages() / 2);
    ftl.migrate(lpn,
                to_reduced ? ftl::PageMode::kReduced : ftl::PageMode::kNormal,
                now++);
    to_reduced = !to_reduced;
  }
}
BENCHMARK(BM_FtlMigrate)->Unit(benchmark::kNanosecond);

void BM_WriteBuffer(benchmark::State& state) {
  ftl::WriteBuffer buffer(4096, 64);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.write(rng.below(100'000)));
  }
}
BENCHMARK(BM_WriteBuffer);

}  // namespace
