// Hot-path microbench for the discrete-event kernel and the end-to-end
// simulator: the perf-regression tripwire in the CI `contract` job.
//
// Reports three numbers (stdout table + BENCH_micro_kernel.json):
//   * events/sec — raw EventQueue schedule+fire throughput for a
//     monotone arrival stream scheduled up front (FIFO lane) whose
//     callbacks schedule out-of-order completions (heap lane). This is
//     the pre-scheduled stream the FIFO lane exists for (callers that
//     schedule a known sequence at once, like flexbench's kernel replay).
//     It is not a copy of run_segment: the simulators stream arrivals
//     one at a time through ArrivalFeed.
//   * allocations/event — operator new calls per fired event in the
//     steady state (after one warmup round that grows both lane arrays to
//     their high-water mark). The kernel's memory contract says this is
//     0.0: callbacks live inline in POD lane entries and both lanes are
//     recycled, never shrunk. The lanes' capacity (`lane_capacity`, in
//     entries) is reported next to it: it is the kernel's whole footprint.
//   * requests/sec — end-to-end simulated requests per wall-second for
//     one fig6a cell (fin-2 / LevelAdjust+AccessEval @ P/E 6000),
//     including FTL, scheduler, BER cache and telemetry-off read path.
//
// Wall-clock throughput is machine-dependent; the committed
// BENCH_micro_kernel.json is the reference point the CI contract job
// compares against with a generous (25%) regression margin. Simulated
// *results* remain byte-identical regardless — this bench guards speed,
// not correctness.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "bench_common.h"
#include "common/alloc_counter.h"
#include "ssd/event_queue.h"

FLEX_DEFINE_COUNTING_ALLOCATOR()

namespace {

#ifndef FLEX_GIT_SHA
#define FLEX_GIT_SHA "unknown"
#endif

/// Makes one allocation the compiler cannot elide (a direct call to the
/// replaceable operator new, its result published through a volatile) and
/// reports whether the counting allocator observed it. counting_enabled()
/// only flips on the first counted allocation, so without this probe a
/// binary built without FLEX_DEFINE_COUNTING_ALLOCATOR() would report a
/// vacuous zero allocations/event.
void* volatile g_probe_sink = nullptr;

bool counting_allocator_live() {
  namespace alloc = flex::common::alloc_counter;
  const std::uint64_t before = alloc::allocation_count();
  void* probe = ::operator new(sizeof(int));
  g_probe_sink = probe;
  ::operator delete(probe);
  return alloc::counting_enabled() && alloc::allocation_count() > before;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One round of the pre-scheduled mix: `arrivals` monotone
/// events appended to the FIFO lane; each firing schedules a completion
/// 1.5 us out — behind later pending arrivals, so it lands in the heap
/// lane. Fires 2 * arrivals events total.
void run_round(flex::ssd::EventQueue& queue, std::uint64_t arrivals) {
  const flex::SimTime base = queue.now();
  for (std::uint64_t i = 0; i < arrivals; ++i) {
    queue.schedule(base + (i + 1) * 1000,
                   [&queue](flex::SimTime now) {
                     queue.schedule(now + 1500, [](flex::SimTime) {});
                   });
  }
  queue.run_all();
}

struct KernelNumbers {
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double allocations_per_event = 0.0;
  std::size_t lane_capacity = 0;
};

KernelNumbers bench_kernel(std::uint64_t arrivals, int rounds) {
  namespace alloc = flex::common::alloc_counter;
  flex::ssd::EventQueue queue;
  // Warmup: grows both lane arrays to their high-water marks. Steady state
  // starts here.
  run_round(queue, arrivals);

  const std::uint64_t allocs_before = alloc::allocation_count();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) run_round(queue, arrivals);
  const double elapsed = seconds_since(start);
  const std::uint64_t allocs = alloc::allocation_count() - allocs_before;

  KernelNumbers out;
  out.events = 2 * arrivals * static_cast<std::uint64_t>(rounds);
  out.events_per_sec = static_cast<double>(out.events) / elapsed;
  out.allocations_per_event =
      static_cast<double>(allocs) / static_cast<double>(out.events);
  out.lane_capacity = queue.lane_capacity();
  return out;
}

struct SsdNumbers {
  std::uint64_t requests = 0;
  double requests_per_sec = 0.0;
};

SsdNumbers bench_ssd(const flex::bench::ExperimentHarness& harness,
                     std::uint64_t requests_override) {
  const auto start = std::chrono::steady_clock::now();
  const flex::ssd::SsdResults results =
      harness.run({.workload = flex::trace::Workload::kFin2,
                   .scheme = flex::ssd::Scheme::kFlexLevel,
                   .pe_cycles = 6000,
                   .requests_override = requests_override});
  const double elapsed = seconds_since(start);
  SsdNumbers out;
  out.requests = results.all_response.count();
  out.requests_per_sec = static_cast<double>(out.requests) / elapsed;
  return out;
}

void write_json(const std::string& path, const KernelNumbers& kernel,
                const SsdNumbers& ssd) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) {
    std::fprintf(stderr, "micro_kernel: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(file,
               "{\n"
               "\"bench\":\"micro_kernel\",\n"
               "\"git_sha\":\"%s\",\n"
               "\"kernel\":{\"events\":%" PRIu64
               ",\"events_per_sec\":%.1f,"
               "\"allocations_per_event\":%.6f,\"lane_capacity\":%zu},\n"
               "\"ssd\":{\"workload\":\"fin-2\","
               "\"scheme\":\"LevelAdjust+AccessEval\",\"requests\":%" PRIu64
               ",\"requests_per_sec\":%.1f}\n"
               "}\n",
               FLEX_GIT_SHA, kernel.events, kernel.events_per_sec,
               kernel.allocations_per_event, kernel.lane_capacity, ssd.requests,
               ssd.requests_per_sec);
  std::fclose(file);
}

}  // namespace

int main(int argc, char** argv) {
  flex::bench::OutputOptions outputs = flex::bench::parse_outputs(&argc, argv);
  flex::bench::parse_jobs(&argc, argv);  // accepted for CLI uniformity
  // Positional overrides: [arrivals-per-round [rounds]].
  const std::uint64_t arrivals =
      flex::bench::positional_count(argc, argv, 1, "arrivals", 200000);
  const int rounds = static_cast<int>(flex::bench::positional_count(
      argc, argv, 2, "rounds", 5, std::numeric_limits<int>::max()));

  const bool counting = counting_allocator_live();
  std::printf("micro_kernel: hot-path throughput "
              "(counting allocator %s)\n\n",
              counting ? "active" : "MISSING");
  if (!counting) {
    // The allocations/event gate below would pass on a zero it never
    // measured.
    std::fprintf(stderr,
                 "FAIL: counting allocator is not linked in; "
                 "allocations/event cannot be measured\n");
    return 1;
  }

  const KernelNumbers kernel = bench_kernel(arrivals, rounds);
  std::printf("event kernel : %.2fM events/sec  (%" PRIu64
              " events, %zu lane entries)\n",
              kernel.events_per_sec / 1e6, kernel.events, kernel.lane_capacity);
  std::printf("steady state : %.6f allocations/event\n",
              kernel.allocations_per_event);

  const flex::bench::ExperimentHarness harness;
  const SsdNumbers ssd = bench_ssd(harness, /*requests_override=*/20000);
  std::printf("end-to-end   : %.0f requests/sec  (fin-2, "
              "LevelAdjust+AccessEval, %" PRIu64 " requests)\n",
              ssd.requests_per_sec, ssd.requests);

  const std::string out_path =
      outputs.bench_out.empty() ? "BENCH_micro_kernel.json" : outputs.bench_out;
  write_json(out_path, kernel, ssd);

  // The memory contract is part of the bench's pass criterion: a nonzero
  // steady-state allocation rate is a regression even if throughput holds.
  if (kernel.allocations_per_event != 0.0) {
    std::fprintf(stderr,
                 "FAIL: steady-state allocations/event = %.6f (expected 0)\n",
                 kernel.allocations_per_event);
    return 1;
  }
  return 0;
}
