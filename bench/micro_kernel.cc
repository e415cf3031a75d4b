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
//     steady state (after warmup rounds that grow both lane arrays to
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
#include <algorithm>
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
  using flex::ssd::EventQueue;
  EventQueue queue;
  // Warmup: grows both lane arrays to their high-water marks. The FIFO
  // lane keeps its consumed prefix until that prefix reaches
  // kLaneReclaimMin, so rounds shorter than the floor grow the lane for
  // several rounds before its first reclaim (and a round can leave the
  // capacity unchanged just before one that grows it). Warm up until the
  // capacity has held for a whole reclaim cycle. Steady state starts here.
  const std::uint64_t cycle =
      EventQueue::kLaneReclaimMin / std::max<std::uint64_t>(arrivals, 1) + 1;
  for (std::uint64_t held = 0; held < cycle;) {
    const std::size_t capacity = queue.lane_capacity();
    run_round(queue, arrivals);
    held = queue.lane_capacity() == capacity ? held + 1 : 0;
  }

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
  const flex::ssd::SsdResults results =
      harness.run({.workload = flex::trace::Workload::kFin2,
                   .scheme = flex::ssd::Scheme::kFlexLevel,
                   .pe_cycles = 6000,
                   .requests_override = requests_override});
  // Measured requests over the measured window's wall time: build,
  // prefill and warmup are not part of the rate.
  SsdNumbers out;
  out.requests = results.all_response.count();
  out.requests_per_sec =
      static_cast<double>(out.requests) / results.measured_wall_seconds;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // Positional overrides: [arrivals-per-round [rounds]]. --jobs is
  // accepted like everywhere else; both measurements are single-threaded.
  const flex::bench::Cli cli(
      argc, argv,
      {{"arrivals", 200000},
       {"rounds", 5, static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())}},
      {flex::bench::kBenchOut});
  const std::uint64_t arrivals = cli.count(0);
  const int rounds = static_cast<int>(cli.count(1));

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
  constexpr std::uint64_t kSsdRequests = 20000;
  const SsdNumbers ssd = bench_ssd(harness, kSsdRequests);
  std::printf("end-to-end   : %.0f requests/sec  (fin-2, "
              "LevelAdjust+AccessEval, %" PRIu64 " requests)\n",
              ssd.requests_per_sec, ssd.requests);

  flex::bench::write_bench_file(
      cli, "micro_kernel", kSsdRequests, [&](flex::bench::JsonWriter& json) {
        json.begin_object("kernel")
            .field("events", kernel.events)
            .field("events_per_sec", kernel.events_per_sec)
            .field("allocations_per_event", kernel.allocations_per_event)
            .field("lane_capacity", kernel.lane_capacity)
            .end()
            .begin_object("ssd")
            .field("workload", "fin-2")
            .field("scheme", "LevelAdjust+AccessEval")
            .field("requests", ssd.requests)
            .field("requests_per_sec", ssd.requests_per_sec)
            .end();
      });

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
