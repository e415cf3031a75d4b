// Microbenchmarks of the LDPC codec on the paper's rate-8/9 4 KB code, plus
// an empirical cross-check of the sensing ladder: decode success at each
// ladder step's BER cap with the *real* min-sum decoder.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "ldpc/channel.h"
#include "ldpc/decoder.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_code.h"
#include "reliability/sensing_solver.h"

namespace {

using namespace flex;

const ldpc::QcLdpcCode& paper_code() {
  static const ldpc::QcLdpcCode code = ldpc::QcLdpcCode::paper_code();
  return code;
}

std::vector<std::uint8_t> random_message(Rng& rng) {
  std::vector<std::uint8_t> m(
      static_cast<std::size_t>(paper_code().k()));
  for (auto& b : m) b = static_cast<std::uint8_t>(rng.below(2));
  return m;
}

void BM_LdpcEncode(benchmark::State& state) {
  const ldpc::Encoder encoder(paper_code());
  Rng rng(1);
  const auto message = random_message(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          paper_code().k() / 8);
}
BENCHMARK(BM_LdpcEncode)->Unit(benchmark::kMicrosecond);

void BM_LdpcDecode(benchmark::State& state) {
  // Arg: raw BER in units of 1e-4; decoded with 6 extra sensing levels.
  const double ber = static_cast<double>(state.range(0)) * 1e-4;
  const ldpc::Encoder encoder(paper_code());
  const ldpc::Decoder decoder(paper_code());
  const ldpc::SensingChannel channel(ber, 6);
  Rng rng(2);
  const auto cw = encoder.encode(random_message(rng));
  const auto llrs = channel.transmit(cw, rng);
  std::int64_t iterations_total = 0;
  for (auto _ : state) {
    const auto result = decoder.decode(llrs);
    iterations_total += result.iterations;
    benchmark::DoNotOptimize(result);
  }
  state.counters["minsum_iters"] = benchmark::Counter(
      static_cast<double>(iterations_total),
      benchmark::Counter::kAvgIterations);
  // Check-to-variable edge updates per second (min-sum iterations x edges):
  // the kernel's speed, comparable across BER points whatever their
  // iteration counts.
  const auto edges = static_cast<double>(paper_code().base_entries().size()) *
                     paper_code().z();
  state.counters["edge_updates_per_s"] = benchmark::Counter(
      static_cast<double>(iterations_total) * edges,
      benchmark::Counter::kIsRate);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          paper_code().k() / 8);
}
BENCHMARK(BM_LdpcDecode)->Arg(10)->Arg(50)->Arg(100)->Arg(150)
    ->Unit(benchmark::kMicrosecond);

// Ladder validation: at each (cap BER, levels) point of the sensing
// requirement table, the real decoder should succeed; with one step fewer
// levels at the same BER it should do worse. Reported as counters.
void BM_LadderValidation(benchmark::State& state) {
  const reliability::SensingRequirement ladder;
  const auto& step =
      ladder.steps()[static_cast<std::size_t>(state.range(0))];
  const ldpc::Encoder encoder(paper_code());
  const ldpc::Decoder decoder(paper_code());
  Rng rng(3);
  int attempts = 0;
  int successes = 0;
  for (auto _ : state) {
    const ldpc::SensingChannel channel(step.max_raw_ber, step.extra_levels);
    const auto cw = encoder.encode(random_message(rng));
    const auto llrs = channel.transmit(cw, rng);
    const auto result = decoder.decode(llrs);
    ++attempts;
    if (result.success && result.bits == cw) ++successes;
    benchmark::DoNotOptimize(result);
  }
  state.counters["success_rate"] =
      attempts == 0 ? 0.0 : static_cast<double>(successes) / attempts;
  state.counters["cap_ber_x1e4"] = step.max_raw_ber * 1e4;
  state.counters["levels"] = step.extra_levels;
}
BENCHMARK(BM_LadderValidation)->DenseRange(0, 4)->Iterations(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
