// Cross-module integration tests: the full data path (bits -> cells ->
// noise -> read -> LDPC) and the full system path (trace -> SSD -> stats).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "ldpc/channel.h"
#include "ldpc/decoder.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_code.h"
#include "nand/level_config.h"
#include "reliability/ber_engine.h"
#include "reliability/ber_model.h"
#include "reliability/sensing_solver.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "trace/workloads.h"

namespace flex {
namespace {

// The paper's device-level pipeline: store an LDPC codeword in simulated
// cells, age them, read back, and decode with the sensing levels the
// solver prescribes for the measured BER.
TEST(EndToEndTest, CodewordSurvivesAgedBaselineCellsWithPrescribedSensing) {
  Rng rng(1);
  const ldpc::QcLdpcCode code = ldpc::QcLdpcCode::paper_code();
  const ldpc::Encoder encoder(code);
  const ldpc::Decoder decoder(code);
  const reliability::SensingRequirement ladder;

  // Measure the baseline cell BER at a stressed operating point.
  const nand::LevelConfig cfg = nand::LevelConfig::baseline_mlc();
  const reliability::GrayMapper mapper;
  const reliability::RetentionModel retention;
  reliability::BerEngine engine(
      {.wordlines = 64, .bitlines = 256, .rounds = 4, .coupling = {}});
  const auto report =
      engine.measure(cfg, mapper, &retention, 5000, kWeek, rng);
  const double ber = report.total.rate();
  ASSERT_GT(ber, 0.0);
  ASSERT_LT(ber, ladder.max_correctable());

  bool correctable = false;
  const int levels = ladder.required_levels(ber, &correctable);
  ASSERT_TRUE(correctable);

  // Transmit codewords through an equivalent channel at that BER with the
  // prescribed sensing depth: decoding must succeed.
  const ldpc::SensingChannel channel(ber, levels);
  int successes = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    std::vector<std::uint8_t> message(static_cast<std::size_t>(code.k()));
    for (auto& b : message) b = static_cast<std::uint8_t>(rng.below(2));
    const auto cw = encoder.encode(message);
    const auto llrs = channel.transmit(cw, rng);
    const auto result = decoder.decode(llrs);
    if (result.success && result.bits == cw) ++successes;
  }
  EXPECT_GE(successes, trials - 1);
}

// The reduced-state pipeline: NUNMA 3 cells at the paper's worst operating
// point stay below the hard-decision cap, so hard LDPC suffices.
TEST(EndToEndTest, ReducedCellsDecodeHardAtWorstCase) {
  Rng rng(2);
  const reliability::SensingRequirement ladder;
  const flexlevel::ReduceCodeMapper mapper;
  const reliability::RetentionModel retention;
  reliability::BerEngine engine(
      {.wordlines = 64, .bitlines = 256, .rounds = 4, .coupling = {}});
  const auto report = engine.measure(
      flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), mapper,
      &retention, 6000, kMonth, rng);
  EXPECT_LT(report.total.rate(), ladder.hard_decision_cap());
  EXPECT_EQ(ladder.required_levels(report.total.rate()), 0);
}

// Full system: the four §6.2 schemes ranked on one workload. This is the
// qualitative content of Fig. 6(a) as an invariant.
TEST(EndToEndTest, SchemeOrderingOnWorkload) {
  Rng rng(3);
  const reliability::BerEngine::Config mc{
      .wordlines = 32, .bitlines = 128, .rounds = 2, .coupling = {}};
  const reliability::GrayMapper gray;
  const flexlevel::ReduceCodeMapper reduce;
  const reliability::BerModel normal(nand::LevelConfig::baseline_mlc(), gray,
                                     reliability::RetentionModel{}, mc, rng);
  const reliability::BerModel reduced(
      flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
      reliability::RetentionModel{}, mc, rng);

  // A read-dominated, moderately loaded scenario over old data: the regime
  // where LDPC soft sensing costs the most and FlexLevel's mechanism has
  // something to remove.
  trace::WorkloadParams params = trace::workload_params(trace::Workload::kWeb1);
  params.footprint_pages = 4000;
  params.requests = 30'000;
  params.read_fraction = 0.98;
  params.iops = 1'500.0;
  const auto requests = trace::generate(params, 99);

  auto run_scheme = [&](ssd::Scheme scheme) {
    ssd::SsdConfig cfg;
    cfg.scheme = scheme;
    cfg.ftl.spec.page_size_bytes = 4096;
    cfg.ftl.spec.pages_per_block = 32;
    cfg.ftl.spec.blocks_per_chip = 64;
    cfg.ftl.spec.chips = 4;
    cfg.ftl.initial_pe_cycles = 6000;
    cfg.ftl.gc_low_watermark = 4;
    cfg.min_prefill_age = kDay;
    cfg.max_prefill_age = kMonth;
    cfg.write_buffer_pages = 64;
    cfg.write_buffer_flush_batch = 8;
    cfg.access_eval.pool_capacity_pages = 1000;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 14,
                               .hashes = 2,
                               .window_accesses = 512};
    auto sim = test::build_simulator(cfg, normal, reduced);
    sim->prefill(4000);
    // Warm up AccessEval's filters and pool on the first half of the trace
    // (arrivals stay monotone), then measure steady state on the second.
    const auto split =
        requests.begin() + static_cast<std::ptrdiff_t>(requests.size() / 2);
    sim->run({requests.begin(), split});
    sim->reset_measurements();
    return sim->run({split, requests.end()});
  };

  const auto baseline = run_scheme(ssd::Scheme::kBaseline);
  const auto ldpc_in_ssd = run_scheme(ssd::Scheme::kLdpcInSsd);
  const auto flexlevel = run_scheme(ssd::Scheme::kFlexLevel);

  // Fig. 6(a) ordering: FlexLevel < LDPC-in-SSD < baseline on reads.
  EXPECT_LT(ldpc_in_ssd.read_response.mean(), baseline.read_response.mean());
  EXPECT_LT(flexlevel.read_response.mean(), ldpc_in_ssd.read_response.mean());
}

}  // namespace
}  // namespace flex
