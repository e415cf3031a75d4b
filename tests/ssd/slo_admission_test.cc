// Property test for latency-SLO read admission (qos.slo_read_admission):
// under the kFifo policy with no writes, no faults, and no read-disturb
// refresh, the admission predictor (chip backlog + worst-case service) is
// an upper bound on the actual response — so "admitted implies the
// deadline was met" holds exactly, not statistically.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/units.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "trace/workloads.h"

namespace flex::ssd {
namespace {

class SloAdmissionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(1234);
    const reliability::BerEngine::Config mc{.wordlines = 32,
                                            .bitlines = 128,
                                            .rounds = 2,
                                            .coupling = {}};
    static const reliability::GrayMapper gray;
    static const flexlevel::ReduceCodeMapper reduce;
    normal_ = new reliability::BerModel(nand::LevelConfig::baseline_mlc(),
                                        gray, reliability::RetentionModel{},
                                        mc, rng);
    reduced_ = new reliability::BerModel(
        flexlevel::nunma_config(flexlevel::NunmaScheme::kNunma3), reduce,
        reliability::RetentionModel{}, mc, rng);
  }
  static void TearDownTestSuite() {
    delete normal_;
    delete reduced_;
    normal_ = nullptr;
    reduced_ = nullptr;
  }

  static SsdConfig slo_config(Duration read_deadline) {
    SsdConfig cfg;
    cfg.scheme = Scheme::kLdpcInSsd;
    cfg.ftl.spec.page_size_bytes = 4096;
    cfg.ftl.spec.pages_per_block = 32;
    cfg.ftl.spec.blocks_per_chip = 64;
    cfg.ftl.spec.chips = 4;
    cfg.ftl.over_provisioning = 0.27;
    cfg.ftl.gc_low_watermark = 4;
    cfg.ftl.initial_pe_cycles = 6000;
    cfg.min_prefill_age = kDay;
    cfg.max_prefill_age = kMonth;
    cfg.write_buffer_pages = 64;
    cfg.write_buffer_flush_batch = 8;
    cfg.qos.enabled = true;
    cfg.qos.policy = QosPolicy::kFifo;
    cfg.qos.tenants = 1;
    cfg.qos.read_deadline = read_deadline;
    cfg.qos.slo_read_admission = true;
    return cfg;
  }

  /// Read-only overload: far past the 4-chip service rate, so queues
  /// build and unthrottled tail latency blows through any tight deadline.
  static std::vector<trace::Request> overload_reads(std::uint64_t seed) {
    trace::WorkloadParams params;
    params.name = "slo";
    params.read_fraction = 1.0;
    params.zipf_theta = 1.0;
    params.footprint_pages = 4000;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.iops = 60'000;
    params.requests = 20'000;
    return trace::generate(params, seed);
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* SloAdmissionTest::normal_ = nullptr;
reliability::BerModel* SloAdmissionTest::reduced_ = nullptr;

TEST_F(SloAdmissionTest, AdmittedReadsAlwaysMeetTheDeadline) {
  const Duration deadline = 2 * kMillisecond;
  const auto trace = overload_reads(77);

  auto sim = test::build_simulator(slo_config(deadline), *normal_, *reduced_);
  sim->prefill(4000);
  const SsdResults results = sim->run(trace);

  // Overload must actually have triggered rejections, or the property
  // below is vacuous.
  ASSERT_GT(results.slo_rejected, 0u);
  ASSERT_GT(results.read_response.count(), 0u);
  EXPECT_EQ(results.read_response.count() + results.slo_rejected,
            trace.size());
  EXPECT_EQ(results.admission_rejected, results.slo_rejected);
  // The property: every admitted read met the budget.
  EXPECT_LE(results.read_response.max(), to_seconds(deadline));
}

TEST_F(SloAdmissionTest, WithoutAdmissionTheDeadlineIsMissed) {
  // Control arm: the same overload with admission off produces responses
  // past the deadline — the property above is not vacuously true.
  const Duration deadline = 2 * kMillisecond;
  SsdConfig cfg = slo_config(deadline);
  cfg.qos.slo_read_admission = false;
  auto sim = test::build_simulator(cfg, *normal_, *reduced_);
  sim->prefill(4000);
  const SsdResults results = sim->run(overload_reads(77));
  EXPECT_EQ(results.slo_rejected, 0u);
  EXPECT_GT(results.read_response.max(), to_seconds(deadline));
}

TEST_F(SloAdmissionTest, TighterDeadlinesRejectMore) {
  const auto trace = overload_reads(5);
  std::uint64_t previous = 0;
  bool first = true;
  for (const Duration deadline :
       {8 * kMillisecond, 2 * kMillisecond, 500 * kMicrosecond}) {
    auto sim = test::build_simulator(slo_config(deadline), *normal_, *reduced_);
    sim->prefill(4000);
    const SsdResults results = sim->run(trace);
    if (!first) EXPECT_GE(results.slo_rejected, previous);
    previous = results.slo_rejected;
    first = false;
    EXPECT_LE(results.read_response.max(), to_seconds(deadline));
  }
}

TEST_F(SloAdmissionTest, ValidateRejectsArmedKnobWithQosDisabled) {
  SsdConfig cfg = slo_config(2 * kMillisecond);
  cfg.qos.enabled = false;
  EXPECT_FALSE(cfg.Validate().ok());
}

}  // namespace
}  // namespace flex::ssd
