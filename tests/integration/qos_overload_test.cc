// Overload-invariant integration tests for the QoS/open-loop path:
// bounded queue memory under admission control, monotone tail latency in
// arrival rate, the deadline-vs-FIFO acceptance property at high load
// (with the identical-FTL-trajectory control that makes it a fair fight),
// and a GC+refresh storm on an aged faulty drive with zero durability or
// disturb violations. Small scaled drive, fixed seeds, deterministic.
#include <cstdint>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "workload/engine.h"

namespace flex::ssd {
namespace {

class QosOverloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(2718);
    const reliability::BerEngine::Config mc{
        .wordlines = 32, .bitlines = 128, .rounds = 2, .coupling = {}};
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

  /// The golden-test drive with two QoS tenants enabled.
  static SsdConfig config() {
    SsdConfig cfg;
    cfg.scheme = Scheme::kLdpcInSsd;
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
    cfg.access_eval.pool_capacity_pages = 1024;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 14,
                               .hashes = 2,
                               .window_accesses = 512};
    cfg.qos.enabled = true;
    cfg.qos.tenants = 2;
    return cfg;
  }

  static workload::EngineConfig engine_config(double iops,
                                              std::uint64_t requests) {
    workload::EngineConfig engine;
    engine.arrivals.base_iops = iops;
    engine.tenants =
        workload::zipf_tenant_population(2, 0.9, /*footprint_pages=*/4000);
    engine.max_requests = requests;
    engine.seed = 0x0AD5;
    return engine;
  }

  static SsdResults run_open_loop(SsdConfig cfg,
                                  const workload::EngineConfig& engine) {
    auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
    sim->prefill(4000);
    workload::WorkloadEngine source(engine);
    sim->run_open_loop(source);
    return sim->results();
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* QosOverloadTest::normal_ = nullptr;
reliability::BerModel* QosOverloadTest::reduced_ = nullptr;

TEST_F(QosOverloadTest, AdmissionControlBoundsQueueMemory) {
  SsdConfig cfg = config();
  cfg.qos.admission_max_outstanding = 32;
  const SsdResults r =
      run_open_loop(std::move(cfg), engine_config(/*iops=*/12'000, 15'000));

  // Overload with a 32-request per-tenant cap: rejections must happen,
  // and in-flight request slots stay under tenants * cap.
  EXPECT_GT(r.admission_rejected, 0u);
  EXPECT_LE(r.qos_request_slots_high_water, 2u * 32u);
  ASSERT_EQ(r.tenant.size(), 2u);
  EXPECT_EQ(r.tenant[0].admission_rejected + r.tenant[1].admission_rejected,
            r.admission_rejected);
  // Every generated request is either serviced or rejected.
  EXPECT_EQ(r.all_response.count() + r.admission_rejected, 15'000u);
}

TEST_F(QosOverloadTest, ReadP99MonotoneNonDecreasingInArrivalRate) {
  double previous = 0.0;
  for (const double iops : {600.0, 2'000.0, 6'000.0, 18'000.0}) {
    const SsdResults r =
        run_open_loop(config(), engine_config(iops, 10'000));
    const double p99 = r.read_latency_hist.quantile(0.99);
    EXPECT_GE(p99, previous) << "rate " << iops;
    previous = p99;
  }
}

TEST_F(QosOverloadTest, DeadlineBeatsFifoOnTailLatencyAtHighLoad) {
  // The acceptance property: at >= 80% of saturation the deadline policy
  // must improve the read tail over FIFO. Both arms serve the identical
  // arrival stream...
  // FIFO is EDF with one budget for every class and the weighted-fair
  // override off (every tenant of this population runs at priority 0).
  SsdConfig fifo_cfg = config();
  fifo_cfg.qos.read_deadline = fifo_cfg.qos.background_deadline;
  fifo_cfg.qos.write_deadline = fifo_cfg.qos.background_deadline;
  fifo_cfg.qos.fair_share_slack = std::numeric_limits<Duration>::max();
  SsdConfig deadline_cfg = config();
  const workload::EngineConfig engine = engine_config(/*iops=*/3'000, 15'000);
  const SsdResults fifo = run_open_loop(std::move(fifo_cfg), engine);
  const SsdResults deadline = run_open_loop(std::move(deadline_cfg), engine);

  // ...and must walk the identical FTL state trajectory (mutations are
  // synchronous at arrival, policy-independent), so the comparison
  // isolates dispatch order.
  EXPECT_EQ(fifo.ftl, deadline.ftl);
  EXPECT_EQ(fifo.read_response.count(), deadline.read_response.count());
  EXPECT_EQ(fifo.write_response.count(), deadline.write_response.count());

  EXPECT_LT(deadline.read_latency_hist.quantile(0.99),
            fifo.read_latency_hist.quantile(0.99));
  EXPECT_LT(deadline.read_response.mean(), fifo.read_response.mean());
}

TEST_F(QosOverloadTest, AgedStormHasNoDurabilityOrDisturbViolations) {
  // GC + refresh storm on the aged drive: write-heavy MMPP bursts,
  // accelerated read disturb with a tight scrub threshold, fault
  // injection with a perfect recovery ladder, admission control and
  // write-through back-pressure — the full QoS surface at once.
  SsdConfig cfg = config();
  cfg.qos.admission_max_outstanding = 64;
  cfg.qos.write_admission_dirty_watermark = 48;
  cfg.qos.gc_throttle_queue_depth = 4;
  // Tight threshold: the write-heavy storm's GC constantly relocates and
  // erases (which resets disturb counters), so only an aggressive scrub
  // knee makes refresh trains fire alongside the GC trains.
  cfg.read_disturb.enabled = true;
  cfg.read_disturb.model.vth_shift_per_read = 8.0e-4;
  cfg.read_disturb.refresh_threshold = 25;
  cfg.faults.enabled = true;
  cfg.faults.program_fail_rate = 1e-3;
  cfg.faults.erase_fail_rate = 1e-3;
  cfg.faults.grown_defect_rate = 5e-4;
  cfg.faults.read_retry_rescue = 1.0;
  const std::uint64_t buffer_pages = cfg.write_buffer_pages;

  workload::EngineConfig engine = engine_config(/*iops=*/4'000, 20'000);
  engine.arrivals.burst_rate_multiplier = 6.0;
  engine.arrivals.burst_on_fraction = 0.15;
  engine.arrivals.burst_mean_on_s = 0.02;
  for (auto& tenant : engine.tenants) tenant.read_fraction = 0.4;

  const SsdResults r = run_open_loop(std::move(cfg), engine);

  // Durability: nothing lost, acks never trail durable programs, the
  // buffer never exceeds its capacity.
  EXPECT_EQ(r.data_loss_reads, 0u);
  EXPECT_EQ(r.recovered_reads, r.uncorrectable_reads);
  EXPECT_GE(r.writes_acked, r.writes_durable);
  EXPECT_LE(r.dirty_buffer_pages, buffer_pages);
  // The storm actually stormed: GC ran, scrubs ran, faults fired,
  // admission and throttling engaged.
  EXPECT_GT(r.ftl.gc_runs, 0u);
  EXPECT_GT(r.refresh_blocks, 0u);
  EXPECT_GT(r.ftl.program_fails + r.ftl.erase_fails + r.ftl.grown_defects,
            0u);
  EXPECT_GT(r.background_deferrals, 0u);
  // The read-latency breakdown identity holds exactly in QoS mode:
  // wait + sense + transfer + decode + buffer == total read response.
  EXPECT_NEAR(to_seconds(r.read_breakdown.total()), r.read_response.sum(),
              1e-9 * r.read_response.sum());
}

TEST_F(QosOverloadTest, QosStateTrajectoryMatchesLegacyClosedLoop) {
  // The same request vector replayed closed-loop through the legacy path
  // (QoS off) and the QoS path must mutate the FTL identically: QoS only
  // changes queueing and latency accounting, never drive state. Both
  // backends share one read resolution step, so the read accounting —
  // including read-back seal verification — must agree too.
  workload::WorkloadEngine source(engine_config(/*iops=*/1'500, 8'000));
  const auto requests = source.materialize(8'000);

  SsdConfig legacy_cfg = config();
  legacy_cfg.qos = QosConfig{};  // fully off
  legacy_cfg.integrity.enabled = true;
  auto legacy = test::build_simulator(std::move(legacy_cfg), *normal_,
                                      *reduced_);
  legacy->prefill(4000);
  const SsdResults a = legacy->run(requests);

  SsdConfig qos_cfg = config();
  qos_cfg.integrity.enabled = true;
  auto qos = test::build_simulator(std::move(qos_cfg), *normal_, *reduced_);
  qos->prefill(4000);
  const SsdResults b = qos->run(requests);

  EXPECT_EQ(a.ftl, b.ftl);
  EXPECT_EQ(a.read_response.count(), b.read_response.count());
  EXPECT_EQ(a.write_response.count(), b.write_response.count());
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.uncorrectable_reads, b.uncorrectable_reads);
  EXPECT_EQ(a.unmapped_reads, b.unmapped_reads);
  EXPECT_EQ(a.sensing_level_reads, b.sensing_level_reads);
  EXPECT_GT(a.integrity_verified_reads, 0u);
  EXPECT_EQ(a.integrity_verified_reads, b.integrity_verified_reads);
}

TEST_F(QosOverloadTest, ValidateRejectsQosFootguns) {
  // QoS knobs armed while disabled: silently inert configs are rejected.
  SsdConfig cfg = config();
  cfg.qos.enabled = false;
  auto built = SsdSimulator::Builder(*normal_, *reduced_)
                   .config(std::move(cfg))
                   .Build();
  EXPECT_FALSE(built.ok());

  // Crash injection and QoS are mutually exclusive (queued command state
  // is not modelled by the crash recovery machinery).
  SsdConfig crash_cfg = config();
  crash_cfg.faults.enabled = true;
  crash_cfg.faults.crash_enabled = true;
  crash_cfg.faults.crash_rate = 1e-6;
  crash_cfg.durability.policy = DurabilityPolicy::kFua;
  auto crash_built = SsdSimulator::Builder(*normal_, *reduced_)
                         .config(std::move(crash_cfg))
                         .Build();
  EXPECT_FALSE(crash_built.ok());
}

}  // namespace
}  // namespace flex::ssd
