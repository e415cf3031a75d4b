// Overload-invariant integration tests for the QoS/open-loop path:
// bounded queue memory under admission control, monotone tail latency in
// arrival rate, the deadline-vs-FIFO acceptance property at high load
// (with the identical-FTL-trajectory control that makes it a fair fight),
// and a GC+refresh storm on an aged faulty drive with zero durability or
// disturb violations. Small scaled drive, fixed seeds, deterministic.
#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "telemetry/telemetry.h"
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

  static workload::EngineConfig engine_config(double iops) {
    workload::EngineConfig engine;
    engine.arrivals.base_iops = iops;
    engine.tenants =
        workload::zipf_tenant_population(2, 0.9, /*footprint_pages=*/4000);
    engine.seed = 0x0AD5;
    return engine;
  }

  static SsdResults run_open_loop(SsdConfig cfg,
                                  const workload::EngineConfig& engine,
                                  std::uint64_t requests) {
    auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
    sim->prefill(4000);
    workload::WorkloadEngine source(engine);
    sim->run_open_loop(source, requests);
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
      run_open_loop(std::move(cfg), engine_config(/*iops=*/12'000), 15'000);

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
        run_open_loop(config(), engine_config(iops), 10'000);
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
  const workload::EngineConfig engine = engine_config(/*iops=*/3'000);
  const SsdResults fifo = run_open_loop(std::move(fifo_cfg), engine, 15'000);
  const SsdResults deadline =
      run_open_loop(std::move(deadline_cfg), engine, 15'000);

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

  workload::EngineConfig engine = engine_config(/*iops=*/4'000);
  engine.arrivals.burst_rate_multiplier = 6.0;
  engine.arrivals.burst_on_fraction = 0.15;
  engine.arrivals.burst_mean_on_s = 0.02;
  for (auto& tenant : engine.tenants) tenant.read_fraction = 0.4;

  const SsdResults r = run_open_loop(std::move(cfg), engine, 20'000);

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
  // The same request vector replayed closed-loop through the reservation
  // backend (QoS off) and the queued one must mutate the FTL identically:
  // QoS only changes queueing and latency accounting, never drive state.
  // Both backends share one read resolution step, so the read accounting —
  // including read-back seal verification — must agree too.
  workload::WorkloadEngine source(engine_config(/*iops=*/1'500));
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

  // Where the backends agree on latency too: EDF with every class budget
  // at the background budget, the fairness override off, one tenant at
  // priority 0 and no throttle dispatches in submission order, which is
  // the reservation backend's order. Write-back without refresh leaves
  // none of the named backend differences (FUA ack, refresh charging,
  // per-attempt spans) in play, so every command starts and completes at
  // the same instant and every request gets the same response.
  SsdConfig fifo_cfg = config();
  fifo_cfg.qos.tenants = 1;
  fifo_cfg.qos.read_deadline = fifo_cfg.qos.background_deadline;
  fifo_cfg.qos.write_deadline = fifo_cfg.qos.background_deadline;
  fifo_cfg.qos.fair_share_slack = std::numeric_limits<Duration>::max();
  fifo_cfg.integrity.enabled = true;
  ASSERT_EQ(fifo_cfg.durability.policy, DurabilityPolicy::kWriteBack);
  ASSERT_EQ(fifo_cfg.read_disturb.refresh_threshold, 0u);
  ASSERT_EQ(fifo_cfg.qos.gc_throttle_queue_depth, 0u);
  for (const trace::Request& request : requests) {
    ASSERT_EQ(request.priority, 0);
  }
  auto fifo = test::build_simulator(std::move(fifo_cfg), *normal_, *reduced_);
  fifo->prefill(4000);
  const SsdResults c = fifo->run(requests);

  EXPECT_EQ(a.ftl, c.ftl);
  EXPECT_EQ(a.chip_stats, c.chip_stats);
  EXPECT_EQ(a.write_response, c.write_response);
  EXPECT_EQ(a.read_latency_hist, c.read_latency_hist);
  // Two results are not equal as wholes, though both runs serve every
  // read in the same time. The queued backend finalizes reads in
  // completion order, not arrival order, so Welford's running variance
  // rounds differently; the order-free moments agree exactly.
  EXPECT_EQ(a.read_response.count(), c.read_response.count());
  EXPECT_EQ(a.read_response.sum(), c.read_response.sum());
  EXPECT_EQ(a.read_response.min(), c.read_response.min());
  EXPECT_EQ(a.read_response.max(), c.read_response.max());
  // And when two pages of one read are equally slow, the decomposition
  // comes from the first to complete: page order on the reservation
  // backend, kernel event order on the queued one. The breakdown's total
  // (the read-response sum in ns) agrees exactly; its split does not.
  EXPECT_EQ(a.read_breakdown.total(), c.read_breakdown.total());
}

TEST_F(QosOverloadTest, BackendsDifferOnlyWhereNamed) {
  // The three model differences the reservation and queued backends keep
  // on purpose (ROADMAP items 1 and 5). Retiring one is a deliberate
  // re-pin, so it has to change this test.
  const auto build = [](bool queued, SsdConfig cfg,
                        telemetry::Telemetry* telemetry) {
    if (!queued) cfg.qos = QosConfig{};
    auto sim = test::build_simulator(std::move(cfg), *normal_, *reduced_);
    sim->prefill(4000);
    if (telemetry != nullptr) sim->attach_telemetry(telemetry);
    return sim;
  };
  const auto find_span = [](const telemetry::Telemetry& telemetry,
                            std::string_view cat, std::string_view name) {
    std::vector<telemetry::Span> found;
    for (const telemetry::Span& span : telemetry.spans.spans()) {
      if (cat == span.cat && name == span.name) found.push_back(span);
    }
    return found;
  };

  // A burst of reads on every chip, then one FUA write at the same
  // instant: its program queues behind the chip's backlog.
  std::vector<trace::Request> burst;
  for (std::uint32_t i = 0; i < 64; ++i) {
    burst.push_back({.arrival = 0, .lpn = i * 7});
  }
  burst.push_back({.arrival = 0, .is_write = true, .lpn = 3000});
  SsdConfig fua_cfg = config();
  fua_cfg.durability.policy = DurabilityPolicy::kFua;
  const Duration buffer_latency = fua_cfg.latency.buffer_latency;
  const Duration program = fua_cfg.latency.program();
  for (const bool queued : {false, true}) {
    SCOPED_TRACE(queued ? "queued" : "reservation");
    telemetry::Telemetry telemetry;
    telemetry.trace = true;
    auto sim = build(queued, fua_cfg, &telemetry);
    sim->run_segment(burst);
    const auto writes = find_span(telemetry, "request", "write");
    const auto programs = find_span(telemetry, "chip", "program");
    ASSERT_EQ(writes.size(), 1u);
    ASSERT_EQ(programs.size(), 1u);
    const SimTime arrival = writes[0].start;
    ASSERT_GT(programs[0].start, arrival);  // the chip was backlogged
    // FUA ack: the reservation backend acks at buffer_latency + program()
    // whatever the backlog; the queued one when the program completes.
    EXPECT_EQ(writes[0].dur,
              queued ? programs[0].start + programs[0].dur - arrival +
                           buffer_latency
                     : buffer_latency + program);
    // Per-attempt sense/xfer/decode spans: reservation backend only.
    EXPECT_EQ(find_span(telemetry, "read", "sense").empty(), queued);
  }

  // One refresh scrub on a read-only stream: the queued backend charges
  // its relocations plus one erase to the chips, the reservation backend
  // charges nothing beyond the reads themselves.
  SsdConfig scrub_cfg = config();
  scrub_cfg.read_disturb.enabled = true;
  scrub_cfg.read_disturb.refresh_threshold = 16;
  std::vector<trace::Request> rereads;
  for (std::uint32_t i = 0; i < 24; ++i) {
    rereads.push_back({.arrival = SimTime{i} * kMillisecond, .lpn = 100});
  }
  for (const bool queued : {false, true}) {
    SCOPED_TRACE(queued ? "queued" : "reservation");
    auto sim = build(queued, scrub_cfg, nullptr);
    const SsdResults r = sim->run(rereads);
    ASSERT_EQ(r.ftl.refresh_runs, 1u);
    ASSERT_GT(r.ftl.refresh_page_moves, 0u);
    std::uint64_t nand_reads = 0;
    for (const std::uint64_t n : r.sensing_level_reads) nand_reads += n;
    std::uint64_t commands = 0;
    for (const ChipStats& chip : r.chip_stats) commands += chip.commands;
    EXPECT_EQ(commands,
              nand_reads +
                  (queued ? r.ftl.refresh_page_moves + r.ftl.refresh_runs : 0));
  }
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
