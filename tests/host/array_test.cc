#include "host/array.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"
#include "support/build_simulator.h"
#include "trace/workloads.h"

namespace flex::host {
namespace {

// Shared BerModels (expensive to construct) for all array tests.
class ArrayTest : public ::testing::Test {
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

  // Same small drive as the simulator tests: 4 chips x 64 blocks x 32
  // pages, ~5980 logical pages.
  static ssd::SsdConfig small_drive(ssd::Scheme scheme) {
    ssd::SsdConfig cfg;
    cfg.scheme = scheme;
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
    cfg.access_eval.pool_capacity_pages = 1024;
    cfg.access_eval.hotness = {.filter_count = 4,
                               .bits_per_filter = 1 << 14,
                               .hashes = 2,
                               .window_accesses = 512};
    return cfg;
  }

  /// Host layer with every cost at zero: all queue-pair stages run inline
  /// at arrival, reproducing the bare simulator's timeline.
  static ArrayConfig zero_cost_array(ssd::Scheme scheme) {
    ArrayConfig cfg;
    cfg.drive = small_drive(scheme);
    cfg.queue_pair.doorbell_latency = 0;
    cfg.queue_pair.completion_latency = 0;
    const LinkSpec free_link{.latency = 0, .gb_per_s = 0.0};
    cfg.interconnect.requester_link = free_link;
    cfg.interconnect.switch_fabric = free_link;
    cfg.interconnect.drive_link = free_link;
    return cfg;
  }

  static std::vector<trace::Request> small_trace(double read_fraction,
                                                 std::uint64_t seed,
                                                 std::uint64_t footprint =
                                                     4000) {
    trace::WorkloadParams params;
    params.name = "test";
    params.read_fraction = read_fraction;
    params.zipf_theta = 1.0;
    params.footprint_pages = footprint;
    params.mean_request_pages = 1.2;
    params.max_request_pages = 4;
    params.iops = 1500;
    params.requests = 20'000;
    return trace::generate(params, seed);
  }

  static std::unique_ptr<ArraySimulator> build(const ArrayConfig& cfg) {
    auto array = ArraySimulator::Builder(*normal_, *reduced_)
                     .config(cfg)
                     .Build();
    EXPECT_TRUE(array.ok()) << array.status().message();
    return std::move(array).value();
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* ArrayTest::normal_ = nullptr;
reliability::BerModel* ArrayTest::reduced_ = nullptr;

void expect_stats_identical(const RunningStats& a, const RunningStats& b,
                            const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  if (a.count() > 0) {
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
  }
}

TEST_F(ArrayTest, SingleDriveArrayIsIdenticalToBareSimulator) {
  // The tentpole determinism claim: a 1-drive array with the zero-cost
  // host profile reproduces the bare SsdSimulator bit for bit — same
  // responses, same FTL mutations, same chip occupancy history.
  const auto trace = small_trace(0.7, 42);

  auto bare = test::build_simulator(small_drive(ssd::Scheme::kFlexLevel),
                                    *normal_, *reduced_);
  bare->prefill(4000);
  const ssd::SsdResults& expect = bare->run(trace);

  auto array = build(zero_cost_array(ssd::Scheme::kFlexLevel));
  array->prefill(4000);
  array->run_segment(trace);
  const ArrayResults& got = array->results();

  const ssd::SsdResults& drive = got.drive[0];
  expect_stats_identical(drive.read_response, expect.read_response,
                         "drive.read");
  expect_stats_identical(drive.write_response, expect.write_response,
                         "drive.write");
  expect_stats_identical(drive.all_response, expect.all_response,
                         "drive.all");
  EXPECT_EQ(drive.read_breakdown, expect.read_breakdown);
  EXPECT_EQ(drive.ftl.host_writes, expect.ftl.host_writes);
  EXPECT_EQ(drive.ftl.nand_writes, expect.ftl.nand_writes);
  EXPECT_EQ(drive.ftl.nand_erases, expect.ftl.nand_erases);
  EXPECT_EQ(drive.ftl.gc_runs, expect.ftl.gc_runs);
  EXPECT_EQ(drive.buffer_hits, expect.buffer_hits);
  EXPECT_EQ(drive.unmapped_reads, expect.unmapped_reads);
  EXPECT_EQ(drive.migrations_to_reduced, expect.migrations_to_reduced);
  EXPECT_EQ(drive.migrations_to_normal, expect.migrations_to_normal);
  EXPECT_EQ(drive.pool_pages, expect.pool_pages);
  EXPECT_EQ(drive.sensing_level_reads, expect.sensing_level_reads);
  ASSERT_EQ(drive.chip_stats.size(), expect.chip_stats.size());
  for (std::size_t c = 0; c < drive.chip_stats.size(); ++c) {
    EXPECT_EQ(drive.chip_stats[c], expect.chip_stats[c]) << "chip " << c;
  }
  // And the host-level view adds exactly zero latency on top.
  expect_stats_identical(got.read_response, expect.read_response,
                         "host.read");
  expect_stats_identical(got.write_response, expect.write_response,
                         "host.write");
}

TEST_F(ArrayTest, ReplicasServeTheSameDataVersion) {
  // Every host write fans out to all replicas, so whichever copy a read
  // is steered to holds the same data generation: per-LPN FTL versions
  // agree across the group at all times (GC/migrations move data without
  // bumping versions).
  ArrayConfig cfg = zero_cost_array(ssd::Scheme::kLdpcInSsd);
  cfg.drives = 2;
  cfg.replication_factor = 2;
  cfg.replica_policy = ReplicaPolicy::kShortestQueue;
  auto array = build(cfg);
  array->prefill(4000);
  array->run_segment(small_trace(0.5, 9));

  const auto& a = array->drive(0).ftl();
  const auto& b = array->drive(1).ftl();
  ASSERT_EQ(a.logical_pages(), b.logical_pages());
  for (std::uint64_t lpn = 0; lpn < a.logical_pages(); ++lpn) {
    ASSERT_EQ(a.data_version(lpn), b.data_version(lpn)) << "lpn " << lpn;
  }
  EXPECT_EQ(a.stats().host_writes, b.stats().host_writes);
}

TEST_F(ArrayTest, ReplicaPoliciesSpreadReadsAcrossCopies) {
  for (const ReplicaPolicy policy :
       {ReplicaPolicy::kRoundRobin, ReplicaPolicy::kShortestQueue,
        ReplicaPolicy::kDisturbAware}) {
    ArrayConfig cfg = zero_cost_array(ssd::Scheme::kLdpcInSsd);
    cfg.drives = 2;
    cfg.replication_factor = 2;
    cfg.replica_policy = policy;
    auto array = build(cfg);
    array->prefill(4000);
    array->run_segment(small_trace(0.9, 5));
    const ArrayResults& results = array->results();
    EXPECT_GT(results.replica_reads[0], 0u) << static_cast<int>(policy);
    EXPECT_GT(results.replica_reads[1], 0u) << static_cast<int>(policy);
    EXPECT_GT(results.drive[0].read_response.count(), 0u);
    EXPECT_GT(results.drive[1].read_response.count(), 0u);
  }
}

TEST_F(ArrayTest, StripingDistributesLoadAcrossDrives) {
  // RAID-0 over 4 drives with real (non-zero) host costs: every drive
  // serves work, every request completes, and per-drive footprints stay
  // inside per-drive capacity.
  ArrayConfig cfg;
  cfg.drive = small_drive(ssd::Scheme::kLdpcInSsd);
  cfg.drives = 4;
  cfg.stripe_pages = 16;
  const auto trace = small_trace(0.7, 21, /*footprint=*/16'000);
  auto array = build(cfg);
  EXPECT_EQ(array->logical_pages(),
            4 * array->drive(0).ftl().logical_pages());
  array->prefill(16'000);
  array->run_segment(trace);
  const ArrayResults& results = array->results();
  EXPECT_EQ(results.all_response.count(), trace.size());
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_GT(results.drive[d].read_response.count(), 0u) << "drive " << d;
    EXPECT_GT(results.qp[d].submitted, 0u) << "drive " << d;
    EXPECT_GT(results.drive_link[d].transfers, 0u) << "drive " << d;
  }
  EXPECT_GT(results.switch_fabric.transfers, 0u);
  // Host costs are real now: end-to-end response exceeds drive-local.
  EXPECT_GT(results.read_response.mean(),
            results.drive[0].read_response.mean());
  EXPECT_GT(results.read_breakdown.submit + results.read_breakdown.queue +
                results.read_breakdown.completion,
            0);
}

TEST_F(ArrayTest, GlobalAccessEvalFeedsSiblingReplicas) {
  ArrayConfig cfg = zero_cost_array(ssd::Scheme::kFlexLevel);
  cfg.drives = 2;
  cfg.replication_factor = 2;
  cfg.replica_policy = ReplicaPolicy::kRoundRobin;

  cfg.access_eval_scope = AccessEvalScope::kPerDrive;
  auto per_drive = build(cfg);
  per_drive->prefill(4000);
  per_drive->run_segment(small_trace(0.9, 33));
  EXPECT_EQ(per_drive->results().observe_feeds, 0u);

  cfg.access_eval_scope = AccessEvalScope::kGlobal;
  auto global = build(cfg);
  global->prefill(4000);
  global->run_segment(small_trace(0.9, 33));
  EXPECT_GT(global->results().observe_feeds, 0u);
}

TEST_F(ArrayTest, TenantStatsPartitionTheWorkload) {
  ArrayConfig cfg = zero_cost_array(ssd::Scheme::kLdpcInSsd);
  cfg.drives = 2;
  cfg.stripe_pages = 16;
  cfg.tenants = 2;
  auto trace = small_trace(0.8, 14, /*footprint=*/8000);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    trace[i].tenant = static_cast<std::uint16_t>(i % 2);
  }
  auto array = build(cfg);
  array->prefill(8000);
  array->run_segment(trace);
  const ArrayResults& results = array->results();
  ASSERT_EQ(results.tenant.size(), 2u);
  EXPECT_GT(results.tenant[0].read_response.count(), 0u);
  EXPECT_GT(results.tenant[1].read_response.count(), 0u);
  EXPECT_EQ(results.tenant[0].read_response.count() +
                results.tenant[1].read_response.count(),
            results.read_response.count());
}

TEST_F(ArrayTest, ValidateRejectsInconsistentConfigs) {
  const auto status_of = [&](const ArrayConfig& cfg) {
    return cfg.Validate();
  };
  ArrayConfig base = zero_cost_array(ssd::Scheme::kLdpcInSsd);
  EXPECT_TRUE(status_of(base).ok());

  ArrayConfig cfg = base;
  cfg.drives = 2;
  cfg.replication_factor = 3;
  EXPECT_FALSE(status_of(cfg).ok());  // more copies than drives

  cfg = base;
  cfg.drives = 6;
  cfg.replication_factor = 4;
  EXPECT_FALSE(status_of(cfg).ok());  // groups don't divide evenly

  cfg = base;
  cfg.replica_policy = ReplicaPolicy::kShortestQueue;
  EXPECT_FALSE(status_of(cfg).ok());  // steering with a single copy

  cfg = base;
  cfg.access_eval_scope = AccessEvalScope::kGlobal;
  cfg.drives = 2;
  cfg.replication_factor = 2;
  EXPECT_FALSE(status_of(cfg).ok());  // global scope needs kFlexLevel

  cfg.drive.scheme = ssd::Scheme::kFlexLevel;
  EXPECT_TRUE(status_of(cfg).ok());

  cfg = base;
  cfg.drive.qos.enabled = true;
  cfg.drive.qos.tenants = 1;
  EXPECT_FALSE(status_of(cfg).ok());  // drive-level QoS double-queues
}

// Host lpns ride trace::Request's 32-bit lpn, and each drive's L2P map
// keeps ppns in 32 bits: both capacities are refused past those bounds.
TEST_F(ArrayTest, ValidateBoundsVolumeToU32Lpns) {
  ArrayConfig cfg = zero_cost_array(ssd::Scheme::kLdpcInSsd);
  // 2^31 raw pages per drive, 1.5 * 2^30 logical at 25% over-provisioning.
  cfg.drive.ftl.spec.pages_per_block = 1024;
  cfg.drive.ftl.spec.blocks_per_chip = 65536;
  cfg.drive.ftl.spec.chips = 32;
  cfg.drive.ftl.over_provisioning = 0.25;
  cfg.drives = 2;
  EXPECT_TRUE(cfg.Validate().ok());  // 3 * 2^30 volume pages

  cfg.drives = 4;
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kOutOfRange);  // 6 * 2^30

  cfg.replication_factor = 2;
  EXPECT_TRUE(cfg.Validate().ok());  // two mirrored groups: 3 * 2^30

  cfg = zero_cost_array(ssd::Scheme::kLdpcInSsd);
  cfg.drive.ftl.spec.pages_per_block = 1024;
  cfg.drive.ftl.spec.blocks_per_chip = 65536;
  cfg.drive.ftl.spec.chips = 64;  // 2^32 raw pages on one drive
  EXPECT_EQ(cfg.Validate().code(), StatusCode::kOutOfRange);
}

TEST_F(ArrayTest, ResetMeasurementsScopesTheWindow) {
  ArrayConfig cfg = zero_cost_array(ssd::Scheme::kLdpcInSsd);
  cfg.drives = 2;
  cfg.stripe_pages = 16;
  const auto trace = small_trace(0.7, 3, /*footprint=*/8000);
  const auto split =
      trace.begin() + static_cast<std::ptrdiff_t>(trace.size() / 2);
  auto array = build(cfg);
  array->prefill(8000);
  array->run_segment({trace.begin(), split});
  array->reset_measurements();
  array->run_segment({split, trace.end()});
  const ArrayResults& results = array->results();
  EXPECT_EQ(results.all_response.count(),
            static_cast<std::uint64_t>(trace.end() - split));
  // Stripe-straddling requests fan into one command per touched drive,
  // so per-drive counts sum to at least the request count.
  EXPECT_GE(results.drive[0].all_response.count() +
                results.drive[1].all_response.count(),
            results.all_response.count());
  EXPECT_GT(results.window, 0);
}

}  // namespace
}  // namespace flex::host
