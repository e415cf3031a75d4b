// RAID-10 replica failover + read-repair: a persistent integrity
// mismatch on one mirror is served from its sibling and written back
// clean, and a bounded scrub drives the array to convergence — every
// replica of every page verifies again (byte-equal mirrors in host
// terms). Companion to the drive-level integrity property tests.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "flexlevel/nunma.h"
#include "flexlevel/reduce_mapper.h"
#include "host/array.h"
#include "nand/level_config.h"
#include "ssd/simulator.h"
#include "trace/trace.h"

namespace flex::host {
namespace {

constexpr Duration kGap = 250'000;  // ns between scripted arrivals

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class ReadRepairTest : public ::testing::Test {
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

  /// 4-drive RAID-10 of small drives (4 chips x 64 blocks x 32 pages)
  /// with the zero-cost host profile; integrity on, optionally with the
  /// persistent corruption kinds armed (silent flips stay off here —
  /// they cure locally and never involve the mirror).
  static ArrayConfig raid10(double corruption_rate) {
    ArrayConfig cfg;
    cfg.drives = 4;
    cfg.replication_factor = 2;
    cfg.stripe_pages = 16;
    cfg.queue_pair.doorbell_latency = 0;
    cfg.queue_pair.completion_latency = 0;
    const LinkSpec free_link{.latency = 0, .gb_per_s = 0.0};
    cfg.interconnect.requester_link = free_link;
    cfg.interconnect.switch_fabric = free_link;
    cfg.interconnect.drive_link = free_link;

    ssd::SsdConfig& drive = cfg.drive;
    drive.scheme = ssd::Scheme::kLdpcInSsd;
    drive.ftl.spec.page_size_bytes = 4096;
    drive.ftl.spec.pages_per_block = 32;
    drive.ftl.spec.blocks_per_chip = 64;
    drive.ftl.spec.chips = 4;
    drive.ftl.over_provisioning = 0.27;
    drive.ftl.gc_low_watermark = 4;
    drive.ftl.initial_pe_cycles = 6000;
    drive.min_prefill_age = kDay;
    drive.max_prefill_age = kMonth;
    drive.write_buffer_pages = 64;
    drive.write_buffer_flush_batch = 8;
    drive.access_eval.pool_capacity_pages = 1024;
    drive.access_eval.hotness = {.filter_count = 4,
                                 .bits_per_filter = 1 << 14,
                                 .hashes = 2,
                                 .window_accesses = 512};
    drive.integrity.enabled = true;
    if (corruption_rate > 0.0) {
      drive.faults.enabled = true;
      drive.faults.misdirected_write_rate = corruption_rate;
      drive.faults.torn_relocation_rate = corruption_rate * 10;
    }
    return cfg;
  }

  static std::unique_ptr<ArraySimulator> build(const ArrayConfig& cfg) {
    auto array = ArraySimulator::Builder(*normal_, *reduced_)
                     .config(cfg)
                     .Build();
    EXPECT_TRUE(array.ok()) << array.status().message();
    return std::move(array).value();
  }

  /// Deterministic open-loop mix over [0, footprint): mostly reads so
  /// failover/repair opportunities dominate, enough writes for GC churn.
  static std::vector<trace::Request> mixed_trace(std::uint64_t requests,
                                                 std::uint64_t footprint,
                                                 SimTime base) {
    std::vector<trace::Request> trace;
    trace.reserve(requests);
    for (std::uint64_t i = 0; i < requests; ++i) {
      const std::uint64_t h = mix64(i ^ 0x1E67'D1C0ULL);
      trace.push_back({.arrival = base + static_cast<SimTime>(i * kGap),
                       .is_write = (h % 10) == 0,
                       .lpn = static_cast<std::uint32_t>(mix64(h) %
                                                         footprint),
                       .pages = 1});
    }
    return trace;
  }

  /// One scrub pass: every footprint page read twice back-to-back, so
  /// round-robin replica steering serves both mirrors.
  static std::vector<trace::Request> scrub_trace(std::uint64_t footprint,
                                                 SimTime base) {
    std::vector<trace::Request> scrub;
    scrub.reserve(footprint * 2);
    for (std::uint64_t hpn = 0; hpn < footprint; ++hpn) {
      for (std::uint64_t copy = 0; copy < 2; ++copy) {
        scrub.push_back(
            {.arrival = base + static_cast<SimTime>((hpn * 2 + copy) * kGap),
             .is_write = false,
             .lpn = static_cast<std::uint32_t>(hpn),
             .pages = 1});
      }
    }
    return scrub;
  }

  /// Host pages of [0, footprint) with a replica failing the medium
  /// audit. Zero means the mirrors are byte-equal in host terms: each
  /// copy verifies as its drive's current acknowledged generation, and
  /// both mirrors consumed the identical host write stream. (Drive-local
  /// version counters legitimately differ — preconditioning overwrites
  /// come from per-drive RNG streams — so they are not compared.)
  static std::uint64_t corrupt_pages(const ArraySimulator& array,
                                     std::uint64_t footprint) {
    const VolumeMapper& volume = array.volume();
    std::uint64_t corrupt = 0;
    for (std::uint64_t hpn = 0; hpn < footprint; ++hpn) {
      const auto loc = volume.locate(hpn);
      for (std::uint32_t r = 0; r < volume.replicas(); ++r) {
        if (!array.drive(volume.drive_of(loc.group, r))
                 .page_verifies(loc.dlpn)) {
          ++corrupt;
          break;
        }
      }
    }
    return corrupt;
  }

  static reliability::BerModel* normal_;
  static reliability::BerModel* reduced_;
};

reliability::BerModel* ReadRepairTest::normal_ = nullptr;
reliability::BerModel* ReadRepairTest::reduced_ = nullptr;

TEST_F(ReadRepairTest, FaultFreeArrayNeverFailsOver) {
  auto array = build(raid10(0.0));
  const std::uint64_t footprint = 4000;
  array->prefill(footprint);
  array->run_segment(mixed_trace(10'000, footprint, 0));
  const ArrayResults& r = array->results();
  EXPECT_EQ(r.integrity_failovers, 0u);
  EXPECT_EQ(r.read_repairs, 0u);
  for (const auto& d : r.drive) {
    EXPECT_GT(d.integrity_verified_reads, 0u);
    EXPECT_EQ(d.integrity_mismatch_reads, 0u);
    EXPECT_EQ(d.integrity_undetected_reads, 0u);
  }
  EXPECT_EQ(corrupt_pages(*array, footprint), 0u);
}

TEST_F(ReadRepairTest, CorruptReplicaIsRepairedFromItsMirror) {
  // Targeted convergence: pick one host page with a persistently
  // corrupt replica, read it twice (round-robin hits both mirrors —
  // one read lands on the corrupt copy, flags it, fails over, and
  // writes the clean data back), then re-audit that page.
  auto array = build(raid10(2e-3));
  const std::uint64_t footprint = 4000;
  array->prefill(footprint);
  array->run_segment(mixed_trace(10'000, footprint, 0));

  const VolumeMapper& volume = array->volume();
  SimTime base = static_cast<SimTime>(10'000 * kGap) + 1'000'000'000'000LL;
  std::uint64_t repaired_pages = 0;
  for (std::uint64_t hpn = 0; hpn < footprint && repaired_pages < 4; ++hpn) {
    const auto loc = volume.locate(hpn);
    bool corrupt = false;
    for (std::uint32_t r = 0; r < volume.replicas(); ++r) {
      if (!array->drive(volume.drive_of(loc.group, r))
               .page_verifies(loc.dlpn)) {
        corrupt = true;
      }
    }
    if (!corrupt) continue;
    const std::uint64_t repairs_before = array->results().read_repairs;
    // A repair program can itself misdirect; the pair of reads is
    // retried a few times until the page audits clean on both mirrors.
    for (int pass = 0; pass < 5; ++pass) {
      std::vector<trace::Request> reads;
      for (std::uint64_t copy = 0; copy < 2; ++copy) {
        reads.push_back({.arrival = base + static_cast<SimTime>(copy * kGap),
                         .is_write = false,
                         .lpn = static_cast<std::uint32_t>(hpn),
                         .pages = 1});
      }
      base += 1'000'000'000LL;
      array->run_segment(reads);
      bool clean = true;
      for (std::uint32_t r = 0; r < volume.replicas(); ++r) {
        const auto& drive = array->drive(volume.drive_of(loc.group, r));
        if (!drive.page_verifies(loc.dlpn)) clean = false;
      }
      if (clean) break;
    }
    for (std::uint32_t r = 0; r < volume.replicas(); ++r) {
      EXPECT_TRUE(array->drive(volume.drive_of(loc.group, r))
                      .page_verifies(loc.dlpn))
          << "hpn " << hpn << " replica " << r;
    }
    EXPECT_GT(array->results().read_repairs, repairs_before)
        << "hpn " << hpn;
    ++repaired_pages;
  }
  ASSERT_GT(repaired_pages, 0u);  // the run must have corrupted something
}

TEST_F(ReadRepairTest, ScrubConvergesToByteEqualMirrors) {
  // The bench's convergence loop, in miniature: after a faulty run,
  // bounded scrub passes (each page read twice) repair every corrupt
  // replica from its sibling until the whole footprint audits clean.
  auto array = build(raid10(2e-3));
  const std::uint64_t footprint = 4000;
  array->prefill(footprint);
  array->run_segment(mixed_trace(15'000, footprint, 0));

  ASSERT_GT(corrupt_pages(*array, footprint), 0u);
  SimTime base = static_cast<SimTime>(15'000 * kGap);
  for (std::uint32_t pass = 0; pass < 5; ++pass) {
    if (corrupt_pages(*array, footprint) == 0) break;
    base += 1'000'000'000'000LL;  // 1000 s of slack between passes
    array->run_segment(scrub_trace(footprint, base));
    base += static_cast<SimTime>(footprint * 2 * kGap);
  }
  EXPECT_EQ(corrupt_pages(*array, footprint), 0u);

  const ArrayResults& r = array->results();
  EXPECT_GT(r.integrity_failovers, 0u);
  EXPECT_GT(r.read_repairs, 0u);
  std::uint64_t undetected = 0;
  for (const auto& d : r.drive) undetected += d.integrity_undetected_reads;
  EXPECT_EQ(undetected, 0u);
}

}  // namespace
}  // namespace flex::host
