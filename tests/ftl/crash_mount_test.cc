// Power-on recovery (PageMappingFtl::Mount): the OOB scan must rebuild
// exactly the durable state — mappings (last epoch wins), per-LPN
// versions, block roles, ReducedCell membership, retirement — and must be
// idempotent, since a drive can lose power during or right after mount.
#include "ftl/page_mapping.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "faults/fault_injector.h"

namespace flex::ftl {
namespace {

// Tiny drive: 2 chips x 16 blocks x 16 pages = 512 physical pages.
FtlConfig tiny_config() {
  FtlConfig cfg;
  cfg.spec.page_size_bytes = 4096;
  cfg.spec.pages_per_block = 16;
  cfg.spec.blocks_per_chip = 16;
  cfg.spec.chips = 2;
  cfg.over_provisioning = 0.25;
  cfg.gc_low_watermark = 3;
  return cfg;
}

TEST(CrashMountTest, MountOfEmptyDriveFindsNothing) {
  PageMappingFtl ftl(tiny_config());
  const MountReport report = ftl.Mount();
  EXPECT_EQ(report.pages_scanned, 0u);
  EXPECT_EQ(report.mappings_recovered, 0u);
  EXPECT_EQ(report.stale_records, 0u);
  EXPECT_EQ(report.free_blocks, 32u);
  EXPECT_EQ(report.data_blocks, 0u);
  EXPECT_EQ(report.retired_blocks, 0u);
  EXPECT_EQ(ftl.free_blocks(), 32u);
  EXPECT_EQ(ftl.stats().mounts, 1u);
  EXPECT_TRUE(ftl.check_consistency().ok());
}

TEST(CrashMountTest, MountRecoversEveryMapping) {
  PageMappingFtl ftl(tiny_config());
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    ftl.write(lpn, PageMode::kNormal, 1000 + static_cast<SimTime>(lpn));
  }
  const std::vector<std::uint32_t> before = ftl.l2p_dump();
  const MountReport report = ftl.Mount();
  EXPECT_EQ(report.mappings_recovered, 100u);
  EXPECT_EQ(report.stale_records, 0u);
  EXPECT_EQ(ftl.l2p_dump(), before);
  for (std::uint64_t lpn = 0; lpn < 100; ++lpn) {
    const auto info = ftl.lookup(lpn);
    ASSERT_TRUE(info.has_value()) << "lpn " << lpn;
    EXPECT_EQ(info->write_time, 1000 + static_cast<SimTime>(lpn));
    EXPECT_EQ(info->mode, PageMode::kNormal);
    EXPECT_EQ(ftl.data_version(lpn), 1u);
  }
  EXPECT_TRUE(ftl.check_consistency().ok());
  EXPECT_TRUE(ftl.double_mapped_lpns().empty());
}

TEST(CrashMountTest, LastEpochWinsOnOverwrites) {
  PageMappingFtl ftl(tiny_config());
  // Five generations of the same page: four stale OOB records survive on
  // NAND (no GC ran), and recovery must pick the newest by epoch.
  for (int gen = 0; gen < 5; ++gen) {
    ftl.write(7, PageMode::kNormal, 100 + gen);
  }
  const auto live = ftl.lookup(7);
  ASSERT_TRUE(live.has_value());
  const MountReport report = ftl.Mount();
  EXPECT_EQ(report.mappings_recovered, 1u);
  EXPECT_EQ(report.stale_records, 4u);
  const auto recovered = ftl.lookup(7);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->ppn, live->ppn);
  EXPECT_EQ(recovered->write_time, live->write_time);
  EXPECT_EQ(ftl.data_version(7), 5u);
  EXPECT_TRUE(ftl.double_mapped_lpns().empty());
}

TEST(CrashMountTest, MountIsIdempotent) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(42);
  // Enough churn to trigger GC, then mount twice: the second mount reads
  // exactly what the first rebuilt, so every observable must be identical
  // — except the lifetime statistics, which gain exactly one mount.
  for (int i = 0; i < 3000; ++i) {
    ftl.write(rng.below(200), i % 3 == 0 ? PageMode::kReduced
                                         : PageMode::kNormal,
              i);
  }
  const MountReport first = ftl.Mount();
  const std::vector<std::uint32_t> l2p_first = ftl.l2p_dump();
  const FtlStats stats_first = ftl.stats();
  const MountReport second = ftl.Mount();
  EXPECT_EQ(second.pages_scanned, first.pages_scanned);
  EXPECT_EQ(second.mappings_recovered, first.mappings_recovered);
  EXPECT_EQ(second.stale_records, first.stale_records);
  EXPECT_EQ(second.free_blocks, first.free_blocks);
  EXPECT_EQ(second.data_blocks, first.data_blocks);
  EXPECT_EQ(second.reduced_lpns, first.reduced_lpns);
  EXPECT_EQ(ftl.l2p_dump(), l2p_first);
  FtlStats expected = stats_first;
  ++expected.mounts;
  expected.mount_pages_scanned += second.pages_scanned;
  expected.mount_mappings_recovered += second.mappings_recovered;
  expected.mount_stale_records += second.stale_records;
  EXPECT_EQ(ftl.stats(), expected);
  EXPECT_EQ(ftl.stats().mounts, 2u);
  EXPECT_GT(ftl.stats().gc_runs, 0u);  // the churn's GC survived both mounts
  EXPECT_TRUE(ftl.check_consistency().ok());
}

TEST(CrashMountTest, ReportsReducedMembershipAscending) {
  PageMappingFtl ftl(tiny_config());
  ftl.write(30, PageMode::kReduced, 0);
  ftl.write(10, PageMode::kReduced, 0);
  ftl.write(20, PageMode::kNormal, 0);
  const MountReport report = ftl.Mount();
  const std::vector<std::uint64_t> expected = {10, 30};
  EXPECT_EQ(report.reduced_lpns, expected);
  const auto info = ftl.lookup(10);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->mode, PageMode::kReduced);
}

TEST(CrashMountTest, ReseedsReadDisturbConservatively) {
  PageMappingFtl ftl(tiny_config());
  const WriteResult w = ftl.write(3, PageMode::kNormal, 0);
  for (int i = 0; i < 500; ++i) ftl.record_read(w.ppn);
  // Per-block read counts are volatile (DRAM): recovery cannot know the
  // true count, so it re-seeds data blocks at the caller's threshold —
  // pessimistic, never optimistic.
  ftl.Mount({.reseed_read_count = 77});
  const auto info = ftl.lookup(3);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->block_reads, 77u);
}

TEST(CrashMountTest, RetirementSurvivesMount) {
  FtlConfig cfg = tiny_config();
  PageMappingFtl ftl(cfg);
  faults::FaultConfig fault_cfg;
  fault_cfg.enabled = true;
  fault_cfg.program_fail_rate = 0.02;
  fault_cfg.erase_fail_rate = 0.05;
  const faults::FaultInjector injector(fault_cfg, 0xC0FFEE);
  ftl.attach_fault_injector(&injector);
  Rng rng(7);
  for (int i = 0; i < 4000 && ftl.retired_block_count() < 2; ++i) {
    ftl.write(rng.below(200), PageMode::kNormal, i);
  }
  ASSERT_GE(ftl.retired_block_count(), 1u);
  const std::vector<std::uint32_t> before = ftl.retired_block_ids();
  const MountReport report = ftl.Mount();
  EXPECT_EQ(ftl.retired_block_ids(), before);
  EXPECT_EQ(report.retired_blocks, before.size());
  EXPECT_EQ(ftl.stats().retired_blocks, before.size());
  EXPECT_TRUE(ftl.check_consistency().ok());
  EXPECT_TRUE(ftl.double_mapped_lpns().empty());
}

TEST(CrashMountTest, VersionCountsHostWritesNotRelocations) {
  PageMappingFtl ftl(tiny_config());
  ftl.write(5, PageMode::kNormal, 1);
  ftl.write(5, PageMode::kNormal, 2);
  EXPECT_EQ(ftl.data_version(5), 2u);
  // Migration moves the same data: the durable version must not change,
  // or the harness would flag relocated-but-intact data as lost.
  ftl.migrate(5, PageMode::kReduced, 3);
  EXPECT_EQ(ftl.data_version(5), 2u);
  ftl.Mount();
  EXPECT_EQ(ftl.data_version(5), 2u);
  const auto info = ftl.lookup(5);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->mode, PageMode::kReduced);
}

TEST(CrashMountTest, ConsistencyCheckPassesAfterHeavyChurn) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    ftl.write(rng.below(300), PageMode::kNormal, i);
  }
  EXPECT_TRUE(ftl.check_consistency().ok());
  EXPECT_TRUE(ftl.double_mapped_lpns().empty());
  ftl.Mount();
  EXPECT_TRUE(ftl.check_consistency().ok());
  EXPECT_TRUE(ftl.double_mapped_lpns().empty());
}

}  // namespace
}  // namespace flex::ftl
