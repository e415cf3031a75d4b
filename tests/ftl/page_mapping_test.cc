#include "ftl/page_mapping.h"

#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

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

TEST(PageMappingTest, CapacityAccounting) {
  const PageMappingFtl ftl(tiny_config());
  EXPECT_EQ(ftl.physical_blocks(), 32u);
  EXPECT_EQ(ftl.logical_pages(), 384u);  // 512 * 0.75
  EXPECT_EQ(ftl.free_blocks(), 32u);
}

TEST(PageMappingTest, LookupUnwrittenIsEmpty) {
  const PageMappingFtl ftl(tiny_config());
  EXPECT_FALSE(ftl.lookup(0).has_value());
  EXPECT_FALSE(ftl.lookup(383).has_value());
}

TEST(PageMappingTest, WriteThenLookup) {
  PageMappingFtl ftl(tiny_config());
  const WriteResult w = ftl.write(7, PageMode::kNormal, 1234);
  const auto info = ftl.lookup(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->ppn, w.ppn);
  EXPECT_EQ(info->mode, PageMode::kNormal);
  EXPECT_EQ(info->write_time, 1234);
}

TEST(PageMappingTest, OverwriteRemaps) {
  PageMappingFtl ftl(tiny_config());
  const WriteResult first = ftl.write(7, PageMode::kNormal, 1);
  const WriteResult second = ftl.write(7, PageMode::kNormal, 2);
  EXPECT_NE(first.ppn, second.ppn);
  const auto info = ftl.lookup(7);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->ppn, second.ppn);
  EXPECT_EQ(info->write_time, 2);
}

TEST(PageMappingTest, ReducedBlocksHoldFewerPages) {
  PageMappingFtl ftl(tiny_config());
  // 16 pages/block * 0.75 = 12 usable slots in a reduced block: writing 13
  // reduced pages must span two blocks.
  std::uint64_t first_block_ppn = 0;
  for (std::uint64_t lpn = 0; lpn < 13; ++lpn) {
    const WriteResult w = ftl.write(lpn, PageMode::kReduced, 0);
    if (lpn == 0) first_block_ppn = w.ppn / 16;
    if (lpn < 12) {
      EXPECT_EQ(w.ppn / 16, first_block_ppn) << "lpn " << lpn;
    } else {
      EXPECT_NE(w.ppn / 16, first_block_ppn);
    }
  }
  EXPECT_EQ(ftl.reduced_blocks(), 2u);
}

TEST(PageMappingTest, MigrateSwitchesMode) {
  PageMappingFtl ftl(tiny_config());
  ftl.write(5, PageMode::kNormal, 10);
  const WriteResult moved = ftl.migrate(5, PageMode::kReduced, 20);
  EXPECT_EQ(moved.mode, PageMode::kReduced);
  const auto info = ftl.lookup(5);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->mode, PageMode::kReduced);
  EXPECT_EQ(info->write_time, 20);
  EXPECT_EQ(ftl.stats().mode_migrations, 1u);
}

TEST(PageMappingTest, GcReclaimsInvalidatedSpace) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(1);
  // Hammer a small working set: far more writes than physical pages fit,
  // which is only possible if GC keeps reclaiming.
  for (int i = 0; i < 5'000; ++i) {
    ftl.write(rng.below(100), PageMode::kNormal, i);
  }
  EXPECT_GT(ftl.stats().nand_erases, 0u);
  EXPECT_GT(ftl.stats().gc_runs, 0u);
  EXPECT_GE(ftl.free_blocks(), 3u);  // watermark held
}

TEST(PageMappingTest, GcPreservesAllLiveData) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(2);
  std::unordered_map<std::uint64_t, SimTime> expected;
  for (int i = 0; i < 8'000; ++i) {
    const std::uint64_t lpn = rng.below(ftl.logical_pages());
    ftl.write(lpn, rng.chance(0.2) ? PageMode::kReduced : PageMode::kNormal,
              i);
    expected[lpn] = i;
  }
  // Every logical page written must still resolve; unwritten ones must not.
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    const auto info = ftl.lookup(lpn);
    EXPECT_EQ(info.has_value(), expected.contains(lpn)) << "lpn " << lpn;
  }
}

TEST(PageMappingTest, WriteTimesSurviveGcRefreshAndMount) {
  // A page's write time is its last program: the host write, or the GC,
  // refresh or migration move that last relocated it. The reference is
  // derived from the outside: any lpn whose ppn changed during an
  // operation was programmed at that operation's time.
  PageMappingFtl ftl(tiny_config());
  Rng rng(2015);
  std::vector<SimTime> expected(ftl.logical_pages(), 0);
  std::vector<std::uint32_t> before = ftl.l2p_dump();
  std::uint64_t refreshes = 0;
  for (SimTime now = 1; now <= 6'000; ++now) {
    const std::uint64_t lpn = rng.below(ftl.logical_pages());
    const auto info = ftl.lookup(lpn);
    const std::uint64_t roll = rng.below(100);
    if (info && roll < 10) {
      ftl.migrate(lpn,
                  info->mode == PageMode::kNormal ? PageMode::kReduced
                                                  : PageMode::kNormal,
                  now);
    } else if (info && roll < 14) {
      refreshes += ftl.refresh_block(info->ppn, now).has_value();
    } else {
      // Overwrites concentrate on a small range so GC finds cold blocks.
      const std::uint64_t target = rng.chance(0.7) ? rng.below(64) : lpn;
      ftl.write(target,
                rng.chance(0.2) ? PageMode::kReduced : PageMode::kNormal, now);
    }
    const std::vector<std::uint32_t>& after = ftl.l2p_dump();
    for (std::uint64_t l = 0; l < after.size(); ++l) {
      if (after[l] != before[l]) expected[l] = now;
    }
    before = after;
  }
  ASSERT_GT(ftl.stats().gc_page_moves, 0u);
  ASSERT_GT(ftl.stats().mode_migrations, 0u);
  ASSERT_GT(refreshes, 0u);
  const auto expect_write_times = [&](const char* phase) {
    for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
      const auto info = ftl.lookup(lpn);
      if (!info) continue;
      ASSERT_EQ(info->write_time, expected[lpn])
          << phase << ": lpn " << lpn;
    }
  };
  expect_write_times("live");
  const std::vector<std::uint32_t> live_map = ftl.l2p_dump();
  ftl.Mount();
  EXPECT_EQ(ftl.l2p_dump(), live_map);
  expect_write_times("mounted");
  EXPECT_TRUE(ftl.check_consistency().ok());
  EXPECT_TRUE(ftl.double_mapped_lpns().empty());
}

TEST(PageMappingTest, WriteAmplificationAboveOneUnderChurn) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    ftl.write(rng.below(ftl.logical_pages()), PageMode::kNormal, i);
  }
  EXPECT_GT(ftl.stats().write_amplification(), 1.0);
  EXPECT_EQ(ftl.stats().nand_writes,
            ftl.stats().host_writes + ftl.stats().gc_page_moves);
}

TEST(PageMappingTest, ReducedModeCausesMoreGc) {
  // Reduced blocks waste a quarter of their slots, so the same workload
  // must erase more often — the over-provisioning-loss effect behind
  // LevelAdjust-only's Fig. 6(a) penalty.
  const auto churn = [](PageMode mode) {
    PageMappingFtl ftl(tiny_config());
    Rng rng(4);
    for (int i = 0; i < 10'000; ++i) {
      ftl.write(rng.below(300), mode, i);
    }
    return ftl.stats().nand_erases;
  };
  EXPECT_GT(churn(PageMode::kReduced), churn(PageMode::kNormal));
}

TEST(PageMappingTest, WearStaysRoughlyLevelled) {
  FtlConfig cfg = tiny_config();
  cfg.static_wl_interval = 16;
  PageMappingFtl ftl(cfg);
  Rng rng(5);
  // Skewed workload: a cold half that greedy GC alone would never touch.
  for (int i = 0; i < 30'000; ++i) {
    ftl.write(rng.below(ftl.logical_pages() / 2), PageMode::kNormal, i);
  }
  ASSERT_GT(ftl.max_erase_count(), 0u);
  // Static wear leveling circulates even the cold blocks.
  EXPECT_GT(ftl.min_erase_count(), 0u);
  EXPECT_GT(ftl.mean_erase_count(), 0.0);
}

TEST(PageMappingTest, StaticWlDisabledLeavesColdBlocksAlone) {
  FtlConfig cfg = tiny_config();
  cfg.static_wl_interval = 0;
  PageMappingFtl ftl(cfg);
  Rng rng(6);
  // Fill everything once, then churn only a hot quarter: the cold blocks
  // stay full-valid and are never reclaimed without static WL.
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ftl.write(lpn, PageMode::kNormal, 0);
  }
  for (int i = 0; i < 20'000; ++i) {
    ftl.write(rng.below(ftl.logical_pages() / 4), PageMode::kNormal, i);
  }
  EXPECT_EQ(ftl.min_erase_count(), 0u);
}

TEST(PageMappingTest, InitialPeCyclesApplied) {
  FtlConfig cfg = tiny_config();
  cfg.initial_pe_cycles = 6000;
  PageMappingFtl ftl(cfg);
  ftl.write(0, PageMode::kNormal, 0);
  const auto info = ftl.lookup(0);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->pe_cycles, 6000u);
  EXPECT_EQ(ftl.min_erase_count(), 6000u);
}

// l2p_dump() is the raw 32-bit table: kUnmappedPpn for an lpn with no
// copy, the ppn of its live copy otherwise. A superseded copy's ppn
// disappears from the table when the overwrite invalidates it.
TEST(PageMappingTest, L2pDumpShowsUnmappedSentinel) {
  PageMappingFtl ftl(tiny_config());
  const std::vector<std::uint32_t>& l2p = ftl.l2p_dump();
  ASSERT_EQ(l2p.size(), ftl.logical_pages());
  for (const std::uint32_t entry : l2p) {
    ASSERT_EQ(entry, PageMappingFtl::kUnmappedPpn);
  }
  const WriteResult first = ftl.write(7, PageMode::kNormal, 1);
  EXPECT_EQ(l2p[7], first.ppn);
  EXPECT_EQ(l2p[6], PageMappingFtl::kUnmappedPpn);
  EXPECT_EQ(l2p[8], PageMappingFtl::kUnmappedPpn);

  const WriteResult second = ftl.write(7, PageMode::kNormal, 2);
  ASSERT_NE(first.ppn, second.ppn);
  EXPECT_EQ(l2p[7], second.ppn);
  for (const std::uint32_t entry : l2p) EXPECT_NE(entry, first.ppn);

  // Through GC churn and a mount, every entry still agrees with lookup().
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    ftl.write(rng.below(200), PageMode::kNormal, i);
  }
  (void)ftl.Mount();
  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    const auto info = ftl.lookup(lpn);
    if (info.has_value()) {
      EXPECT_EQ(ftl.l2p_dump()[lpn], info->ppn) << lpn;
    } else {
      EXPECT_EQ(ftl.l2p_dump()[lpn], PageMappingFtl::kUnmappedPpn) << lpn;
    }
  }
  EXPECT_TRUE(ftl.check_consistency().ok());
}

// prefetch() only warms cache lines: on every kind of lpn — never written,
// mapped, overwritten (its first copy invalidated), relocated by GC, in
// either mode — the FTL's observable state is the same before and after.
TEST(PageMappingTest, PrefetchHasNoSideEffects) {
  PageMappingFtl ftl(tiny_config());
  Rng rng(11);
  // Half the lpns are written, a hot tenth of those churned hard enough
  // for GC to relocate cold pages; the rest stay unmapped.
  const std::uint64_t written = ftl.logical_pages() / 2;
  for (std::uint64_t lpn = 0; lpn < written; ++lpn) {
    ftl.write(lpn, lpn % 5 == 0 ? PageMode::kReduced : PageMode::kNormal, 0);
  }
  for (int i = 0; i < 3'000; ++i) {
    ftl.write(rng.below(written / 10), PageMode::kNormal, i + 1);
  }
  for (std::uint64_t lpn = 0; lpn < written; lpn += 7) {
    ftl.record_read(ftl.lookup(lpn)->ppn);
  }
  ASSERT_GT(ftl.stats().gc_page_moves, 0u);
  ASSERT_GT(ftl.reduced_blocks(), 0u);
  ASSERT_FALSE(ftl.lookup(ftl.logical_pages() - 1).has_value());

  using Seen = std::optional<
      std::tuple<std::uint64_t, PageMode, SimTime, std::uint32_t,
                 std::uint64_t>>;
  const auto lookups = [&ftl] {
    std::vector<Seen> seen;
    for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
      const std::optional<PageInfo> info = ftl.lookup(lpn);
      seen.push_back(info ? Seen(std::tuple(info->ppn, info->mode,
                                            info->write_time, info->pe_cycles,
                                            info->block_reads))
                          : std::nullopt);
    }
    return seen;
  };
  const FtlStats stats = ftl.stats();
  const std::vector<std::uint32_t> l2p = ftl.l2p_dump();
  const std::uint64_t epoch = ftl.write_epoch();
  const std::vector<Seen> before = lookups();

  for (std::uint64_t lpn = 0; lpn < ftl.logical_pages(); ++lpn) {
    ftl.prefetch(lpn);
  }
  EXPECT_EQ(ftl.stats(), stats);
  EXPECT_EQ(ftl.l2p_dump(), l2p);
  EXPECT_EQ(ftl.write_epoch(), epoch);
  EXPECT_EQ(lookups(), before);
  EXPECT_TRUE(ftl.check_consistency().ok());
}

TEST(PageMappingDeathTest, MigrateRequiresMappedPage) {
  PageMappingFtl ftl(tiny_config());
  EXPECT_DEATH((void)ftl.migrate(3, PageMode::kReduced, 0), "precondition");
}

TEST(PageMappingDeathTest, LpnRangeChecked) {
  PageMappingFtl ftl(tiny_config());
  EXPECT_DEATH((void)ftl.write(ftl.logical_pages(), PageMode::kNormal, 0),
               "precondition");
}

// map_ stores ppns in 32 bits with kUnmappedPpn as the sentinel, so a
// geometry of 2^32 pages is refused by the constructor's first check,
// before it sizes any per-page or per-block table (here those would be
// hundreds of GiB).
TEST(PageMappingDeathTest, GeometryBeyondU32PpnsRefusedUpFront) {
  FtlConfig cfg = tiny_config();
  cfg.spec.pages_per_block = 1024;
  cfg.spec.blocks_per_chip = 65536;
  cfg.spec.chips = 64;
  ASSERT_GE(cfg.spec.total_pages(), std::uint64_t{1} << 32);
  EXPECT_DEATH(PageMappingFtl{cfg},
               "precondition violated: config_\\.spec\\.total_pages\\(\\) "
               "< kUnmappedPpn");
}

}  // namespace
}  // namespace flex::ftl
