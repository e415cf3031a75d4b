#include "flexlevel/access_eval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/lru_map.h"
#include "common/rng.h"

namespace flex::flexlevel {
namespace {

AccessEval::Config small_config(std::uint64_t pool_pages = 8) {
  AccessEval::Config cfg;
  cfg.pool_capacity_pages = pool_pages;
  cfg.hotness = {.filter_count = 4,
                 .bits_per_filter = 1 << 12,
                 .hashes = 2,
                 .window_accesses = 16};
  return cfg;
}

// Reads `lpn` enough times (spread over hotness windows) to reach the top
// frequency level.
void make_hot(AccessEval& eval, std::uint64_t lpn, int extra_levels) {
  for (int i = 0; i < 100; ++i) {
    eval.on_read(lpn, extra_levels);
    eval.on_read(900'000 + static_cast<std::uint64_t>(i), 0);  // filler
  }
}

TEST(AccessEvalTest, SensingBuckets) {
  const AccessEval eval(small_config());
  EXPECT_EQ(eval.sensing_level_bucket(0), 1);
  EXPECT_EQ(eval.sensing_level_bucket(1), 2);
  EXPECT_EQ(eval.sensing_level_bucket(6), 2);  // M = 2 caps the bucket
}

TEST(AccessEvalTest, FreqLevels) {
  const AccessEval eval(small_config());  // 4 filters, N = 2
  EXPECT_EQ(eval.freq_level(0), 1);
  EXPECT_EQ(eval.freq_level(1), 1);
  EXPECT_EQ(eval.freq_level(2), 2);  // half the filters = hot
  EXPECT_EQ(eval.freq_level(4), 2);
}

TEST(AccessEvalTest, ColdDataIsNotMigrated) {
  AccessEval eval(small_config());
  // A single hard-decision read: L_f = 1, L_sensing = 1, product 1 <= 2.
  const AccessDecision d = eval.on_read(5, 0);
  EXPECT_FALSE(d.migrate_to_reduced);
  EXPECT_FALSE(d.evicted.has_value());
  EXPECT_FALSE(eval.is_reduced(5));
}

TEST(AccessEvalTest, HotSoftReadDataIsMigrated) {
  AccessEval eval(small_config());
  make_hot(eval, 5, /*extra_levels=*/2);
  EXPECT_TRUE(eval.is_reduced(5));
  EXPECT_GE(eval.pool_size(), 1u);
}

TEST(AccessEvalTest, HotHardReadDataStaysNormal) {
  // High read frequency alone is not HLO: with 0 extra sensing levels the
  // product L_f * L_sensing = 2 does not exceed the threshold.
  AccessEval eval(small_config());
  make_hot(eval, 5, /*extra_levels=*/0);
  EXPECT_FALSE(eval.is_reduced(5));
}

TEST(AccessEvalTest, ColdSoftReadDataStaysNormal) {
  AccessEval eval(small_config());
  const AccessDecision d = eval.on_read(5, 6);  // first read, deep soft
  EXPECT_FALSE(d.migrate_to_reduced);
}

TEST(AccessEvalTest, PoolNeverExceedsCapacity) {
  AccessEval eval(small_config(4));
  for (std::uint64_t lpn = 0; lpn < 20; ++lpn) {
    make_hot(eval, lpn, 4);
    EXPECT_LE(eval.pool_size(), 4u);
  }
  EXPECT_EQ(eval.pool_size(), 4u);
}

TEST(AccessEvalTest, EvictionIsLeastRecentlyRead) {
  AccessEval eval(small_config(2));
  make_hot(eval, 1, 4);
  make_hot(eval, 2, 4);
  ASSERT_TRUE(eval.is_reduced(1));
  ASSERT_TRUE(eval.is_reduced(2));
  // Touch 1 so 2 becomes the LRU, then admit 3.
  eval.on_read(1, 4);
  make_hot(eval, 3, 4);
  EXPECT_TRUE(eval.is_reduced(3));
  EXPECT_TRUE(eval.is_reduced(1));
  EXPECT_FALSE(eval.is_reduced(2));  // evicted
}

TEST(AccessEvalTest, EvictionIsReportedToCaller) {
  AccessEval eval(small_config(1));
  make_hot(eval, 1, 4);
  ASSERT_TRUE(eval.is_reduced(1));
  // Hotting up a second page must evict page 1 and say so.
  bool saw_eviction = false;
  for (int i = 0; i < 100 && !saw_eviction; ++i) {
    const AccessDecision d = eval.on_read(2, 4);
    if (d.evicted.has_value()) {
      EXPECT_EQ(*d.evicted, 1u);
      saw_eviction = true;
    }
    eval.on_read(900'000 + static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_TRUE(saw_eviction);
  EXPECT_FALSE(eval.is_reduced(1));
}

TEST(AccessEvalTest, FullPoolOnlyChurnsForMaximallyHotData) {
  AccessEval eval(small_config(2));
  make_hot(eval, 1, 4);
  make_hot(eval, 2, 4);
  ASSERT_EQ(eval.pool_size(), 2u);
  // A page at half-hotness (enough to qualify into a non-full pool) must
  // not displace members once the pool is full.
  AccessDecision d = eval.on_read(3, 4);
  d = eval.on_read(3, 4);  // hotness likely 1-2 here: below filter_count
  EXPECT_FALSE(d.migrate_to_reduced);
  EXPECT_TRUE(eval.is_reduced(1));
  EXPECT_TRUE(eval.is_reduced(2));
}

TEST(AccessEvalTest, InvalidateRemovesFromPool) {
  AccessEval eval(small_config());
  make_hot(eval, 7, 4);
  ASSERT_TRUE(eval.is_reduced(7));
  eval.on_invalidate(7);
  EXPECT_FALSE(eval.is_reduced(7));
  eval.on_invalidate(7);  // idempotent
}

TEST(AccessEvalTest, ShrinkCapacityEvictsLruTail) {
  AccessEval eval(small_config(4));
  make_hot(eval, 1, 4);
  make_hot(eval, 2, 4);
  make_hot(eval, 3, 4);
  ASSERT_EQ(eval.pool_size(), 3u);
  eval.on_read(1, 0);  // 1 becomes most recent: eviction order is 2, 3, 1
  const auto evicted = eval.shrink_capacity(1);
  EXPECT_EQ(eval.pool_capacity(), 1u);
  EXPECT_EQ(eval.pool_size(), 1u);
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_TRUE(eval.is_reduced(1));
  EXPECT_FALSE(eval.is_reduced(2));
  EXPECT_FALSE(eval.is_reduced(3));
}

TEST(AccessEvalTest, ShrinkCapacityIsMonotoneAndFloored) {
  AccessEval eval(small_config(8));
  // Growing back is ignored: retirement is permanent, so is the shrink.
  EXPECT_TRUE(eval.shrink_capacity(3).empty());
  EXPECT_EQ(eval.pool_capacity(), 3u);
  EXPECT_TRUE(eval.shrink_capacity(100).empty());
  EXPECT_EQ(eval.pool_capacity(), 3u);
  // A penalty larger than the budget floors at one page, not zero.
  EXPECT_TRUE(eval.shrink_capacity(0).empty());
  EXPECT_EQ(eval.pool_capacity(), 1u);
}

TEST(AccessEvalTest, ReducedPageReadsDoNotReMigrate) {
  AccessEval eval(small_config());
  make_hot(eval, 7, 4);
  ASSERT_TRUE(eval.is_reduced(7));
  const AccessDecision d = eval.on_read(7, 0);
  EXPECT_FALSE(d.migrate_to_reduced);
  EXPECT_FALSE(d.evicted.has_value());
}

// The controller as it stood over an LruMap (hash index plus node array):
// the reference the LPN-indexed pool must match decision for decision.
class LruMapAccessEval {
 public:
  explicit LruMapAccessEval(AccessEval::Config config)
      : config_(config), hotness_(config.hotness) {}

  AccessDecision on_read(std::uint64_t lpn, int extra_sensing_levels) {
    const int count = hotness_.record(lpn);
    AccessDecision decision;
    if (pool_.touch(lpn)) return decision;
    const int filters = hotness_.filter_count();
    const int freq =
        1 + std::min(count * config_.freq_levels / filters,
                     config_.freq_levels - 1);
    const int bucket =
        extra_sensing_levels == 0
            ? 1
            : std::min(2 + (extra_sensing_levels - 1) / 2,
                       config_.sensing_buckets);
    bool qualifies = freq * bucket > config_.overhead_threshold;
    if (qualifies) {
      const double fill = static_cast<double>(pool_.size()) /
                          static_cast<double>(config_.pool_capacity_pages);
      if (fill >= 0.95) {
        qualifies = count >= filters;
      } else if (fill >= 0.5) {
        qualifies = count >= filters / 2 + 1;
      }
    }
    if (qualifies) {
      decision.migrate_to_reduced = true;
      if (pool_.size() >= config_.pool_capacity_pages) {
        decision.evicted = pool_.pop_back();
      }
      pool_.push_front(lpn, 0);
    }
    return decision;
  }

  void on_invalidate(std::uint64_t lpn) { pool_.erase(lpn); }

  std::vector<std::uint64_t> shrink_capacity(std::uint64_t new_capacity) {
    new_capacity = std::max<std::uint64_t>(new_capacity, 1);
    config_.pool_capacity_pages =
        std::min(config_.pool_capacity_pages, new_capacity);
    std::vector<std::uint64_t> evicted;
    while (pool_.size() > config_.pool_capacity_pages) {
      evicted.push_back(pool_.pop_back());
    }
    return evicted;
  }

  std::vector<std::uint64_t> rebuild_pool(
      const std::vector<std::uint64_t>& lpns) {
    pool_.clear();
    hotness_.reset();
    std::vector<std::uint64_t> overflow;
    for (const std::uint64_t lpn : lpns) {
      if (pool_.size() >= config_.pool_capacity_pages) {
        overflow.push_back(lpn);
      } else {
        pool_.push_front(lpn, 0);
      }
    }
    return overflow;
  }

  bool is_reduced(std::uint64_t lpn) const { return pool_.contains(lpn); }
  std::uint64_t pool_size() const { return pool_.size(); }

 private:
  AccessEval::Config config_;
  MultiBloomHotness hotness_;
  LruMap<std::uint8_t> pool_;
};

TEST(AccessEvalTest, PoolMatchesLruMapReference) {
  constexpr std::uint64_t kMaxLpn = 4095;
  const AccessEval::Config config = small_config(48);
  AccessEval eval(config);
  LruMapAccessEval reference(config);
  Rng rng(2015);
  // The hot set includes both ends of the LPN range.
  std::vector<std::uint64_t> hot = {0, kMaxLpn};
  while (hot.size() < 96) hot.push_back(rng.below(kMaxLpn + 1));
  const auto expect_same_membership = [&](int step) {
    ASSERT_EQ(eval.pool_size(), reference.pool_size()) << "step " << step;
    for (std::uint64_t lpn = 0; lpn <= kMaxLpn; ++lpn) {
      ASSERT_EQ(eval.is_reduced(lpn), reference.is_reduced(lpn))
          << "lpn " << lpn << " step " << step;
    }
  };
  bool admitted_min = false;
  bool admitted_max = false;
  std::uint64_t evictions = 0;
  std::uint64_t capacity = config.pool_capacity_pages;
  for (int step = 0; step < 40'000; ++step) {
    const std::uint64_t roll = rng.below(1000);
    if (roll < 930) {
      const std::uint64_t lpn = rng.chance(0.7) ? hot[rng.below(hot.size())]
                                                : rng.below(kMaxLpn + 1);
      const int levels = static_cast<int>(rng.below(5));
      const AccessDecision got = eval.on_read(lpn, levels);
      const AccessDecision want = reference.on_read(lpn, levels);
      ASSERT_EQ(got.migrate_to_reduced, want.migrate_to_reduced)
          << "step " << step;
      ASSERT_EQ(got.evicted, want.evicted) << "step " << step;
      evictions += got.evicted.has_value();
      admitted_min |= lpn == 0 && got.migrate_to_reduced;
      admitted_max |= lpn == kMaxLpn && got.migrate_to_reduced;
    } else if (roll < 996) {
      const std::uint64_t lpn = rng.chance(0.5) ? hot[rng.below(hot.size())]
                                                : rng.below(kMaxLpn + 1);
      eval.on_invalidate(lpn);
      reference.on_invalidate(lpn);
    } else if (roll < 998) {
      capacity = std::max<std::uint64_t>(capacity - rng.below(3), 8);
      ASSERT_EQ(eval.shrink_capacity(capacity),
                reference.shrink_capacity(capacity))
          << "step " << step;
    } else {
      // Mount survivors: ascending, sometimes more than the budget holds.
      std::vector<std::uint64_t> survivors;
      for (std::uint64_t lpn = 0; lpn <= kMaxLpn; ++lpn) {
        if (rng.chance(0.012)) survivors.push_back(lpn);
      }
      ASSERT_EQ(eval.rebuild_pool(survivors),
                reference.rebuild_pool(survivors))
          << "step " << step;
    }
    ASSERT_EQ(eval.pool_size(), reference.pool_size()) << "step " << step;
    if (step % 4000 == 0) expect_same_membership(step);
  }
  expect_same_membership(-1);
  EXPECT_TRUE(admitted_min);
  EXPECT_TRUE(admitted_max);
  EXPECT_GT(evictions, 0u);
  // Full eviction order: drain both pools down to one page.
  EXPECT_EQ(eval.shrink_capacity(1), reference.shrink_capacity(1));
  expect_same_membership(-2);
  // LPNs past every admitted one read as non-members.
  EXPECT_FALSE(eval.is_reduced(kMaxLpn + 1));
  EXPECT_FALSE(eval.is_reduced(std::uint64_t{1} << 40));
}

}  // namespace
}  // namespace flex::flexlevel
