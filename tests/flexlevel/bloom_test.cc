#include "flexlevel/bloom.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace flex::flexlevel {
namespace {

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter filter(1 << 14, 3);
  Rng rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.next());
  for (const auto k : keys) filter.insert(k);
  for (const auto k : keys) EXPECT_TRUE(filter.contains(k));
}

TEST(BloomFilterTest, FalsePositiveRateBounded) {
  BloomFilter filter(1 << 14, 2);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) filter.insert(rng.next());
  int false_positives = 0;
  const int probes = 20'000;
  for (int i = 0; i < probes; ++i) {
    if (filter.contains(rng.next() | (1ULL << 63))) ++false_positives;
  }
  // n/m = 1000/16384, k=2 -> theoretical fp ~ (1-e^{-2n/m})^2 ~ 1.3%.
  EXPECT_LT(static_cast<double>(false_positives) / probes, 0.05);
}

TEST(BloomFilterTest, ClearEmpties) {
  BloomFilter filter(1 << 10, 2);
  filter.insert(42);
  ASSERT_TRUE(filter.contains(42));
  filter.clear();
  EXPECT_FALSE(filter.contains(42));
}

TEST(BloomFilterTest, RoundsBitsUpToPowerOfTwo) {
  BloomFilter filter(100, 1);
  EXPECT_EQ(filter.bit_count(), 128u);
}

TEST(MultiBloomTest, HotnessGrowsWithRepeatedReads) {
  MultiBloomHotness hot({.filter_count = 4,
                         .bits_per_filter = 1 << 12,
                         .hashes = 2,
                         .window_accesses = 100});
  // One access registers in the current filter only.
  EXPECT_EQ(hot.record(7), 1);
  EXPECT_EQ(hot.hotness(7), 1);
  // Accesses spread over several windows accumulate filter hits; the
  // filter that rotated most recently may not have seen the key yet, so
  // steady-state hotness is filter_count or filter_count - 1.
  for (int i = 0; i < 400; ++i) {
    hot.record(7);
    hot.record(static_cast<std::uint64_t>(1000 + i));  // window filler
  }
  EXPECT_GE(hot.hotness(7), 3);
}

TEST(MultiBloomTest, ColdKeysStayCold) {
  MultiBloomHotness hot({.filter_count = 4,
                         .bits_per_filter = 1 << 14,
                         .hashes = 2,
                         .window_accesses = 50});
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) hot.record(rng.below(100));
  // A key never accessed should (almost surely) show hotness 0.
  EXPECT_LE(hot.hotness(999'999'999ULL), 1);
}

TEST(MultiBloomTest, RotationAgesOutOldKeys) {
  MultiBloomHotness hot({.filter_count = 3,
                         .bits_per_filter = 1 << 12,
                         .hashes = 2,
                         .window_accesses = 10});
  hot.record(42);
  EXPECT_GE(hot.hotness(42), 1);
  // Three full window rotations without touching 42 clear every filter that
  // contained it.
  for (int i = 0; i < 35; ++i) hot.record(static_cast<std::uint64_t>(100 + i));
  EXPECT_EQ(hot.hotness(42), 0);
}

TEST(MultiBloomTest, HotnessNeverExceedsFilterCount) {
  MultiBloomHotness hot({.filter_count = 2,
                         .bits_per_filter = 1 << 12,
                         .hashes = 2,
                         .window_accesses = 5});
  for (int i = 0; i < 200; ++i) hot.record(1);
  EXPECT_LE(hot.hotness(1), 2);
}

TEST(MultiBloomTest, RecordMatchesPerFilterContains) {
  // record() hashes once and skips the filter it just inserted into; a
  // reference window of plain filters, probed key by key, must agree on
  // every access of a seeded stream that crosses many rotations.
  const MultiBloomHotness::Config config{.filter_count = 4,
                                         .bits_per_filter = 1 << 10,
                                         .hashes = 3,
                                         .window_accesses = 37};
  MultiBloomHotness hot(config);
  std::vector<BloomFilter> reference(config.filter_count,
                                     BloomFilter(config.bits_per_filter,
                                                 config.hashes));
  std::size_t current = 0;
  std::uint64_t in_window = 0;
  Rng rng(2015);
  int rotations = 0;
  for (int i = 0; i < 5000; ++i) {
    // A small hot set plus a uniform tail, so counts span 1..filter_count.
    const std::uint64_t key =
        rng.chance(0.6) ? rng.below(40) : rng.below(1'000'000);
    reference[current].insert(key);
    if (++in_window >= config.window_accesses) {
      in_window = 0;
      current = (current + 1) % reference.size();
      reference[current].clear();
      ++rotations;
    }
    int expected = 0;
    for (const auto& filter : reference) expected += filter.contains(key);
    ASSERT_EQ(hot.record(key), expected) << "access " << i;
    ASSERT_EQ(hot.hotness(key), expected) << "access " << i;
  }
  EXPECT_GE(rotations, 100);
}

}  // namespace
}  // namespace flex::flexlevel
