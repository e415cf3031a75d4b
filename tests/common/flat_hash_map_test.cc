#include "common/flat_hash_map.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace flex {
namespace {

TEST(FlatHashMapTest, InsertFindErase) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(42u), nullptr);

  auto [slot, inserted] = map.insert(42, 7);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*slot, 7);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find(42), nullptr);
  EXPECT_EQ(*map.find(42), 7);

  EXPECT_TRUE(map.erase(42));
  EXPECT_FALSE(map.erase(42));
  EXPECT_EQ(map.find(42), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatHashMapTest, DuplicateInsertKeepsOriginalValue) {
  FlatHashMap<int> map;
  map.insert(5, 1);
  auto [slot, inserted] = map.insert(5, 2);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(*slot, 1);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMapTest, GrowthPreservesEveryEntry) {
  FlatHashMap<std::uint64_t> map;  // grows through several rehashes
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t k = 0; k < kN; ++k) map.insert(k * 2654435761u, k);
  EXPECT_EQ(map.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t* value = map.find(k * 2654435761u);
    ASSERT_NE(value, nullptr) << k;
    EXPECT_EQ(*value, k);
  }
}

TEST(FlatHashMapTest, EraseKeepsSurvivorsFindable) {
  // Dense keys exercise the backward-shift deletion's cluster repair.
  FlatHashMap<std::uint64_t> map;
  constexpr std::uint64_t kN = 4096;
  for (std::uint64_t k = 0; k < kN; ++k) map.insert(k, k);
  for (std::uint64_t k = 0; k < kN; k += 2) EXPECT_TRUE(map.erase(k));
  EXPECT_EQ(map.size(), kN / 2);
  for (std::uint64_t k = 0; k < kN; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(map.find(k), nullptr) << k;
    } else {
      ASSERT_NE(map.find(k), nullptr) << k;
      EXPECT_EQ(*map.find(k), k);
    }
  }
}

TEST(FlatHashMapTest, ClearEmptiesTheMap) {
  FlatHashMap<int> map;
  for (std::uint64_t k = 0; k < 100; ++k) map.insert(k, 0);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5), nullptr);
  // The cleared table takes fresh inserts, including a key it held.
  EXPECT_TRUE(map.insert(50, 1).second);
  EXPECT_TRUE(map.insert(10, 2).second);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.find(50), 1);
  EXPECT_EQ(*map.find(10), 2);
}

}  // namespace
}  // namespace flex
