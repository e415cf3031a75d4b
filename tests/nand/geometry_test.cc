#include "nand/geometry.h"

#include <gtest/gtest.h>

namespace flex::nand {
namespace {

TEST(GeometryTest, Table6Defaults) {
  const NandSpec spec;
  EXPECT_EQ(spec.page_size_bytes, 16u * 1024);
  EXPECT_EQ(spec.pages_per_block * spec.page_size_bytes, 1024u * 1024);
  EXPECT_EQ(spec.blocks_per_chip, 4096u);
  EXPECT_EQ(spec.program_latency, 1000 * kMicrosecond);
  EXPECT_EQ(spec.read_latency, 90 * kMicrosecond);
  EXPECT_EQ(spec.erase_latency, 3 * kMillisecond);
  // 64 chips x 4096 blocks x 1 MB = 256 GB raw.
  EXPECT_EQ(spec.total_bytes(), 256ULL << 30);
}

}  // namespace
}  // namespace flex::nand
