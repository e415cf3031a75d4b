// CRC-64/XZ: the payload-seal checksum. The standard check vector pins
// the polynomial/reflection/xor conventions; the chaining and
// slice-vs-bitwise properties pin the implementation's internal
// consistency (the payload CRC in ftl/payload.cpp folds its words with
// crc64_fold, so folding must equal checksumming the bytes).
#include "common/crc64.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace flex {
namespace {

TEST(Crc64Test, StandardCheckVector) {
  // CRC-64/XZ ("123456789") — the catalogue check value.
  EXPECT_EQ(crc64("123456789", 9), 0x995DC9BBDF1939FAULL);
}

TEST(Crc64Test, EmptyInputIsZero) {
  EXPECT_EQ(crc64(nullptr, 0), 0ULL);
  EXPECT_EQ(crc64("x", 0), 0ULL);
}

TEST(Crc64Test, ChainingMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const std::uint64_t whole = crc64(data.data(), data.size());
  for (const std::size_t cut : {std::size_t{1}, std::size_t{8},
                                std::size_t{13}, std::size_t{64},
                                std::size_t{256}}) {
    const std::uint64_t head = crc64(data.data(), cut);
    EXPECT_EQ(crc64(data.data() + cut, data.size() - cut, head), whole)
        << "cut at " << cut;
  }
}

TEST(Crc64Test, SensitiveToEveryBit) {
  std::uint8_t data[32] = {};
  const std::uint64_t clean = crc64(data, sizeof data);
  for (std::size_t byte = 0; byte < sizeof data; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc64(data, sizeof data), clean)
          << "flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

TEST(Crc64Test, DistinctInputsDistinctCrcs) {
  // Not a collision-resistance proof, just a smoke check that the table
  // construction didn't degenerate (e.g. all-zero rows).
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    seen.push_back(crc64(&i, sizeof i));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(Crc64Test, FoldingWordsMatchesTheirLittleEndianBytes) {
  std::vector<std::uint64_t> words(17);
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = 0x0123456789ABCDEFULL * (i + 1) ^ (i << 59);
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(words[i] >> (8 * b)));
    }
  }
  for (const std::uint64_t start : {0ULL, 0xDEADBEEFULL}) {
    for (std::size_t n = 0; n <= words.size(); ++n) {
      std::uint64_t state = ~start;
      for (std::size_t i = 0; i < n; ++i) state = crc64_fold(state, words[i]);
      EXPECT_EQ(~state, crc64(bytes.data(), 8 * n, start))
          << n << " words from " << start;
    }
  }
}

TEST(Crc64Test, SelfTestPasses) { EXPECT_TRUE(crc64_selftest()); }

}  // namespace
}  // namespace flex
