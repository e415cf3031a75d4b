// PayloadModel: the hot-path crc() must equal the CRC64 of the bytes
// generate() materializes, for any page length, and must keep producing
// the seal values every committed integrity result was computed with.
#include "ftl/payload.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "common/crc64.h"

namespace flex::ftl {
namespace {

TEST(PayloadModelTest, CrcEqualsCrcOfGeneratedBytes) {
  // 1..17 words cover short pages, the default 8 and the lengths around
  // it; 64/65/130 are long pages. crc() folds words with crc64_fold while
  // crc64() assembles them from bytes, so every length compares the two.
  for (std::uint32_t words = 1; words <= 17; ++words) {
    const PayloadModel model(2015, words);
    for (std::uint64_t lpn : {0ULL, 1ULL, 4097ULL, 0xFFFFFFFEULL}) {
      for (std::uint64_t version : {0ULL, 1ULL, 9ULL}) {
        const auto bytes = model.generate(lpn, version);
        ASSERT_EQ(bytes.size(), std::size_t{words} * 8);
        EXPECT_EQ(model.crc(lpn, version), crc64(bytes.data(), bytes.size()))
            << "words " << words << " lpn " << lpn << " v " << version;
      }
    }
  }
  for (std::uint32_t words : {64u, 65u, 130u}) {
    const PayloadModel model(7, words);
    const auto bytes = model.generate(123, 4);
    EXPECT_EQ(model.crc(123, 4), crc64(bytes.data(), bytes.size()))
        << "words " << words;
  }
}

TEST(PayloadModelTest, CrcValuesArePinned) {
  // Seal values computed by the original per-word implementation; a
  // change here would silently re-key every stored seal.
  struct Case {
    std::uint64_t seed;
    std::uint32_t words;
    std::uint64_t lpn;
    std::uint64_t version;
    std::uint64_t crc;
  };
  const Case cases[] = {
      {2015, 8, 0, 0, 0xBD5786F026A9617EULL},
      {2015, 8, 0, 1, 0xB8B7FCE65C6F07B2ULL},
      {2015, 8, 123456, 7, 0x50F4CCC67D1CB1B4ULL},
      {2015, 1, 42, 3, 0x0D95C6BB53F2C922ULL},
      {0xC0FFEE, 17, 99999, 1, 0x3B8E6467EA933DE6ULL},
      {7, 65, 5, 2, 0x0B58533BE3C72DCEULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(PayloadModel(c.seed, c.words).crc(c.lpn, c.version), c.crc)
        << "seed " << c.seed << " words " << c.words << " lpn " << c.lpn;
  }
}

}  // namespace
}  // namespace flex::ftl
