#include "common/crc64.h"

#include <array>

namespace flex {
namespace {

constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;  // ECMA-182, reflected

using Tables = std::array<std::array<std::uint64_t, 256>, 8>;

constexpr Tables build_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint64_t crc = b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][b] = crc;
  }
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint64_t crc = t[0][b];
    for (std::size_t s = 1; s < 8; ++s) {
      crc = t[0][crc & 0xFF] ^ (crc >> 8);
      t[s][b] = crc;
    }
  }
  return t;
}

/// Bitwise reference implementation (selftest oracle only).
std::uint64_t crc64_bitwise(const void* data, std::size_t len,
                            std::uint64_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
  }
  return ~crc;
}

}  // namespace

constexpr Tables detail::kCrc64Tables = build_tables();

std::uint64_t crc64(const void* data, std::size_t len, std::uint64_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = detail::kCrc64Tables;
  crc = ~crc;
  while (len >= 8) {
    // Little-endian-independent load: assemble the word byte by byte.
    crc = crc64_fold(crc, static_cast<std::uint64_t>(p[0]) |
                              static_cast<std::uint64_t>(p[1]) << 8 |
                              static_cast<std::uint64_t>(p[2]) << 16 |
                              static_cast<std::uint64_t>(p[3]) << 24 |
                              static_cast<std::uint64_t>(p[4]) << 32 |
                              static_cast<std::uint64_t>(p[5]) << 40 |
                              static_cast<std::uint64_t>(p[6]) << 48 |
                              static_cast<std::uint64_t>(p[7]) << 56);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

bool crc64_selftest() {
  static const unsigned char kCheck[] = {'1', '2', '3', '4', '5',
                                         '6', '7', '8', '9'};
  if (crc64(kCheck, sizeof(kCheck)) != 0x995DC9BBDF1939FAULL) return false;
  unsigned char buf[61];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  // Slice-by-8 vs bitwise, across split points that exercise the
  // head/tail remainder paths and chaining.
  const std::uint64_t want = crc64_bitwise(buf, sizeof(buf), 0);
  if (crc64(buf, sizeof(buf)) != want) return false;
  for (std::size_t cut : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                          std::size_t{23}, std::size_t{60}}) {
    if (crc64(buf + cut, sizeof(buf) - cut, crc64(buf, cut)) != want) {
      return false;
    }
  }
  return crc64(nullptr, 0) == 0;
}

}  // namespace flex
