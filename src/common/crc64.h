// CRC-64/XZ (ECMA-182 polynomial, reflected), slice-by-8.
//
// The end-to-end integrity layer seals every programmed page with a
// CRC of its (synthetic) payload bytes; this is the checksum. The
// variant is CRC-64/XZ: reflected ECMA-182 polynomial
// 0xC96C5795D7870F42, init and xorout all-ones, check value
// crc64("123456789") == 0x995DC9BBDF1939FA. Slice-by-8 processes eight
// input bytes per table round (`crc64_fold`); the tables are built at
// compile time from the bitwise definition, and `crc64_selftest()`
// re-derives a vector bitwise at runtime so a miscompiled table can
// never silently seal pages.
//
// The API chains: `crc64(b, n)` one-shot, or feed pieces through the
// `crc` parameter (`crc64(p2, n2, crc64(p1, n1))`) — internally the
// running state is kept pre-inverted so chaining needs no finalize
// step by the caller. A producer of 64-bit words folds them straight
// into that pre-inverted state with `crc64_fold`, without serialising
// them to bytes first.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace flex {

namespace detail {
/// Slice-by-8 tables: kCrc64Tables[s][b] is the CRC register after byte
/// value b is followed by s zero bytes.
extern const std::array<std::array<std::uint64_t, 256>, 8> kCrc64Tables;
}  // namespace detail

/// One slice-by-8 round: folds `word`, taken as its eight little-endian
/// bytes, into the pre-inverted CRC-64/XZ state. Starting from
/// `state = ~crc` and folding words w0..wn-1 gives `~state ==
/// crc64(<their 8n little-endian bytes>, 8n, crc)`.
inline std::uint64_t crc64_fold(std::uint64_t state, std::uint64_t word) {
  const auto& t = detail::kCrc64Tables;
  state ^= word;
  return t[7][state & 0xFF] ^ t[6][(state >> 8) & 0xFF] ^
         t[5][(state >> 16) & 0xFF] ^ t[4][(state >> 24) & 0xFF] ^
         t[3][(state >> 32) & 0xFF] ^ t[2][(state >> 40) & 0xFF] ^
         t[1][(state >> 48) & 0xFF] ^ t[0][state >> 56];
}

/// CRC-64/XZ of `len` bytes at `data`, continuing from `crc`
/// (0 = fresh). Chaining is exact: crc64(ab) == crc64(b, crc64(a)).
std::uint64_t crc64(const void* data, std::size_t len,
                    std::uint64_t crc = 0);

/// True iff the slice-by-8 tables reproduce the bitwise reference on
/// the standard check vector and a few structured ones.
bool crc64_selftest();

}  // namespace flex
