#include "ftl/payload.h"

namespace flex::ftl {
namespace {

/// splitmix64 finalizer (same primitive as faults::FaultInjector).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Per-generation hash every word of the page derives from: word `i` is
/// mix(generation_hash ^ i).
std::uint64_t generation_hash(std::uint64_t seed, std::uint64_t lpn,
                              std::uint64_t version) {
  return mix(mix(seed ^ mix(lpn)) ^ version);
}

void store_le(std::uint64_t word, std::uint8_t* out) {
  for (int b = 0; b < 8; ++b) {
    out[b] = static_cast<std::uint8_t>(word >> (8 * b));
  }
}

}  // namespace

std::vector<std::uint8_t> PayloadModel::generate(std::uint64_t lpn,
                                                 std::uint64_t version) const {
  const std::uint64_t h = generation_hash(seed_, lpn, version);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(words_) * 8);
  for (std::uint32_t w = 0; w < words_; ++w) {
    store_le(mix(h ^ w), bytes.data() + static_cast<std::size_t>(w) * 8);
  }
  return bytes;
}

std::uint64_t PayloadModel::crc(std::uint64_t lpn,
                                std::uint64_t version) const {
  // generate() stores each word little-endian, which is exactly the byte
  // order crc64_fold takes a word in, so folding the words equals
  // crc64(generate(lpn, version)) without serialising a byte.
  const std::uint64_t h = generation_hash(seed_, lpn, version);
  std::uint64_t state = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < words_; ++w) {
    state = crc64_fold(state, mix(h ^ w));
  }
  return ~state;
}

}  // namespace flex::ftl
