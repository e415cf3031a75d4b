#include "flexlevel/bloom.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"

namespace flex::flexlevel {

BloomFilter::BloomFilter(std::size_t bits, int hashes) : hashes_(hashes) {
  FLEX_EXPECTS(bits >= 64);
  FLEX_EXPECTS(hashes >= 1);
  const std::size_t words = std::bit_ceil(bits) / 64;
  bits_.assign(words, 0);
  mask_ = static_cast<std::uint64_t>(words) * 64 - 1;
}

BloomFilter::KeyHash BloomFilter::hash(std::uint64_t key) {
  // Double hashing: h1 + i*h2, both derived from a splitmix-style mix.
  std::uint64_t x = key + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  std::uint64_t y = key ^ 0xC2B2AE3D27D4EB4FULL;
  y = (y ^ (y >> 33)) * 0xFF51AFD7ED558CCDULL;
  return {.h1 = x ^ (x >> 31), .h2 = (y ^ (y >> 33)) | 1};
}

void BloomFilter::insert(const KeyHash& h) {
  for (int i = 0; i < hashes_; ++i) {
    const std::uint64_t b = bit(h, i);
    bits_[b / 64] |= 1ULL << (b % 64);
  }
}

bool BloomFilter::contains(const KeyHash& h) const {
  for (int i = 0; i < hashes_; ++i) {
    const std::uint64_t b = bit(h, i);
    if (!(bits_[b / 64] & (1ULL << (b % 64)))) return false;
  }
  return true;
}

void BloomFilter::clear() { std::fill(bits_.begin(), bits_.end(), 0); }

MultiBloomHotness::MultiBloomHotness(Config config) : config_(config) {
  FLEX_EXPECTS(config_.filter_count >= 2);
  FLEX_EXPECTS(config_.window_accesses >= 1);
  filters_.reserve(static_cast<std::size_t>(config_.filter_count));
  for (int i = 0; i < config_.filter_count; ++i) {
    filters_.emplace_back(config_.bits_per_filter, config_.hashes);
  }
  // record() probes every filter with one KeyHash; with one size, it names
  // the same bit positions in each.
  for (const auto& filter : filters_) {
    FLEX_ENSURES(filter.bit_count() == filters_.front().bit_count());
  }
}

int MultiBloomHotness::record(std::uint64_t key) {
  const BloomFilter::KeyHash h = BloomFilter::hash(key);
  const std::size_t inserted = current_;
  filters_[inserted].insert(h);
  if (++accesses_in_window_ >= config_.window_accesses) {
    accesses_in_window_ = 0;
    current_ = (current_ + 1) % filters_.size();
    filters_[current_].clear();  // the oldest filter becomes current
  }
  // The filter just inserted into holds the key (a rotation clears a
  // different one: filter_count >= 2); probe only the others.
  int count = 1;
  for (std::size_t i = 0; i < filters_.size(); ++i) {
    if (i != inserted && filters_[i].contains(h)) ++count;
  }
  return count;
}

void MultiBloomHotness::reset() {
  for (auto& filter : filters_) filter.clear();
  current_ = 0;
  accesses_in_window_ = 0;
}

int MultiBloomHotness::hotness(std::uint64_t key) const {
  const BloomFilter::KeyHash h = BloomFilter::hash(key);
  int count = 0;
  for (const auto& filter : filters_) {
    if (filter.contains(h)) ++count;
  }
  return count;
}

}  // namespace flex::flexlevel
