// Rotating multi-Bloom-filter hot-data identifier, after Park & Du's
// "Hot and cold data identification for flash memory using multiple bloom
// filters" [13] — the technique the paper cites for finding frequently-read
// data inside AccessEval.
//
// `filter_count` Bloom filters form a sliding window over the read stream:
// each access inserts the key into the current filter, and every
// `window_accesses` accesses the oldest filter is cleared and becomes
// current. A key's hotness is the number of filters that contain it
// (0..filter_count), i.e. a coarse recency-weighted frequency.
#pragma once

#include <cstdint>
#include <vector>

namespace flex::flexlevel {

class BloomFilter {
 public:
  /// A key's double-hash pair: probe i sets bit (h1 + i*h2) mod size. It
  /// depends only on the key, so filters of one size share it.
  struct KeyHash {
    std::uint64_t h1;
    std::uint64_t h2;  ///< odd stride
  };
  static KeyHash hash(std::uint64_t key);

  /// `bits` is rounded up to a power of two; `hashes` >= 1.
  BloomFilter(std::size_t bits, int hashes);

  void insert(std::uint64_t key) { insert(hash(key)); }
  bool contains(std::uint64_t key) const { return contains(hash(key)); }
  void insert(const KeyHash& h);
  bool contains(const KeyHash& h) const;
  void clear();

  std::size_t bit_count() const { return bits_.size() * 64; }
  int hash_count() const { return hashes_; }

 private:
  std::uint64_t bit(const KeyHash& h, int i) const {
    return (h.h1 + static_cast<std::uint64_t>(i) * h.h2) & mask_;
  }

  std::vector<std::uint64_t> bits_;
  std::uint64_t mask_;
  int hashes_;
};

class MultiBloomHotness {
 public:
  struct Config {
    int filter_count = 4;
    std::size_t bits_per_filter = 1 << 16;
    int hashes = 2;
    std::uint64_t window_accesses = 4096;
  };

  MultiBloomHotness() : MultiBloomHotness(Config{}) {}
  explicit MultiBloomHotness(Config config);

  /// Records an access and returns the key's hotness *after* recording,
  /// in [1, filter_count]. Hashes the key once for every filter.
  int record(std::uint64_t key);

  /// Hotness without recording, in [0, filter_count].
  int hotness(std::uint64_t key) const;

  /// Forgets every recorded access (power-on recovery: the filters are
  /// controller DRAM and do not survive; hotness re-learns from scratch).
  void reset();

  int filter_count() const { return static_cast<int>(filters_.size()); }

 private:
  Config config_;
  std::vector<BloomFilter> filters_;
  std::size_t current_ = 0;
  std::uint64_t accesses_in_window_ = 0;
};

}  // namespace flex::flexlevel
