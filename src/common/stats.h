// Streaming statistics and histograms used by the BER engine, the SSD
// response-time accounting, and the benchmark harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flex {

/// Numerically stable (Welford) accumulator for mean/variance/min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double mean() const;
  double variance() const;  ///< population variance; 0 for < 2 samples
  double stddev() const;
  double min() const;  ///< +inf when empty
  double max() const;  ///< -inf when empty
  double sum() const { return sum_; }

  bool operator==(const RunningStats&) const = default;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples land in
/// saturated edge bins so no sample is ever silently dropped. Bins are
/// linear by default; `log_spaced` builds geometrically growing bins
/// (constant *relative* resolution) — the right shape for latency
/// distributions, where a linear grid either wastes its bins on the bulk
/// or collapses the long tail into the saturated edge bin and biases
/// p99/p999.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  /// Geometric bins: edge(i) = lo * (hi/lo)^(i/bins). Requires lo > 0;
  /// samples below lo saturate into bin 0.
  static Histogram log_spaced(double lo, double hi, std::size_t bins);

  void add(double x);
  /// Bin-wise sum of another histogram of identical shape.
  void merge(const Histogram& other);
  /// Same spacing (linear/log), range and bin count?
  bool same_shape(const Histogram& other) const;
  /// Same shape and identical bin counts.
  bool operator==(const Histogram& other) const;

  bool log_bins() const { return log_; }
  double low() const { return lo_; }
  double high() const { return hi_; }
  std::uint64_t total() const { return total_; }
  std::uint64_t bin_count(std::size_t i) const { return counts_.at(i); }
  std::size_t bins() const { return counts_.size(); }
  double bin_low(std::size_t i) const;
  double bin_high(std::size_t i) const;

  /// Quantile in [0,1], interpolated linearly within the containing bin;
  /// returns lo when empty.
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  bool log_ = false;
  double log_lo_ = 0.0;     ///< ln(lo), log spacing only
  double log_width_ = 0.0;  ///< (ln(hi) - ln(lo)) / bins, log spacing only
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Ratio counter used for bit-error-rate estimation: `events / trials` with
/// a Wilson interval so benches can report Monte-Carlo confidence.
class RateEstimator {
 public:
  void add(bool event) { add_many(event ? 1 : 0, 1); }
  void add_many(std::uint64_t events, std::uint64_t trials);

  std::uint64_t events() const { return events_; }
  std::uint64_t trials() const { return trials_; }
  double rate() const;
  /// Half-width of the 95% Wilson score interval.
  double margin95() const;

 private:
  std::uint64_t events_ = 0;
  std::uint64_t trials_ = 0;
};

}  // namespace flex
