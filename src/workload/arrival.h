// Open-loop arrival-time processes for the synthetic host workload engine.
//
// Two rate shapes, both driven by one Rng stream:
//   * plain Poisson at `base_iops` — the degenerate (and default) case,
//     whose interarrivals are exactly Exponential(base_iops) so the
//     chi-square goodness-of-fit tests hold with no modulation artifacts;
//   * MMPP on/off bursts (a 2-state Markov-modulated Poisson process):
//     exponentially-distributed sojourns in an "on" state where the rate is
//     multiplied by `burst_rate_multiplier`, tuned by the long-run on
//     fraction and the mean on-sojourn length.
//
// The bursty rate is sampled exactly with Lewis–Shedler thinning:
// candidate arrivals are drawn at the peak rate and accepted with
// probability rate(t)/peak, which is unbiased for any bounded rate
// function. When bursts are off the thinning loop
// short-circuits (no acceptance draw), so the plain-Poisson RNG stream is
// exactly one uniform per arrival.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace flex::workload {

struct ArrivalConfig {
  /// Rate of the unmodulated process (arrivals/sec of simulated time).
  double base_iops = 1000.0;
  /// MMPP on-state rate multiplier; 1 disables bursts.
  double burst_rate_multiplier = 1.0;
  /// Long-run fraction of time spent in the on state; 0 disables bursts.
  double burst_on_fraction = 0.0;
  /// Mean sojourn of one on-burst, seconds. The off-sojourn mean follows
  /// from the on fraction: mean_off = mean_on * (1 - f) / f.
  double burst_mean_on_s = 0.1;

  Status Validate() const;

  bool has_bursts() const {
    return burst_rate_multiplier > 1.0 && burst_on_fraction > 0.0;
  }
  /// Peak instantaneous rate — the thinning envelope.
  double peak_rate() const;
  /// Long-run mean rate.
  double mean_rate() const;
};

class ArrivalProcess {
 public:
  /// `config` must satisfy Validate() (asserted).
  ArrivalProcess(const ArrivalConfig& config, std::uint64_t seed);

  /// Next arrival timestamp, ns since process start; non-decreasing.
  SimTime next();

 private:
  /// Advances the on/off chain so `state_until_s_` > t_s.
  void advance_burst_state(double t_s);

  ArrivalConfig config_;
  Rng rng_;
  double clock_s_ = 0.0;
  bool burst_on_ = false;
  double state_until_s_ = 0.0;
};

}  // namespace flex::workload
