#include "workload/arrival.h"

#include <cmath>
#include <string>

#include "common/assert.h"

namespace flex::workload {

Status ArrivalConfig::Validate() const {
  if (!(base_iops > 0.0)) {
    return Status::InvalidArgument("arrivals.base_iops must be > 0, got " +
                                   std::to_string(base_iops));
  }
  if (burst_rate_multiplier < 1.0) {
    return Status::InvalidArgument(
        "arrivals.burst_rate_multiplier must be >= 1, got " +
        std::to_string(burst_rate_multiplier));
  }
  if (burst_on_fraction < 0.0 || burst_on_fraction >= 1.0) {
    return Status::InvalidArgument(
        "arrivals.burst_on_fraction must be in [0, 1), got " +
        std::to_string(burst_on_fraction));
  }
  if (burst_rate_multiplier > 1.0 && burst_on_fraction == 0.0) {
    return Status::InvalidArgument(
        "arrivals.burst_rate_multiplier > 1 never fires with "
        "burst_on_fraction == 0; set the on fraction or drop the "
        "multiplier");
  }
  if (burst_on_fraction > 0.0 && !(burst_mean_on_s > 0.0)) {
    return Status::InvalidArgument(
        "arrivals.burst_mean_on_s must be > 0 when bursts are on, got " +
        std::to_string(burst_mean_on_s));
  }
  return Status::Ok();
}

double ArrivalConfig::peak_rate() const {
  double peak = base_iops;
  if (has_bursts()) peak *= burst_rate_multiplier;
  return peak;
}

double ArrivalConfig::mean_rate() const {
  double rate = base_iops;
  if (has_bursts()) {
    rate *= 1.0 + burst_on_fraction * (burst_rate_multiplier - 1.0);
  }
  return rate;
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig& config,
                               std::uint64_t seed)
    : config_(config), rng_(seed) {
  FLEX_EXPECTS(config_.Validate().ok());
  if (config_.has_bursts()) {
    // Stationary start: on with the long-run probability, then a full
    // sojourn (memorylessness makes the residual sojourn a full one).
    burst_on_ = rng_.chance(config_.burst_on_fraction);
    const double mean_s = burst_on_ ? config_.burst_mean_on_s
                                    : config_.burst_mean_on_s *
                                          (1.0 - config_.burst_on_fraction) /
                                          config_.burst_on_fraction;
    state_until_s_ = -mean_s * std::log(1.0 - rng_.uniform());
  }
}

void ArrivalProcess::advance_burst_state(double t_s) {
  while (state_until_s_ <= t_s) {
    burst_on_ = !burst_on_;
    const double mean_s = burst_on_ ? config_.burst_mean_on_s
                                    : config_.burst_mean_on_s *
                                          (1.0 - config_.burst_on_fraction) /
                                          config_.burst_on_fraction;
    state_until_s_ += -mean_s * std::log(1.0 - rng_.uniform());
  }
}

SimTime ArrivalProcess::next() {
  const bool bursty = config_.has_bursts();
  const double peak = config_.peak_rate();
  for (;;) {
    clock_s_ += -std::log(1.0 - rng_.uniform()) / peak;
    if (!bursty) break;  // exact Exp(base_iops), one uniform per arrival
    advance_burst_state(clock_s_);
    // The on state runs at the peak rate itself.
    const double rate = burst_on_ ? peak : config_.base_iops;
    if (rng_.chance(rate / peak)) break;
  }
  return static_cast<SimTime>(clock_s_ * 1e9);
}

}  // namespace flex::workload
