#include "reliability/read_disturb.h"

#include <algorithm>

#include "common/assert.h"
#include "common/normal.h"

namespace flex::reliability {

ReadDisturbModel::ReadDisturbModel(Params params, const BerModel& ber)
    : params_(params),
      level_config_(ber.level_config()),
      occupancy_(ber.level_occupancy()),
      bump_damage_(ber.bump_damage()) {
  FLEX_EXPECTS(params_.vth_shift_per_read >= 0.0);
  FLEX_EXPECTS(params_.erased_amplification >= 1.0);
  FLEX_EXPECTS(params_.neighbor_amplification >= 1.0);
  erased_tail_at_rest_ =
      q_function((level_config_.read_ref(0) - level_config_.erased_mean()) /
                 level_config_.erased_sigma());
  table_.resize(kTabledStresses);
  for (std::size_t r = 0; r < kTabledStresses; ++r) table_[r] = compute_ber(r);
}

Volt ReadDisturbModel::vth_shift(std::uint64_t block_reads) const {
  return params_.vth_shift_per_read * static_cast<double>(block_reads) *
         params_.neighbor_amplification;
}

double ReadDisturbModel::compute_ber(std::uint64_t block_reads) const {
  if (block_reads == 0) return 0.0;
  const Volt shift = vth_shift(block_reads);
  const int levels = level_config_.levels();

  // Erased level: Gaussian tail pushed toward the first read reference.
  // The undisturbed tail is already part of the C2C Monte-Carlo baseline,
  // so only the disturb-induced increment counts.
  const Volt erased_shift = shift * params_.erased_amplification;
  const double erased_tail = q_function(
      (level_config_.read_ref(0) - level_config_.erased_mean() -
       erased_shift) /
      level_config_.erased_sigma());
  double ber = occupancy_[0] *
               std::max(erased_tail - erased_tail_at_rest_, 0.0) *
               bump_damage_[0];

  // Programmed levels below the top: the ISPP placement is uniform over
  // [verify, verify + vpp]; the fraction pushed past the upper read
  // reference ramps linearly once the shift exceeds the C2C margin
  // (upper_ref - verify - vpp). The top level has no upper reference.
  const Volt vpp = level_config_.vpp();
  for (int l = 1; l < levels - 1; ++l) {
    const Volt c2c_margin =
        level_config_.read_ref(l) - level_config_.verify(l) - vpp;
    const double bumped =
        std::clamp((shift - c2c_margin) / vpp, 0.0, 1.0);
    ber += occupancy_[static_cast<std::size_t>(l)] * bumped *
           bump_damage_[static_cast<std::size_t>(l)];
  }
  return ber;
}

}  // namespace flex::reliability
