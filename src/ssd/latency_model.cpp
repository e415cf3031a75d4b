#include "ssd/latency_model.h"

#include "common/assert.h"

namespace flex::ssd {

ReadCost LatencyModel::read_fixed_cost(int levels) const {
  FLEX_EXPECTS(levels >= 0);
  return ReadCost{
      .die = spec.read_latency + levels * extra_sense_per_level,
      .channel = spec.page_transfer_latency +
                 levels * extra_transfer_per_level,
      .controller = decode_time(levels),
  };
}

ReadCost LatencyModel::read_cost(const ReadPlan& plan,
                                 const reliability::SensingRequirement& ladder,
                                 std::vector<ReadAttempt>* attempts) const {
  FLEX_EXPECTS(plan.start_levels >= 0);
  FLEX_EXPECTS(plan.required_levels >= 0);
  const ReadCost base{.die = spec.read_latency,
                      .channel = spec.page_transfer_latency};
  ReadCost cost = base;
  bool first = true;
  int sensed = 0;
  for (const auto& step : ladder.steps()) {
    if (step.extra_levels < plan.start_levels) continue;
    // Escalation re-senses only the new reference voltages and transfers
    // only the new soft bits; the decode attempt at this step is paid in
    // full whether it succeeds or not.
    const int delta = step.extra_levels - sensed;
    FLEX_ASSERT(delta >= 0);
    sensed = step.extra_levels;
    const ReadCost increment{.die = delta * extra_sense_per_level,
                             .channel = delta * extra_transfer_per_level,
                             .controller = decode_time(sensed)};
    cost.die += increment.die;
    cost.channel += increment.channel;
    cost.controller += increment.controller;
    if (attempts != nullptr) {
      ReadAttempt attempt{.levels = sensed, .cost = increment};
      if (first) {
        attempt.cost.die += base.die;
        attempt.cost.channel += base.channel;
      }
      attempts->push_back(attempt);
    }
    first = false;
    // Decode at this step succeeds; deeper steps never run. When even the
    // deepest step falls short the walk ends there too.
    if (sensed >= plan.required_levels) break;
  }
  if (attempts != nullptr && first) {
    // Every ladder step sits below start_levels: the read pays its base
    // sense/transfer, but no decode runs.
    attempts->push_back(ReadAttempt{.levels = plan.start_levels, .cost = base});
  }
  return cost;
}

}  // namespace flex::ssd
