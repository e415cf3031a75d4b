#include "reliability/read_channel.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "common/assert.h"
#include "common/rng.h"
#include "ldpc/channel.h"
#include "ldpc/decoder.h"
#include "ldpc/encoder.h"
#include "ldpc/qc_code.h"

namespace flex::reliability {
namespace {

double quantized_mi(double raw_ber, int extra_levels,
                    ldpc::QuantizerKind kind) {
  return ldpc::SensingChannel(raw_ber, extra_levels, kind)
      .mutual_information();
}

/// MI-calibrated ladder caps: each seed cap encodes "rate-8/9 decodes at
/// UBER <= 1e-15 when the uniform-quantized channel carries this much
/// mutual information". The MI quantizer reaches the same MI at a higher
/// raw BER, so the calibrated cap is the BER where the MI-quantized
/// channel's MI equals the seed step's — found by bisection (MI is
/// strictly decreasing in BER). The hard step has a single immovable
/// boundary, so its cap is unchanged; the max() guard makes the
/// caps-dominate-uniform property structural rather than numerical.
SensingRequirement mi_calibrated_ladder() {
  const SensingRequirement uniform;
  std::array<SensingRequirement::Step, 5> steps = uniform.steps();
  for (auto& step : steps) {
    if (step.extra_levels == 0) continue;
    const double target =
        quantized_mi(step.max_raw_ber, step.extra_levels,
                     ldpc::QuantizerKind::kUniform);
    double lo = step.max_raw_ber;
    double hi = 0.45;
    if (quantized_mi(hi, step.extra_levels, ldpc::QuantizerKind::kMiOptimized) <
        target) {
      for (int i = 0; i < 60; ++i) {
        const double mid = 0.5 * (lo + hi);
        const double mi = quantized_mi(mid, step.extra_levels,
                                       ldpc::QuantizerKind::kMiOptimized);
        (mi >= target ? lo : hi) = mid;
      }
    } else {
      lo = hi;
    }
    step.max_raw_ber = std::max(step.max_raw_ber, lo);
  }
  // The calibrated caps must stay a valid (strictly increasing) ladder;
  // with per-step gains this holds by construction, but clamp defensively
  // so a degenerate bisection can never produce an inverted ladder.
  for (std::size_t i = 1; i < steps.size(); ++i) {
    steps[i].max_raw_ber =
        std::max(steps[i].max_raw_ber,
                 steps[i - 1].max_raw_ber * (1.0 + 1e-9));
  }
  return SensingRequirement(steps);
}

ldpc::QuantizerKind to_ldpc(ChannelQuantizer q) {
  return q == ChannelQuantizer::kMiOptimized
             ? ldpc::QuantizerKind::kMiOptimized
             : ldpc::QuantizerKind::kUniform;
}

/// Measured mean min-sum iterations per ladder step: decode
/// `trials` random codewords of the paper's rate-8/9 code through the
/// step's quantized channel at the step's cap BER — the worst input the
/// step is provisioned for (failed decodes count at max_iterations, which
/// is what a controller pays before escalating). Deterministic (fixed
/// seeds, fixed trial counts) and cached process-wide: the measurement is
/// a pure function of its key, so every run and thread sees identical
/// numbers.
std::vector<double> measure_step_iterations(const SensingRequirement& ladder,
                                            ChannelQuantizer quantizer,
                                            int trials, std::uint64_t seed) {
  const std::uint64_t key =
      (seed << 8) ^ (static_cast<std::uint64_t>(trials) << 1) ^
      static_cast<std::uint64_t>(quantizer == ChannelQuantizer::kMiOptimized);
  static std::mutex mutex;
  static std::map<std::uint64_t, std::vector<double>>* cache =
      new std::map<std::uint64_t, std::vector<double>>();
  std::lock_guard<std::mutex> lock(mutex);
  if (const auto it = cache->find(key); it != cache->end()) {
    return it->second;
  }
  static const ldpc::QcLdpcCode* code =
      new ldpc::QcLdpcCode(ldpc::QcLdpcCode::paper_code());
  const ldpc::Encoder encoder(*code);
  const ldpc::Decoder decoder(*code);
  std::vector<double> iterations;
  std::vector<std::uint8_t> message(static_cast<std::size_t>(code->k()));
  std::vector<float> llrs;
  for (const auto& step : ladder.steps()) {
    const ldpc::SensingChannel channel(step.max_raw_ber, step.extra_levels,
                                       to_ldpc(quantizer));
    // One rng stream per step so adding a step never reshuffles others.
    Rng rng(seed ^ (0x9E3779B97F4A7C15ULL *
                    static_cast<std::uint64_t>(step.extra_levels + 1)));
    std::int64_t total = 0;
    for (int t = 0; t < trials; ++t) {
      for (auto& bit : message) {
        bit = static_cast<std::uint8_t>(rng.below(2));
      }
      const auto codeword = encoder.encode(message);
      channel.transmit(codeword, rng, llrs);
      total += decoder.decode(llrs).iterations;
    }
    iterations.push_back(static_cast<double>(total) /
                         static_cast<double>(trials));
  }
  cache->emplace(key, iterations);
  return iterations;
}

}  // namespace

ReadChannel::ReadChannel(const Params& params, const BerModel& normal,
                         const BerModel& reduced)
    : config_(params.config),
      normal_(normal),
      reduced_(reduced),
      ladder_(params.config.enabled &&
                      params.config.quantizer == ChannelQuantizer::kMiOptimized
                  ? mi_calibrated_ladder()
                  : SensingRequirement()),
      pages_per_block_(params.pages_per_block) {
  FLEX_EXPECTS(pages_per_block_ >= 1);
  if (params.disturb_enabled) {
    disturb_[0] = std::make_unique<ReadDisturbModel>(params.disturb, normal_);
    disturb_[1] = std::make_unique<ReadDisturbModel>(params.disturb, reduced_);
  }
  if (config_.enabled && config_.adaptive_thresholds) {
    calibrated_reads_.assign(params.physical_blocks, 0);
  }
  if (config_.enabled &&
      config_.decode_latency == DecodeLatencyMode::kMeasured) {
    step_iterations_ =
        measure_step_iterations(ladder_, config_.quantizer,
                                kCalibrationTrials, kCalibrationSeed);
  }
}

std::uint64_t ReadChannel::residual_reads(std::uint64_t block,
                                          std::uint64_t reads) {
  FLEX_ASSERT(block < calibrated_reads_.size());
  std::uint64_t& calibrated = calibrated_reads_[block];
  if (reads < calibrated) {
    // The FTL's counter moved backwards: the block was erased, taking the
    // accumulated drift (and the compensation for it) with it.
    calibrated = 0;
    ++stats_.resets;
  }
  if (reads - calibrated >= kCalibrateInterval) {
    calibrated = reads;
    ++stats_.calibrations;
  }
  // Drift from `calibrated` reads is compensated at `tracking_gain`
  // fidelity; the shift model is linear in reads, so the uncompensated
  // residual is an equivalent (smaller) read count.
  const auto compensated = static_cast<std::uint64_t>(
      config_.tracking_gain * static_cast<double>(calibrated));
  return reads - std::min(compensated, reads);
}

ReadChannel::Assessment ReadChannel::assess(bool reduced, std::uint32_t pe,
                                            Hours age, std::uint64_t ppn,
                                            std::uint64_t block_reads) {
  const int mode = reduced ? 1 : 0;
  const bool adaptive = config_.enabled && config_.adaptive_thresholds;
  // ~1.5% age resolution per bucket: far finer than the ladder's BER steps.
  const auto bucket = static_cast<std::uint64_t>(
      age <= 0.0 ? 0 : 1 + std::llround(48.0 * std::log2(1.0 + age)));
  const std::uint64_t key = (static_cast<std::uint64_t>(pe) << 16) | bucket;
  auto& cache = ber_cache_[mode];
  double ber;
  if (const double* hit = cache.find(key)) {
    ber = *hit;
  } else {
    const BerModel& model = reduced ? reduced_ : normal_;
    if (adaptive) {
      // Retention re-centering: references chase the tracked mean V_th
      // loss, so only the (1 - gain) uncompensated drift plus the spread
      // around the mean still eats margin. A pure function of (pe, age)
      // like the static term, so it shares the cache.
      const Volt shift =
          config_.tracking_gain * model.mean_retention_loss(pe, age);
      ber = model.c2c_ber() + model.retention_ber(pe, age, shift);
    } else {
      ber = model.total_ber(static_cast<int>(pe), age);
    }
    if (cache.size() >= kBerCacheMaxEntries) cache.clear();
    cache.insert(key, ber);
  }
  // Disturb is a table lookup by stress (exact: the table holds the closed
  // form's own values), so it is evaluated per read instead of being
  // folded into the cache key. Threshold tracking cancels the compensated
  // part of the shift via the residual read count.
  if (disturb_[mode]) {
    const std::uint64_t stress =
        adaptive ? residual_reads(ppn / pages_per_block_, block_reads)
                 : block_reads;
    ber += disturb_[mode]->ber(stress);
  }
  Assessment out;
  out.required_levels = ladder_.required_levels(ber, &out.correctable);
  return out;
}

std::vector<Duration> ReadChannel::measured_decode_times(
    Duration per_iteration, Duration overhead) const {
  if (step_iterations_.empty()) return {};
  const auto& steps = ladder_.steps();
  const int deepest = steps.back().extra_levels;
  std::vector<Duration> times(static_cast<std::size_t>(deepest) + 1, 0);
  for (int level = 0; level <= deepest; ++level) {
    // Interpolate on the iteration axis between the bracketing ladder
    // steps (level counts between steps only arise for clamped lookups).
    std::size_t hi = 0;
    while (steps[hi].extra_levels < level) ++hi;
    double iters;
    if (steps[hi].extra_levels == level || hi == 0) {
      iters = step_iterations_[hi];
    } else {
      const double span = static_cast<double>(steps[hi].extra_levels -
                                              steps[hi - 1].extra_levels);
      const double frac =
          static_cast<double>(level - steps[hi - 1].extra_levels) / span;
      iters = step_iterations_[hi - 1] +
              frac * (step_iterations_[hi] - step_iterations_[hi - 1]);
    }
    times[static_cast<std::size_t>(level)] =
        overhead + static_cast<Duration>(std::llround(
                       iters * static_cast<double>(per_iteration)));
  }
  return times;
}

}  // namespace flex::reliability
