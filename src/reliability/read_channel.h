// ReadChannel: the one seam between the NAND channel model and the LDPC
// decoder.
//
// The seed simulator wired BerModel + ReadDisturbModel + SensingRequirement
// + a BER cache together inline; ReadChannel unifies them behind a single
// facade and closes the channel<->decoder loop with three (independently
// switchable, all off by default) features:
//
//  * adaptive per-block read thresholds ("Adaptive Read Thresholds for
//    NAND Flash", PAPERS.md): a per-block estimator tracks the V_th drift
//    the disturb and retention models already compute — upward from
//    pass-voltage stress, downward from charge loss — and re-centers the
//    read references against it. Compensated drift stops eating the
//    sensing margin, so the effective raw BER (and with it the required
//    ladder depth) drops versus the static-reference model;
//  * MI-optimized sensing placement (ldpc/channel): soft-sensing offsets
//    placed to maximize the quantized channel's mutual information keep
//    more soft information per strobe, raising each ladder step's BER cap.
//    The caps are re-calibrated by equating quantized MI — the
//    density-evolution decodability proxy — against the seed ladder's
//    uniform-quantizer caps;
//  * decoder-measured latency: mean min-sum iteration counts, measured by
//    running the real QC-LDPC decoder at each ladder step's cap BER
//    (bench/micro_ldpc methodology, deterministic seeds), drive the
//    decode-latency table instead of the fixed decode_base/decode_per_level
//    constants.
//
// With every feature off, assess() reproduces the seed simulator's inline
// sensing-requirement arithmetic byte-for-byte — same cache keying, same
// bounded flush-on-full eviction, same disturb composition — which is what
// keeps the pinned fig6a goldens unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/units.h"
#include "reliability/ber_model.h"
#include "reliability/read_disturb.h"
#include "reliability/sensing_solver.h"

namespace flex::reliability {

/// Sensing-boundary placement (mirrors ldpc::QuantizerKind without leaking
/// the ldpc dependency into every config consumer).
enum class ChannelQuantizer { kUniform, kMiOptimized };

/// Where decode attempt durations come from.
enum class DecodeLatencyMode {
  /// The seed's fixed decode_base + levels * decode_per_level table.
  kTable,
  /// Measured mean min-sum iterations per ladder step (real decoder runs
  /// at construction, deterministic seeds) converted to durations.
  kMeasured,
};

/// The `SsdConfig::channel` block. Everything defaults off; Validate()
/// (ssd/simulator.cpp) rejects armed-but-disabled footguns.
struct ReadChannelConfig {
  /// Master switch for the closed-loop features below. With it false the
  /// facade is a pure refactor of the seed read path (byte-identical).
  bool enabled = false;
  /// Per-block read-threshold tracking (disturb re-centering via residual
  /// read counts + retention re-centering via the mean-loss estimate).
  bool adaptive_thresholds = false;
  ChannelQuantizer quantizer = ChannelQuantizer::kUniform;
  DecodeLatencyMode decode_latency = DecodeLatencyMode::kTable;
  /// Fraction of the estimated reference drift the tracking compensates
  /// (in (0, 1]; real estimators under-correct to stay stable).
  double tracking_gain = 0.9;
};

/// Adaptive thresholds: block reads between per-block re-calibrations.
/// Between calibrations the uncompensated residual drift accumulates, so
/// smaller intervals track tighter at more calibration-read cost.
inline constexpr std::uint64_t kCalibrateInterval = 256;
/// Measured decode mode: codewords decoded per ladder step, and the rng
/// seed of the calibration run.
inline constexpr int kCalibrationTrials = 4;
inline constexpr std::uint64_t kCalibrationSeed = 0xCA11B;

class ReadChannel {
 public:
  struct Params {
    ReadChannelConfig config;
    /// Mirror of SsdConfig::read_disturb — the channel owns the per-mode
    /// disturb models so every BER producer sits behind one facade.
    bool disturb_enabled = false;
    ReadDisturbModel::Params disturb;
    /// Geometry for the per-block estimator state (ppn -> block index).
    std::uint64_t pages_per_block = 1;
    std::uint64_t physical_blocks = 0;
  };

  struct Assessment {
    int required_levels = 0;
    bool correctable = true;
  };

  /// Estimator observability (gauges since construction, for benches).
  struct Stats {
    std::uint64_t calibrations = 0;
    /// Calibration-state resets from detected block erases (the FTL read
    /// counter moved backwards).
    std::uint64_t resets = 0;
  };

  ReadChannel(const Params& params, const BerModel& normal,
              const BerModel& reduced);

  /// The active sensing ladder: the seed's Table-5 caps under the uniform
  /// quantizer, MI-calibrated caps under kMiOptimized.
  const SensingRequirement& ladder() const { return ladder_; }

  /// Sensing requirement of one read: combined raw BER at this wear/age/
  /// disturb state (re-centered when adaptive thresholds are on) pushed
  /// through the ladder. The wear/age BER integral is far too slow to
  /// evaluate per simulated read, so it is cached by (P/E, age bucket);
  /// the disturb term is cheap and exact, added per read on top.
  Assessment assess(bool reduced, std::uint32_t pe, Hours age,
                    std::uint64_t ppn, std::uint64_t block_reads);

  /// Measured decode durations by extra-level count (0..deepest ladder
  /// level), from the calibration run's mean min-sum iterations:
  /// `overhead + round(iterations * per_iteration)`, with level counts
  /// between ladder steps interpolated on the iteration axis. Empty unless
  /// decode_latency == kMeasured.
  std::vector<Duration> measured_decode_times(Duration per_iteration,
                                              Duration overhead) const;

  /// Mean measured min-sum iterations per ladder step (empty unless
  /// decode_latency == kMeasured); exposed for tests and benches.
  const std::vector<double>& step_iterations() const {
    return step_iterations_;
  }

  const Stats& stats() const { return stats_; }

 private:
  /// Effective disturb-stress read count after threshold tracking: drift
  /// from reads compensated at the last calibration no longer consumes
  /// margin, so only the residual stresses the page. Updates the block's
  /// calibration state (erase detection, re-calibration) as a side effect.
  std::uint64_t residual_reads(std::uint64_t block, std::uint64_t reads);

  ReadChannelConfig config_;
  const BerModel& normal_;
  const BerModel& reduced_;
  /// Per-mode disturb models (normal, reduced); null when disabled.
  std::unique_ptr<ReadDisturbModel> disturb_[2];
  SensingRequirement ladder_;
  // (pe, age-bucket) -> wear/age raw BER; one map per cell mode. Bounded:
  // at kBerCacheMaxEntries the whole map is flushed (a deterministic
  // eviction policy — the cached value is a pure function of the key, so a
  // flush can only cost recomputation, never change a result).
  static constexpr std::size_t kBerCacheMaxEntries = 1u << 15;
  FlatHashMap<double> ber_cache_[2];
  /// Per-block threshold-tracking state: the block read count whose drift
  /// the last calibration compensated (0 = never calibrated).
  std::vector<std::uint64_t> calibrated_reads_;
  std::uint64_t pages_per_block_ = 1;
  std::vector<double> step_iterations_;
  Stats stats_;
};

}  // namespace flex::reliability
