// Normalized min-sum LDPC decoder (layered schedule, early termination).
//
// The decoder consumes per-bit LLRs — produced by the sensing channel model
// in channel.h — so the same code path handles hard-decision input
// (two-level LLRs) and any number of extra soft-sensing levels, exactly the
// knob the paper's latency analysis turns.
//
// The kernel works on the code's quasi-cyclic structure rather than on the
// expanded parity-check rows. A layer is one base row: its Z check rows
// meet each of its circulants once, and a circulant is a permutation, so
// the layer's rows touch disjoint variables. Updating them together, one
// Z-wide circulant block at a time and four lanes per vector operation,
// therefore produces exactly the floats a row-by-row walk would (same
// operations per row, same edge order, same first-minimum edge).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldpc/qc_code.h"

namespace flex::ldpc {

struct DecodeResult {
  bool success = false;     ///< all parity checks satisfied
  int iterations = 0;       ///< layered iterations actually executed
  std::vector<std::uint8_t> bits;  ///< hard decisions, size n()
  /// Final posterior LLRs, size n(): the soft values `bits` was sliced
  /// from (a last-ulp change shows here even when `bits` does not).
  std::vector<float> posterior;
};

class Decoder {
 public:
  /// Check-node update rule.
  enum class Algorithm {
    /// Normalized min-sum: the hardware-friendly approximation every SSD
    /// controller ships; slightly weaker than belief propagation.
    kMinSum,
    /// Sum-product (exact belief propagation in the tanh domain): the
    /// reference decoder, ~0.2-0.4 dB stronger, used here to bound how
    /// much of the sensing ladder's margin is decoder-dependent.
    kSumProduct,
  };

  struct Options {
    int max_iterations = 30;
    /// Min-sum normalization factor; 0.75 is the standard choice for
    /// column-weight-4 codes. Ignored by kSumProduct.
    float normalization = 0.75f;
    Algorithm algorithm = Algorithm::kMinSum;
  };

  /// The code's circulant size must be a multiple of 4 (the kernel's
  /// vector width).
  explicit Decoder(const QcLdpcCode& code);
  Decoder(const QcLdpcCode& code, Options options);

  /// Decodes from channel LLRs (positive = bit 0 more likely). Size must be
  /// n(). Deterministic; allocates its working arrays per call, so one
  /// decoder may serve concurrent callers.
  DecodeResult decode(std::span<const float> llr) const;

  const QcLdpcCode& code() const { return code_; }

 private:
  const QcLdpcCode& code_;
  Options options_;
  /// base_entries() index where each layer (base row) starts, plus the end.
  std::vector<std::size_t> layer_begin_;
  std::size_t max_layer_degree_ = 0;
};

}  // namespace flex::ldpc
