// Quasi-cyclic LDPC code construction.
//
// The paper applies a rate-8/9 LDPC code to each 4 KB data block. We build
// a QC code with an 802.11n-style dual-diagonal parity structure so the
// encoder runs in linear time, and pseudo-random circulant shifts in the
// information part with a 4-cycle repair pass (short cycles are what hurt
// min-sum at the BERs the paper cares about).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace flex::ldpc {

/// One circulant block of the base matrix: rotation `shift` of the ZxZ
/// identity, or the zero block when `shift < 0`.
struct BaseEntry {
  int row = 0;
  int col = 0;
  int shift = -1;
};

/// A QC-LDPC code: base matrix of size `rows_base x cols_base` expanded by
/// circulant size `z`. Codeword layout is [information | parity].
class QcLdpcCode {
 public:
  /// Builds a code with `cols_base - rows_base` information block-columns.
  /// Every information column has weight `info_column_weight`; the parity
  /// part is dual-diagonal. `seed` fixes the pseudo-random shift pattern.
  QcLdpcCode(int rows_base, int cols_base, int z, int info_column_weight,
             std::uint64_t seed = 0x5EED);

  /// The paper's code: rate 8/9 over one 4 KB block (k = 32768 bits,
  /// n = 36864, base 8 x 72, Z = 512).
  static QcLdpcCode paper_code();

  /// A small code for unit tests (base 4 x 12, Z = 32: n=384, k=256).
  static QcLdpcCode test_code();

  int n() const { return cols_base_ * z_; }
  int k() const { return (cols_base_ - rows_base_) * z_; }
  int m() const { return rows_base_ * z_; }
  int z() const { return z_; }
  int rows_base() const { return rows_base_; }
  int cols_base() const { return cols_base_; }
  double rate() const { return static_cast<double>(k()) / n(); }

  /// All nonzero circulant blocks, row-major (by base row, then column).
  /// Block (r, c) with shift s connects check row r*Z + i to bit
  /// c*Z + (i + s) mod Z, for i in [0, Z).
  const std::vector<BaseEntry>& base_entries() const { return entries_; }

  /// Shift of the base entry at (row, col 0 of parity part... ) — helper
  /// for the encoder: returns shift at base position or -1.
  int shift_at(int base_row, int base_col) const;

  /// acc ^= P^shift * block over GF(2), one bit per byte (both Z bytes):
  /// row i of the circulant takes bit (i + shift) mod Z of `block`.
  void accumulate_circulant(std::span<const std::uint8_t> block, int shift,
                            std::span<std::uint8_t> acc) const;

  /// True iff H * word == 0 (word is one bit per byte, size n(); only the
  /// low bit of each byte counts). Computed one circulant at a time.
  bool check(std::span<const std::uint8_t> word) const;

  /// Number of base-graph 4-cycles remaining after repair (0 in practice;
  /// exposed for tests/ablation).
  int residual_four_cycles() const;

 private:
  void build_info_part(int info_column_weight, std::uint64_t seed);
  void build_parity_part();
  void collect_entries();

  int rows_base_;
  int cols_base_;
  int z_;
  std::vector<BaseEntry> entries_;
  // dense base-shift lookup, -1 when absent
  std::vector<int> base_shift_;
};

}  // namespace flex::ldpc
