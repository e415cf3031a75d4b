// Read-disturb error model (after Cai et al., "Read Disturb Errors in MLC
// NAND Flash Memory", DSN 2015 — PAPERS.md).
//
// Reading one page applies the pass-through voltage V_pass to every other
// wordline of the block, weakly programming their cells: V_th shifts
// *upward*, approximately linearly in the accumulated read count. The
// model converts a block's read count into the extra raw BER its pages
// see, per programmed level:
//   * the erased state is hit hardest (its low V_th tunnels most under
//     V_pass; Cai et al. attribute the dominant share of disturb errors to
//     ER-state cells) — modelled by an amplification factor on the shift;
//   * a programmed level fails when the shift pushes its ISPP placement
//     across its *upper* read reference, i.e. disturb consumes exactly the
//     C2C noise margin. NUNMA's raised verify voltages have already spent
//     part of that margin, so reduced-state pages accumulate disturb
//     errors faster than a uniform-margin reduced cell would — the
//     LevelAdjust/disturb interaction the refresh policy must provision
//     for;
//   * wordlines adjacent to the most-read page see boosted stress
//     (V_pass overshoot), folded in as a worst-case amplification — BER
//     sizing must provision for the worst wordline of the block.
//
// The term is additive on top of BerModel::total_ber (C2C + retention):
// the three mechanisms stress disjoint margins, and the simulator feeds
// the sum to the sensing-requirement ladder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "nand/level_config.h"
#include "reliability/ber_model.h"

namespace flex::reliability {

class ReadDisturbModel {
 public:
  /// Stresses below this are tabled at construction: 32 KiB of doubles
  /// per model. A worn drive's stresses stay far below it (block reads
  /// between erases, or the residual after threshold tracking).
  static constexpr std::size_t kTabledStresses = 4096;

  struct Params {
    /// Upward V_th shift of a programmed cell per pass-voltage stress
    /// event (= one read of any other page in its block). Linear-in-reads
    /// per Cai et al.; the magnitude is an accelerated-stress setting so
    /// the simulator's (scaled-down) traces reach the disturb regime —
    /// real parts sit near 1e-7 V/read.
    Volt vth_shift_per_read = 4.0e-6;
    /// Extra shift multiplier for erased (level-0) cells: their low V_th
    /// sees the full V_pass overdrive and tunnels fastest.
    double erased_amplification = 4.0;
    /// Worst-case multiplier for the wordlines adjacent to the read page.
    double neighbor_amplification = 1.5;
  };

  /// Derives the level geometry, occupancy, and per-level bump damage from
  /// the (mode-matched) BerModel, so disturb and retention share one data
  /// layout.
  ReadDisturbModel(Params params, const BerModel& ber);

  /// Worst-case upward V_th shift of a programmed cell after
  /// `block_reads` reads of the containing block.
  Volt vth_shift(std::uint64_t block_reads) const;

  /// Additional raw BER of a page in a block read `block_reads` times
  /// since it was programmed/erased. Zero at zero reads (the C2C
  /// Monte-Carlo already covers the undisturbed tails), monotone in reads.
  /// A table lookup below kTabledStresses, the closed form above.
  double ber(std::uint64_t block_reads) const {
    return block_reads < table_.size() ? table_[block_reads]
                                       : compute_ber(block_reads);
  }

  /// The closed form ber() tabulates: the same doubles, bit for bit.
  double compute_ber(std::uint64_t block_reads) const;

  const Params& params() const { return params_; }

 private:
  Params params_;
  nand::LevelConfig level_config_;
  std::vector<double> occupancy_;
  std::vector<double> bump_damage_;
  /// Undisturbed erased-tail crossing probability, subtracted so ber(0)=0.
  double erased_tail_at_rest_ = 0.0;
  /// compute_ber(r) for every r < kTabledStresses.
  std::vector<double> table_;
};

}  // namespace flex::reliability
