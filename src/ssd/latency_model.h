// Read/write latency accounting for LDPC-equipped NAND.
//
// A hard read costs one sense + one transfer + one decode. Every extra
// soft-sensing level adds a partial re-sense and the transfer of the extra
// soft bits, and the decoder runs longer on degraded input — the latency
// anatomy of [1, 2] that the paper's Fig. 6 rests on. Two controller
// policies are modelled:
//  * fixed: one attempt at a predetermined level count (the paper's
//    baseline, which must provision for the worst case), and
//  * progressive: start hard, escalate along the sensing ladder after each
//    decode failure (LDPC-in-SSD [2]) — described by a ReadPlan.
#pragma once

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "nand/geometry.h"
#include "reliability/sensing_solver.h"

namespace flex::ssd {

/// A read's cost split by the resource that pays it: die (array sensing),
/// channel (data transfer) and controller (LDPC decode). The ChipScheduler
/// occupies the chip for the sum but attributes utilisation per resource.
struct ReadCost {
  Duration die = 0;
  Duration channel = 0;
  Duration controller = 0;

  Duration total() const { return die + channel + controller; }
};

/// One decode attempt of a (possibly progressive) read, for telemetry:
/// `levels` is the sensing depth the decode ran at and `cost` the
/// *incremental* occupancy of this attempt (the first attempt carries the
/// base sense and transfer). Summed over a read's attempts, the costs
/// reproduce the closed-form ReadCost exactly — both are integer ns.
struct ReadAttempt {
  int levels = 0;
  ReadCost cost;
};

/// Everything that determines a progressive read's ladder walk: the first
/// attempt senses `start_levels` at once (0 = plain hard-first read; a
/// remembered per-block hint under LDPC-in-SSD's fine-grained scheme [2]),
/// then escalation continues up the ladder until a step reaches
/// `required_levels`. A start above the requirement wastes some sensing
/// but saves the failed-decode retries.
struct ReadPlan {
  int start_levels = 0;
  int required_levels = 0;
};

struct LatencyModel {
  nand::NandSpec spec;

  /// Additional array sensing per extra level (a soft strobe is a partial
  /// tR: the string is already precharged).
  Duration extra_sense_per_level = 35 * kMicrosecond;
  /// Soft-bit transfer per extra level (the LLR payload grows with levels).
  Duration extra_transfer_per_level = 20 * kMicrosecond;
  /// Min-sum decode on clean hard input.
  Duration decode_base = 10 * kMicrosecond;
  /// Decode-time growth per extra level in use (more iterations).
  Duration decode_per_level = 8 * kMicrosecond;
  /// DRAM service for write-buffer hits.
  Duration buffer_latency = 5 * kMicrosecond;
  /// Power-on mount: reading one page's OOB spare area during the
  /// recovery scan. A spare-area read skips most of the page transfer, so
  /// it is far below a full page read; mount time is (roughly) this times
  /// the programmed pages plus one summary read per block.
  Duration oob_scan_per_page = 4 * kMicrosecond;

  /// Decoder-measured latency mode (reliability::ReadChannel): decode
  /// duration per extra-level count, indexed by level, replacing the
  /// `decode_base + levels * decode_per_level` table. Empty (the default)
  /// keeps the table — the byte-identical seed path. Installed by the
  /// simulator from measured min-sum iteration counts; levels past the
  /// last entry clamp to it.
  std::vector<Duration> measured_decode;
  /// Conversion constants for measured decode: controller time per min-sum
  /// iteration, and the fixed per-attempt overhead (LLR load + syndrome
  /// check setup). Only read when measured_decode is being built.
  Duration decode_per_iteration = 3 * kMicrosecond;
  Duration decode_overhead = 4 * kMicrosecond;

  /// Controller time of one decode attempt at `levels` extra levels.
  Duration decode_time(int levels) const {
    if (!measured_decode.empty()) {
      const auto i = std::min<std::size_t>(
          static_cast<std::size_t>(levels), measured_decode.size() - 1);
      return measured_decode[i];
    }
    return decode_base + levels * decode_per_level;
  }

  /// One read attempt with `levels` extra sensing levels, start to finish.
  ReadCost read_fixed_cost(int levels) const;
  Duration read_fixed(int levels) const { return read_fixed_cost(levels).total(); }

  /// Progressive ladder read described by `plan`: every ladder step below
  /// the requirement is a failed attempt whose sensing/transfer work is
  /// incremental but whose decode time is paid in full. When even the
  /// deepest step falls short the walk ends there (the caller accounts the
  /// uncorrectable event separately). A non-null `attempts` receives the
  /// per-attempt decomposition of the same walk, appended (never cleared)
  /// so the read policy can add its recovery re-read into one caller-pooled
  /// vector: one entry per decode attempt, summing exactly to the
  /// returned cost.
  ReadCost read_cost(const ReadPlan& plan,
                     const reliability::SensingRequirement& ladder,
                     std::vector<ReadAttempt>* attempts = nullptr) const;
  Duration read_latency(const ReadPlan& plan,
                        const reliability::SensingRequirement& ladder) const {
    return read_cost(plan, ladder).total();
  }

  /// Page program / block erase passthroughs (Table 6).
  Duration program() const { return spec.program_latency; }
  Duration erase() const { return spec.erase_latency; }
};

}  // namespace flex::ssd
