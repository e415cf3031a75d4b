// Workload → crash → mount → verify, as a reusable harness.
//
// One run of `run_crash_point` drives a configured simulator through a
// trace with deterministic crash injection armed, pulls the cord at the
// end of the trace if the injector never fired (every run crashes exactly
// once), mounts, and checks the three durability invariants the OOB
// recovery path promises:
//   1. no acknowledged-durable write is lost — every entry of the
//      simulator's durable-version ledger is present, at that exact
//      version, in the mounted FTL;
//   2. no LPN is double-mapped — at most one physical page claims any
//      logical page after recovery;
//   3. the retired-block ledger survives — every block retired before the
//      crash is still retired after mount.
// plus the FTL's own structural cross-checks (check_consistency()).
//
// Crash points are swept by `crash_salt`: the injector hashes
// (seed, event ordinal, salt), so distinct salts pick distinct event-queue
// boundaries while everything else about the run stays byte-identical.
// Used by tests/ssd/crash_consistency_test and bench/ablation_crash.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reliability/ber_model.h"
#include "ssd/simulator.h"
#include "trace/trace.h"

namespace flex::ssd {

/// Outcome of one workload → crash → mount → verify cycle.
struct CrashVerdict {
  /// Did the injector fire mid-trace? (false: the end-of-trace cord pull
  /// supplied the crash, so the run still exercises recovery.)
  bool crashed_mid_trace = false;
  /// EventQueue::fired() at the power-loss boundary.
  std::uint64_t crash_ordinal = 0;
  std::uint64_t writes_acked = 0;    ///< host page writes acknowledged
  std::uint64_t writes_durable = 0;  ///< ... of which programmed to NAND
  /// Dirty buffer pages lost at the crash (acked, never programmed —
  /// bounded by the durability policy, never "durable" by the ledger).
  std::uint64_t dirty_lost = 0;
  /// Invariant 1 violations: ledger entries missing or at the wrong
  /// version after mount. Must be 0.
  std::uint64_t lost_acknowledged = 0;
  /// Invariant 2 violations: LPNs claimed by >1 physical page. Must be
  /// empty.
  std::vector<std::uint64_t> double_mapped;
  /// Invariant 3: pre-crash retired blocks ⊆ post-mount retired blocks.
  bool retired_ledger_ok = true;
  /// PageMappingFtl::check_consistency() after mount.
  bool consistent = true;
  std::string consistency_message;
  std::uint64_t stale_records = 0;  ///< superseded OOB records skipped
  Duration mount_time = 0;          ///< simulated OOB-scan cost
  ftl::MountReport report;
  /// Data-integrity audit over the mounted medium (SsdConfig::integrity
  /// on; all zero otherwise): every durable-ledger entry's payload is
  /// re-derived and checked against its seal. A corrupt payload under a
  /// mismatching seal is *detected* (the read path would flag it); a
  /// corrupt payload under a seal that still verifies is *undetected* —
  /// the one failure mode the end-to-end design exists to rule out.
  std::uint64_t data_checked = 0;
  std::uint64_t data_corrupt_detected = 0;
  std::uint64_t data_corrupt_undetected = 0;

  bool ok() const {
    return lost_acknowledged == 0 && double_mapped.empty() &&
           retired_ledger_ok && consistent && data_corrupt_undetected == 0;
  }
};

/// Runs `config` (crash injection must be armed via config.faults) over
/// `requests` with the given crash salt, then crash → mount → verify.
/// `prefill_pages` fills the drive before the trace as the benches do.
/// `config` must pass SsdConfig::Validate() (a precondition: the harness
/// aborts rather than returning a Status).
CrashVerdict run_crash_point(SsdConfig config,
                             const std::vector<trace::Request>& requests,
                             std::uint64_t crash_salt,
                             std::uint64_t prefill_pages,
                             const reliability::BerModel& normal,
                             const reliability::BerModel& reduced);

}  // namespace flex::ssd
