#include "ssd/crash_harness.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace flex::ssd {

CrashVerdict run_crash_point(SsdConfig config,
                             const std::vector<trace::Request>& requests,
                             std::uint64_t crash_salt,
                             std::uint64_t prefill_pages,
                             const reliability::BerModel& normal,
                             const reliability::BerModel& reduced) {
  config.faults.crash_salt = crash_salt;
  const bool integrity = config.integrity.enabled;
  auto built =
      SsdSimulator::Builder(normal, reduced).config(std::move(config)).Build();
  FLEX_EXPECTS(built.ok());  // an invalid config is a caller bug here
  SsdSimulator& sim = **built;
  sim.prefill(prefill_pages);
  sim.run_segment(requests);

  CrashVerdict verdict;
  verdict.crashed_mid_trace = sim.crashed();
  // A salt whose hash never crosses the rate threshold mid-trace still
  // exercises recovery: pull the cord at the end of the trace.
  if (!sim.crashed()) sim.power_loss();
  verdict.crash_ordinal = sim.crash_event_ordinal();
  verdict.writes_acked = sim.results().writes_acked;
  verdict.writes_durable = sim.results().writes_durable;
  verdict.dirty_lost = sim.results().dirty_buffer_pages;

  // Snapshot the pre-mount ground truth the invariants are checked
  // against. The durable ledger is maintained by the simulator outside
  // the FTL, so Mount() cannot "recover" it into agreement by accident.
  const std::vector<std::uint32_t> retired_before =
      sim.ftl().retired_block_ids();
  const std::vector<std::uint32_t> ledger = sim.durable_versions();

  verdict.report = sim.mount();
  verdict.stale_records = verdict.report.stale_records;
  verdict.mount_time = sim.results().mount_time;

  const ftl::PageMappingFtl& ftl = sim.ftl();
  // Invariant 1: every acknowledged-durable write survives at its exact
  // version (relocations preserve the version, so newer is as wrong as
  // missing).
  for (std::uint64_t lpn = 0; lpn < ledger.size(); ++lpn) {
    if (ledger[lpn] == 0) continue;
    if (!ftl.lookup(lpn).has_value() ||
        ftl.data_version(lpn) != ledger[lpn]) {
      ++verdict.lost_acknowledged;
    }
  }
  // Data audit: for every surviving ledger entry, re-derive the payload
  // the host was promised and compare it (and its seal) against what the
  // medium actually holds. A crash may legitimately lose unacknowledged
  // data; it must never *silently* corrupt acknowledged data.
  if (integrity) {
    for (std::uint64_t lpn = 0; lpn < ledger.size(); ++lpn) {
      if (ledger[lpn] == 0) continue;
      if (!ftl.lookup(lpn).has_value() ||
          ftl.data_version(lpn) != ledger[lpn]) {
        continue;  // already counted under lost_acknowledged
      }
      const ftl::DataAudit audit = ftl.audit_data(lpn, ledger[lpn]);
      ++verdict.data_checked;
      if (!audit.payload_ok) {
        if (audit.seal_ok) {
          ++verdict.data_corrupt_undetected;
        } else {
          ++verdict.data_corrupt_detected;
        }
      }
    }
  }
  // Invariant 2: recovery resolved every OOB conflict to one winner.
  verdict.double_mapped = ftl.double_mapped_lpns();
  // Invariant 3: block retirement is durable (summary pages survive).
  const std::vector<std::uint32_t> retired_after = ftl.retired_block_ids();
  verdict.retired_ledger_ok =
      std::includes(retired_after.begin(), retired_after.end(),
                    retired_before.begin(), retired_before.end());
  // Structural self-checks of the rebuilt FTL.
  const Status status = ftl.check_consistency();
  verdict.consistent = status.ok();
  if (!status.ok()) verdict.consistency_message = status.message();
  return verdict;
}

}  // namespace flex::ssd
