// Read-path policy strategies for the SSD simulator (the §6.2 schemes).
//
// The simulator core is scheme-agnostic: it resolves a read to a physical
// page, derives the page's sensing requirement from wear and age, and asks
// its ReadPolicy (chosen ONCE, at construction) two questions — what does
// this NAND read cost, and what maintenance follows it. The four §6.2
// systems become four strategies:
//   * fixed worst-case        — kBaseline: one attempt provisioned for the
//                               rated-retention worst case;
//   * progressive             — kLdpcInSsd: ladder retry from a hard read;
//   * progressive with hint   — any progressive scheme with
//                               SsdConfig::sensing_hint: start the ladder
//                               at the page's last known depth;
//   * FlexLevel with migration— kFlexLevel: a progressive read plus the
//                               AccessEval controller, whose pool
//                               migrations run behind this boundary.
// Orthogonal maintenance decorates a scheme policy the same way FlexLevel
// decorates progressive: RefreshPolicy (read-disturb-aware scrub) wraps
// any of the four schemes when SsdConfig::read_disturb asks for it. New
// policies (adaptive read thresholds…) drop in here without touching the
// core.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_injector.h"
#include "ftl/page_mapping.h"
#include "reliability/ber_model.h"
#include "reliability/sensing_solver.h"
#include "ssd/latency_model.h"
#include "telemetry/telemetry.h"

namespace flex::ssd {

struct SsdConfig;  // simulator.h; broken cycle — the factory takes it.

/// Everything a policy may consult about one resolved read.
struct ReadContext {
  std::uint64_t lpn = 0;
  std::uint64_t ppn = 0;
  /// Extra soft-sensing levels this page's raw BER requires.
  int required_levels = 0;
  /// Pass-voltage stress events the containing block had accumulated
  /// before this read (the disturb term already folded into
  /// `required_levels`).
  std::uint64_t block_reads = 0;
  /// False when even the deepest ladder step cannot decode the page's raw
  /// BER. `required_levels` is then clamped to the deepest step, and the
  /// RecoveryPolicy decorator (fault injection on) charges and adjudicates
  /// the recovery re-read.
  bool correctable = true;
  /// False when read-back seal verification flagged an integrity mismatch
  /// (SsdConfig::integrity on): the RecoveryPolicy charges the same
  /// deepest-sensing re-read it charges uncorrectable reads.
  bool integrity_ok = true;
  /// With `integrity_ok` false: the mismatch is in the cells (misdirected
  /// write / torn relocation), so the re-read cannot cure it — only a
  /// replica failover or repair rewrite can.
  bool integrity_persistent = false;
  SimTime now = 0;
};

/// Counters a policy accumulates (zero for policies without maintenance).
struct ReadPolicyStats {
  std::uint64_t migrations_to_reduced = 0;
  std::uint64_t migrations_to_normal = 0;
  /// ReducedCell pool occupancy right now (gauge, not a counter).
  std::uint64_t pool_pages = 0;
  /// ReducedCell pool budget right now (gauge). Equals the configured
  /// capacity until block retirements shrink it (fault injection with
  /// shrink_pool_on_retirement); zero for non-FlexLevel schemes.
  std::uint64_t pool_capacity_pages = 0;
  /// Blocks scrubbed by the read-disturb refresh decorator, and the valid
  /// pages those scrubs relocated (counters).
  std::uint64_t refresh_blocks = 0;
  std::uint64_t refresh_page_moves = 0;
  /// Uncorrectable reads the recovery ladder's deepest-sensing re-read
  /// rescued, and those it could not (declared data loss). Counters;
  /// nonzero only under the RecoveryPolicy decorator (fault injection).
  std::uint64_t recovered_reads = 0;
  std::uint64_t data_loss_reads = 0;
  /// Integrity mismatches the deepest-sensing re-read cured (transient
  /// post-ECC flips) vs. those it could not (persistent medium faults —
  /// handed to the array's replica failover when one exists). Counters;
  /// nonzero only under RecoveryPolicy with SsdConfig::integrity on.
  std::uint64_t integrity_recovered_reads = 0;
  std::uint64_t integrity_unrecovered_reads = 0;
};

class ReadPolicy {
 public:
  virtual ~ReadPolicy() = default;

  /// Cost of the NAND read(s) that retrieve this page. A non-null
  /// `attempts` (latency-breakdown tracing) receives the per-attempt
  /// decomposition of the same ladder walk, appended to a caller-pooled
  /// vector so the tracing hot path reuses one allocation across reads;
  /// the appended attempt costs sum exactly to the returned ReadCost.
  /// Decorators forward it to their scheme policy.
  virtual ReadCost read_cost(const ReadContext& ctx,
                             std::vector<ReadAttempt>* attempts = nullptr) = 0;

  /// Post-read maintenance (e.g. AccessEval migrations). Runs after the
  /// read has been scheduled; deferrable work that must not add to
  /// host-visible latency belongs here.
  virtual void on_read_complete(const ReadContext& ctx) { (void)ctx; }

  /// Storage mode for a host write of `lpn`.
  virtual ftl::PageMode write_mode(std::uint64_t lpn) const {
    (void)lpn;
    return ftl::PageMode::kNormal;
  }

  /// Storage mode for prefill / preconditioning writes.
  virtual ftl::PageMode prefill_mode() const {
    return ftl::PageMode::kNormal;
  }

  /// Power-on recovery notification: the FTL just rebuilt its state from
  /// the medium and everything the policy keeps in controller DRAM
  /// (sensing hints, hotness history, pool LRU) is gone. Policies rebuild
  /// what the report carries durably (ReducedCell membership) and forget
  /// the rest; decorators forward to their inner policy.
  virtual void on_mount(const ftl::MountReport& report, SimTime now) {
    (void)report;
    (void)now;
  }

  virtual ReadPolicyStats stats() const { return {}; }
  /// Clears counters (not gauges or learned state) between measurement
  /// windows.
  virtual void reset_stats() {}

  /// Binds maintenance counters/gauges and enables maintenance spans (see
  /// telemetry.h for the null-sink contract); nullptr detaches. Decorators
  /// forward to their inner policy.
  virtual void attach_telemetry(telemetry::Telemetry* telemetry) {
    (void)telemetry;
  }
};

/// Builds the policy for `config.scheme` (the only place scheme is
/// inspected on the read path). `physical_pages` sizes the sensing-hint
/// table; `ftl` receives FlexLevel's migrations. A non-null `injector`
/// (fault injection on) wraps the stack in the RecoveryPolicy decorator,
/// which charges a deepest-sensing re-read for uncorrectable reads and
/// lets the injector decide whether it rescues the data.
std::unique_ptr<ReadPolicy> make_read_policy(
    const SsdConfig& config, const LatencyModel& latency,
    const reliability::SensingRequirement& ladder,
    const reliability::BerModel& normal_model, std::uint64_t physical_pages,
    ftl::PageMappingFtl& ftl, const faults::FaultInjector* injector);

}  // namespace flex::ssd
