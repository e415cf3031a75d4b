// The SSD simulator's read path (the §6.2 schemes).
//
// The simulator core is scheme-agnostic: it resolves a read to a physical
// page, derives the page's sensing requirement from wear and age, and asks
// its ReadPolicy two questions — what does this NAND read cost, and what
// maintenance follows it. The four §6.2 systems are four configurations
// of the one class, fixed at construction:
//   * fixed worst-case        — kBaseline: one attempt provisioned for the
//                               rated-retention worst case;
//   * progressive             — kLdpcInSsd: ladder retry from a hard read
//                               (kLevelAdjustOnly: the same, stored
//                               reduced); with SsdConfig::sensing_hint the
//                               ladder starts at the page's last depth;
//   * FlexLevel with migration— kFlexLevel: a progressive read plus the
//                               AccessEval controller, whose pool
//                               migrations run after the read.
// Two add-ons ride on any scheme: the read-disturb scrub
// (SsdConfig::read_disturb.refresh_threshold) and, under fault injection,
// the recovery re-read with its rescue verdicts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.h"

#include "faults/fault_injector.h"
#include "flexlevel/access_eval.h"
#include "ftl/page_mapping.h"
#include "reliability/ber_model.h"
#include "reliability/sensing_solver.h"
#include "ssd/latency_model.h"
#include "telemetry/telemetry.h"

namespace flex::ssd {

struct SsdConfig;  // simulator.h; broken cycle — the constructor takes it.

/// Retention age the *baseline* controller is qualified for: it cannot
/// tell pages apart, so every read is provisioned for this worst case
/// (JEDEC-style rated retention).
inline constexpr Hours kBaselineRetentionSpec = kMonth;

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
  /// BER. `required_levels` is then clamped to the deepest step, and
  /// recovery (fault injection on) charges and adjudicates the re-read.
  bool correctable = true;
  /// False when read-back seal verification flagged an integrity mismatch
  /// (SsdConfig::integrity on): recovery charges the same deepest-sensing
  /// re-read it charges uncorrectable reads.
  bool integrity_ok = true;
  /// With `integrity_ok` false: the mismatch is in the cells (misdirected
  /// write / torn relocation), so the re-read cannot cure it — only a
  /// replica failover or repair rewrite can.
  bool integrity_persistent = false;
  SimTime now = 0;
};

/// Counters the policy accumulates (zero for parts that are not armed).
struct ReadPolicyStats {
  std::uint64_t migrations_to_reduced = 0;
  std::uint64_t migrations_to_normal = 0;
  /// ReducedCell pool occupancy right now (gauge, not a counter).
  std::uint64_t pool_pages = 0;
  /// ReducedCell pool budget right now (gauge). Equals the configured
  /// capacity until block retirements shrink it (fault injection); zero
  /// for non-FlexLevel schemes.
  std::uint64_t pool_capacity_pages = 0;
  /// Blocks scrubbed by the read-disturb refresh, and the valid
  /// pages those scrubs relocated (counters).
  std::uint64_t refresh_blocks = 0;
  std::uint64_t refresh_page_moves = 0;
  /// Uncorrectable reads the recovery ladder's deepest-sensing re-read
  /// rescued, and those it could not (declared data loss). Counters;
  /// nonzero only with recovery armed (fault injection).
  std::uint64_t recovered_reads = 0;
  std::uint64_t data_loss_reads = 0;
  /// Integrity mismatches the deepest-sensing re-read cured (transient
  /// post-ECC flips) vs. those it could not (persistent medium faults —
  /// handed to the array's replica failover when one exists). Counters;
  /// nonzero only with recovery armed and SsdConfig::integrity on.
  std::uint64_t integrity_recovered_reads = 0;
  std::uint64_t integrity_unrecovered_reads = 0;
};

/// The drive's read path. The constructor inspects `config.scheme` once
/// and leaves plain members behind, so the per-read path is straight-line
/// code with no scheme branch: a fixed depth (kBaseline) or the ladder,
/// with per-page hints when SsdConfig::sensing_hint; AccessEval for
/// kFlexLevel; the read-disturb scrub when a refresh threshold is set; and
/// the recovery re-read and verdicts when a fault injector is given. Parts
/// that are not armed allocate nothing and bind no metric.
class ReadPolicy {
 public:
  /// `physical_pages` sizes the sensing-hint table; `ftl` receives
  /// FlexLevel's migrations and the refresh scrubs. A non-null `injector`
  /// (fault injection on) arms recovery: a deepest-sensing re-read for
  /// uncorrectable or integrity-flagged reads, whose rescue the injector
  /// decides. The referenced objects must outlive the policy.
  ReadPolicy(const SsdConfig& config, const LatencyModel& latency,
             const reliability::SensingRequirement& ladder,
             const reliability::BerModel& normal_model,
             std::uint64_t physical_pages, ftl::PageMappingFtl& ftl,
             const faults::FaultInjector* injector);
  ~ReadPolicy();
  /// Bound metric readers capture `this`.
  ReadPolicy(const ReadPolicy&) = delete;
  ReadPolicy& operator=(const ReadPolicy&) = delete;

  /// Cost of the NAND read(s) that retrieve this page: the scheme's
  /// attempt(s), plus the recovery re-read when armed and the page is
  /// uncorrectable or integrity-flagged. A non-null `attempts`
  /// (latency-breakdown tracing) receives the per-attempt decomposition,
  /// appended to a caller-pooled vector so the tracing hot path reuses one
  /// allocation across reads; the appended costs sum exactly to the
  /// returned ReadCost.
  ReadCost read_cost(const ReadContext& ctx,
                     std::vector<ReadAttempt>* attempts = nullptr);

  /// Post-read maintenance, in order: the AccessEval pool update and its
  /// migrations, the read-disturb scrub of the block read from, then the
  /// integrity and rescue verdicts. Runs after the read has been
  /// scheduled; none of it adds to host-visible latency.
  void on_read_complete(const ReadContext& ctx);

  /// Storage mode for a host write of `lpn`.
  ftl::PageMode write_mode(std::uint64_t lpn) const;
  /// Storage mode for prefill / preconditioning writes.
  ftl::PageMode prefill_mode() const { return storage_mode_; }

  /// Power-on recovery: the FTL just rebuilt its state from the medium
  /// and everything the policy keeps in controller DRAM (sensing hints,
  /// hotness history, pool LRU) is gone. Forgets the hints, then rebuilds
  /// the ReducedCell pool from the durable membership in `report`.
  void on_mount(const ftl::MountReport& report, SimTime now);

  ReadPolicyStats stats() const;
  /// Clears counters (not gauges or learned state) between measurement
  /// windows.
  void reset_stats();

  /// Binds the armed parts' counters/gauge and enables maintenance spans
  /// (see telemetry.h for the null-sink contract); nullptr detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

 private:
  /// Re-reads the FTL's retirement ledger and returns the ReducedCell
  /// budget it leaves.
  std::uint64_t shrunk_pool_budget();
  void migrate_to_normal(std::uint64_t lpn, SimTime now);
  void record_span(SimTime now, const char* name, const char* arg0_key,
                   std::uint64_t arg0) const;
  void publish_pool_gauge();

  const LatencyModel& latency_;
  const reliability::SensingRequirement& ladder_;
  ftl::PageMappingFtl& ftl_;
  /// kBaseline's provisioned depth (the rated-retention worst case);
  /// empty for the ladder schemes.
  std::optional<int> fixed_levels_;
  /// kLevelAdjustOnly stores everything reduced; the others write normal
  /// cells (FlexLevel's pool members aside).
  ftl::PageMode storage_mode_ = ftl::PageMode::kNormal;
  /// Per-physical-page depth of the last read (LDPC-in-SSD's fine-grained
  /// retry memorization [2]); empty unless SsdConfig::sensing_hint on a
  /// ladder scheme.
  std::vector<std::int8_t> hint_;
  /// kFlexLevel only.
  std::optional<flexlevel::AccessEval> access_eval_;
  std::uint64_t base_pool_capacity_ = 0;
  /// > 0 enables graceful degradation under fault injection: each block
  /// the FTL retires costs pages_per_block physical pages of
  /// over-provisioning, so the ReducedCell budget shrinks by
  /// pages_per_block * f / (1 - f) logical pages (f =
  /// ftl::kReducedCapacityFactor) — the shrink that keeps effective OP
  /// constant, handing exactly the lost margin to GC.
  std::uint64_t pool_shrink_per_block_ = 0;
  std::uint32_t last_retired_ = 0;
  /// Block reads since erase that trigger a scrub; 0 = refresh off.
  std::uint64_t refresh_threshold_ = 0;
  /// Null = recovery off.
  const faults::FaultInjector* injector_ = nullptr;
  /// Counter fields only; stats() adds the pool gauges.
  ReadPolicyStats counters_;
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::MetricsRegistry::Gauge* pool_gauge_ = nullptr;
};

}  // namespace flex::ssd
