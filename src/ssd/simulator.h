// Trace-driven SSD simulator (the FlashSim-equivalent of §6.2) with the
// four §6.2 storage systems:
//   kBaseline        — plain soft-decision LDPC, worst-case fixed sensing;
//   kLdpcInSsd       — progressive sensing retry (Zhao et al. [2]);
//   kLevelAdjustOnly — the whole drive in reduced state (no AccessEval);
//   kFlexLevel       — LevelAdjust + AccessEval (the paper's system).
//
// The simulator is a thin conductor over composable layers:
//   * EventQueue     — deterministic discrete-event kernel (stable
//                      sequence-number tie-breaking: identical seeds give
//                      bit-identical results);
//   * ArrivalFeed    — streams trace arrivals into the kernel, one pending
//                      at a time, clamped so the clock never steps back;
//   * ChipScheduler  — per-chip command queues with channel/die/controller
//                      occupancy split and queue-depth accounting;
//   * ReadPolicy     — the scheme's read path (fixed worst-case,
//                      progressive, progressive-with-hint, FlexLevel with
//                      AccessEval migrations), chosen once at construction
//                      so no scheme branch survives in the per-read path;
//   * FTL + write buffer + BerModels — data placement, wear, and the
//                      per-read sensing requirement from age and P/E.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "faults/fault_injector.h"
#include "flexlevel/access_eval.h"
#include "ftl/page_mapping.h"
#include "ftl/write_buffer.h"
#include "reliability/ber_model.h"
#include "reliability/read_channel.h"
#include "reliability/read_disturb.h"
#include "reliability/sensing_solver.h"
#include "ssd/arrival_feed.h"
#include "ssd/chip_scheduler.h"
#include "ssd/event_queue.h"
#include "ssd/latency_model.h"
#include "ssd/read_policy.h"
#include "telemetry/telemetry.h"
#include "trace/trace.h"

namespace flex::ssd {

enum class Scheme { kBaseline, kLdpcInSsd, kLevelAdjustOnly, kFlexLevel };

std::string scheme_name(Scheme scheme);

/// How a page's retention age is determined at read time.
enum class AgeModel {
  /// Age = now - last program of that page: rewritten/relocated data is
  /// fresh. The physically faithful model.
  kPhysical,
  /// Each LBA keeps the age its data was assigned at prefill (advancing
  /// with simulated time); device-level rewrites and relocations do not
  /// reset it. This matches the paper's evaluation, whose per-read BER
  /// depends only on P/E count and the storage-time axis of Tables 4/5 —
  /// not on FTL write recency.
  kStaticPerLba,
};

/// Read-disturb modelling knobs. Off by default: the paper's evaluation
/// has no disturb term, and every seed figure (Fig. 6/7, Tables 4/5) is
/// reproduced with it off, bit-identically.
struct ReadDisturbConfig {
  /// Adds the per-block disturb BER term (reliability/read_disturb) to
  /// every NAND read's sensing requirement.
  bool enabled = false;
  reliability::ReadDisturbModel::Params model;
  /// Block read count at which the RefreshPolicy decorator scrubs the
  /// block (relocate valid pages, erase). 0 disables refresh; enabling
  /// refresh without `enabled` scrubs blocks that never pay a latency
  /// penalty, which is legal but pointless.
  std::uint64_t refresh_threshold = 0;
};

/// When is a host write acknowledged relative to being durable on NAND?
enum class DurabilityPolicy {
  /// Acknowledge at buffer insertion (the paper's write-back buffer).
  /// Fastest, and fine for the paper's figures — but acknowledged writes
  /// sitting in DRAM are lost on power loss, so Validate() rejects this
  /// policy when crash injection is armed.
  kWriteBack,
  /// Force-unit-access: every host write programs through to NAND before
  /// acknowledging (the page stays cached clean for reads). The ack is
  /// the durability point.
  kFua,
  /// Write-back, plus a flush barrier every `flush_barrier_interval`
  /// acknowledged host page writes: bounded loss window at write-back ack
  /// latency (fsync-style batching).
  kFlushBarrier,
};

struct DurabilityConfig {
  DurabilityPolicy policy = DurabilityPolicy::kWriteBack;
  /// kFlushBarrier: acknowledged host page writes between barriers (>= 1).
  std::uint64_t flush_barrier_interval = 1024;
};

/// End-to-end data integrity. Off by default — the FTL then moves pure
/// metadata and every seed figure is reproduced bit-identically. On,
/// every page program carries a deterministic synthetic payload identity
/// and a CRC64 seal {lpn, version, crc} (ftl/page_mapping OobRecord),
/// and every NAND read-back recomputes the delivered bytes' CRC and
/// cross-checks it against the seal and the durable-version ledger —
/// raising an integrity mismatch (distinct from uncorrectable) that the
/// RecoveryPolicy answers with a deepest-sensing re-read and, at the
/// array layer, replica failover + read-repair. The silent-corruption
/// fault kinds (faults.silent_corruption_rate / misdirected_write_rate /
/// torn_relocation_rate) require this to be on: without seals they would
/// be undetectable by construction (Validate() enforces it).
struct IntegrityConfig {
  bool enabled = false;
  /// 8-byte payload words per modeled page body. More words model larger
  /// pages; the CRC cost is O(words) per program/verify.
  std::uint32_t payload_words = 8;
};

struct SsdConfig {
  Scheme scheme = Scheme::kLdpcInSsd;
  ftl::FtlConfig ftl;
  LatencyModel latency;
  flexlevel::AccessEval::Config access_eval;
  /// Write buffer sized as a capacity fraction of the drive (the paper's
  /// 64 MB on 256 GB is ~0.025% of capacity); absolute pages.
  std::uint64_t write_buffer_pages = 128;
  std::uint64_t write_buffer_flush_batch = 32;
  /// Pre-filled data carries a log-uniform age in
  /// [min_prefill_age, max_prefill_age] — a drive in the field holds a mix
  /// of fresh and stale data, which is what progressive sensing exploits.
  /// Ages are drawn per extent of `prefill_extent_pages` consecutive LPNs:
  /// data written together (files, database segments) shares its age.
  Hours min_prefill_age = 1.0;
  Hours max_prefill_age = kWeek;
  std::uint64_t prefill_extent_pages = 64;
  /// Preconditioning: random overwrites issued after the sequential fill
  /// (as a multiple of the prefilled pages), putting the FTL's
  /// valid/invalid mix — and therefore GC — into steady state before
  /// measurement. 0 leaves the drive freshly filled.
  double precondition_passes = 0.0;
  /// Retention age the *baseline* controller is qualified for: it cannot
  /// tell pages apart, so every read is provisioned for this worst case
  /// (JEDEC-style rated retention).
  Hours baseline_retention_spec = kMonth;
  AgeModel age_model = AgeModel::kPhysical;
  /// Remember the last successful sensing depth per physical page and
  /// start the progressive ladder there (LDPC-in-SSD's fine-grained
  /// retry-level memorization [2]). Applies to every progressive-read
  /// scheme; the baseline's fixed read is unaffected.
  bool sensing_hint = false;
  ReadDisturbConfig read_disturb;
  /// The channel<->decoder closed loop (adaptive per-block read
  /// thresholds, MI-optimized sensing placement, decoder-measured decode
  /// latency) behind the reliability::ReadChannel facade. Off by default:
  /// every seed figure is reproduced bit-identically with the channel
  /// features disabled.
  reliability::ReadChannelConfig channel;
  /// Fault injection (program/erase failures, grown defects) and the
  /// recovery machinery it exercises. Off by default: every seed figure is
  /// reproduced bit-identically with faults disabled.
  faults::FaultConfig faults;
  /// Write-acknowledgement durability semantics. Default write-back
  /// reproduces every seed figure bit-identically; crash injection
  /// (faults.crash_enabled) requires kFua or kFlushBarrier.
  DurabilityConfig durability;
  /// Multi-tenant QoS scheduling; off by default (bit-identical legacy
  /// path). Incompatible with crash injection.
  QosConfig qos;
  /// End-to-end data integrity; off by default (bit-identical path).
  IntegrityConfig integrity;
  std::uint64_t seed = 0x5EED;

  /// Range- and consistency-checks the whole configuration.
  /// SsdSimulator::Builder enforces it and returns the Status, so
  /// front-ends can surface it and exit cleanly.
  Status Validate() const;
};

/// Where read-response time went, summed over the measured window
/// (integer ns, so the identity holds exactly): each read request
/// contributes its slowest page's decomposition, and the five components
/// sum to that page's response — total() equals the read_response sum.
struct ReadBreakdown {
  Duration queue_wait = 0;  ///< waiting for the chip to go idle
  Duration sensing = 0;     ///< array busy (tR + soft strobes)
  Duration transfer = 0;    ///< channel transfer (page + soft bits)
  Duration decode = 0;      ///< LDPC decode attempts
  Duration buffer = 0;      ///< DRAM service (buffer hits, unmapped reads)

  Duration total() const {
    return queue_wait + sensing + transfer + decode + buffer;
  }
  bool operator==(const ReadBreakdown&) const = default;
};

/// Per-tenant response accounting (always at least one slot; requests of
/// out-of-range tenants fold into the last slot).
struct TenantStats {
  RunningStats read_response;   ///< seconds
  RunningStats write_response;  ///< seconds
  Histogram read_latency_hist = Histogram::log_spaced(1e-6, 1.0, 480);
  /// Requests rejected by admission control before any FTL mutation.
  std::uint64_t admission_rejected = 0;
};

struct SsdResults {
  RunningStats read_response;   ///< seconds
  RunningStats write_response;  ///< seconds
  RunningStats all_response;    ///< seconds
  /// Read-response distribution (seconds) for tail latency: use
  /// read_latency_hist.quantile(0.99) etc. Log-spaced from 1 µs to 1 s
  /// (80 bins per decade) so the far tail keeps relative resolution
  /// instead of saturating a linear grid's edge bin.
  Histogram read_latency_hist = Histogram::log_spaced(1e-6, 1.0, 480);
  /// Component sums of read-response time (see ReadBreakdown).
  ReadBreakdown read_breakdown;
  /// Per-request component shares (component / response, in [0, 1]), one
  /// sample per read request — the shape behind the breakdown sums.
  Histogram wait_share_hist{0.0, 1.0, 50};
  Histogram sensing_share_hist{0.0, 1.0, 50};
  Histogram transfer_share_hist{0.0, 1.0, 50};
  Histogram decode_share_hist{0.0, 1.0, 50};
  ftl::FtlStats ftl;            ///< the window's deltas (prefill excluded,
                                ///< mounts inside the window included)
  std::uint64_t buffer_hits = 0;
  std::uint64_t unmapped_reads = 0;
  std::uint64_t uncorrectable_reads = 0;
  std::uint64_t migrations_to_reduced = 0;
  std::uint64_t migrations_to_normal = 0;
  /// Read-disturb scrubs in the measured window (RefreshPolicy only).
  std::uint64_t refresh_blocks = 0;
  std::uint64_t refresh_page_moves = 0;
  /// ReducedCell pool occupancy at the end of the run (FlexLevel only).
  std::uint64_t pool_pages = 0;
  /// ReducedCell pool budget at the end of the run (gauge; FlexLevel
  /// only). Starts at the configured capacity and shrinks as block
  /// retirements spend the physical headroom backing it.
  std::uint64_t pool_capacity_pages = 0;
  /// Recovery ladder outcomes for uncorrectable reads (fault injection
  /// only): rescued by the deepest-sensing re-read vs. declared data loss.
  std::uint64_t recovered_reads = 0;
  std::uint64_t data_loss_reads = 0;
  /// End-to-end integrity verification (SsdConfig::integrity on): NAND
  /// reads whose seal was verified; reads flagged as integrity mismatch;
  /// mismatches the recovery re-read cured (transient flips) vs. not
  /// (persistent medium faults — replica failover territory); and reads
  /// that delivered wrong bytes *without* being flagged (possible only
  /// through a genuine CRC64 collision — the zero-undetected invariant).
  std::uint64_t integrity_verified_reads = 0;
  std::uint64_t integrity_mismatch_reads = 0;
  std::uint64_t integrity_recovered_reads = 0;
  std::uint64_t integrity_unrecovered_reads = 0;
  std::uint64_t integrity_undetected_reads = 0;
  /// Durability accounting: host page writes acknowledged vs. programmed
  /// to NAND (durable). Under kWriteBack the difference rides in DRAM —
  /// exactly what a crash loses; dirty_buffer_pages is that gauge at the
  /// end of the window (captured at the crash point if one fired).
  std::uint64_t writes_acked = 0;
  std::uint64_t writes_durable = 0;
  std::uint64_t dirty_buffer_pages = 0;
  /// Power-loss events in the window, and the simulated time the mounts
  /// spent scanning OOB (also exported as a telemetry span per mount).
  std::uint64_t crashes = 0;
  Duration mount_time = 0;
  /// Blocks out of service at the end of the run (gauge; fault injection
  /// only — includes retirements during prefill/preconditioning).
  std::uint64_t retired_blocks = 0;
  /// Per-tenant response stats, sized max(1, qos.tenants); the legacy
  /// path records into it too (requests default to tenant 0), so single-
  /// tenant runs read identically from either view.
  std::vector<TenantStats> tenant;
  /// Requests rejected by admission control (sum over tenants).
  std::uint64_t admission_rejected = 0;
  /// Always 0: no admission path rejects on a predicted deadline miss.
  /// Kept because external result digests read it.
  std::uint64_t slo_rejected = 0;
  /// QoS-mode gauges for the bounded-queue-memory invariant: high-water
  /// marks of in-flight request slots and of queued-but-not-in-service
  /// chip commands since the last reset_measurements().
  std::uint64_t qos_request_slots_high_water = 0;
  std::uint64_t qos_pending_high_water = 0;
  /// Dispatch decisions that deferred background work / overrode deadline
  /// order for fairness (QoS mode only).
  std::uint64_t background_deferrals = 0;
  std::uint64_t fairness_overrides = 0;
  /// Distribution of extra sensing levels over NAND reads.
  std::vector<std::uint64_t> sensing_level_reads;
  /// Per-chip command / queue-depth / occupancy counters for the measured
  /// window (see ChipStats).
  std::vector<ChipStats> chip_stats;
  /// Snapshot of the attached telemetry context's metrics at run() end;
  /// empty when no context was attached.
  telemetry::MetricsSnapshot metrics;
  /// Spans recorded by the attached context (empty unless tracing).
  std::vector<telemetry::Span> spans;
  /// Host wall-clock seconds of the run that produced these results,
  /// stamped by the bench harness (always zero inside the simulator).
  /// Machine noise, not simulation state: it lands in BENCH_*.json but
  /// never in stdout, so the byte-identical --jobs contract only covers
  /// deterministic fields.
  double wall_seconds = 0;
};

class SsdSimulator : private QosSink, private ArrivalSink {
 public:
  /// The only way to build a simulator: validates the configuration, then
  /// constructs it and attaches telemetry, reporting a bad configuration
  /// as a Status instead of aborting mid-constructor. The BerModels are
  /// shared (they are expensive to build); `normal` maps the 4-level
  /// baseline cell, `reduced` the NUNMA reduced cell.
  ///
  ///   auto sim = SsdSimulator::Builder(normal, reduced)
  ///                  .config(cfg)
  ///                  .telemetry(&telemetry)  // optional
  ///                  .kernel(&shared_kernel) // optional
  ///                  .Build();
  ///   if (!sim.ok()) { /* surface sim.status().message() */ }
  class Builder {
   public:
    Builder(const reliability::BerModel& normal,
            const reliability::BerModel& reduced)
        : normal_(normal), reduced_(reduced) {}

    Builder& config(SsdConfig config) {
      config_ = std::move(config);
      return *this;
    }
    Builder& telemetry(telemetry::Telemetry* telemetry) {
      telemetry_ = telemetry;
      return *this;
    }
    /// Shared external event kernel: the drive schedules all of its
    /// events on `kernel` instead of an internal queue, so a host layer
    /// can compose several drives under one deterministic clock. The
    /// caller owns the kernel and drains it; run_segment()/run()/
    /// run_open_loop() are disallowed in this mode (the host drives the
    /// simulation via service_external()). nullptr (the default) keeps the
    /// drive's own queue.
    Builder& kernel(EventQueue* kernel) {
      kernel_ = kernel;
      return *this;
    }

    /// Validates, then constructs (a unique_ptr: the simulator holds
    /// reference members and is not movable).
    StatusOr<std::unique_ptr<SsdSimulator>> Build() const;

   private:
    const reliability::BerModel& normal_;
    const reliability::BerModel& reduced_;
    SsdConfig config_;
    telemetry::Telemetry* telemetry_ = nullptr;
    EventQueue* kernel_ = nullptr;
  };

  /// Fills `pages` logical pages with data aged log-uniformly over
  /// [min_prefill_age, max_prefill_age].
  void prefill(std::uint64_t pages);

  /// Runs a trace segment, which must be sorted by arrival; results
  /// accumulate across calls (and are readable without a copy via
  /// results()). The segment is fed like an open-loop source: an arrival
  /// before the clock (a segment that starts behind the previous one's
  /// completions) is clamped to it.
  void run_segment(const std::vector<trace::Request>& requests);

  /// run_segment plus a copy of the accumulated results, for callers that
  /// want a self-contained snapshot.
  SsdResults run(const std::vector<trace::Request>& requests);

  /// Open-loop run: draws arrivals from `source` one at a time through a
  /// self-rescheduling arrival event (no pre-materialised trace), until
  /// the source is exhausted or `max_requests` have been drawn (0 = until
  /// exhaustion). Arrivals in the past are clamped to the current
  /// simulated time, so a source resumed across calls stays monotone.
  /// Results accumulate exactly as with run_segment().
  void run_open_loop(trace::RequestSource& source,
                     std::uint64_t max_requests = 0);

  /// Host-layer service entry (external-kernel mode): serves one request
  /// at simulated time `now` through the legacy synchronous path and
  /// returns its response latency. Chip occupancy, FTL mutations, and
  /// per-drive stats land exactly as under run_segment(); the caller owns
  /// draining the shared kernel afterwards. Requires a drive built with an
  /// external kernel and qos.enabled == false (the array layer does its
  /// own queueing above the drive).
  Duration service_external(const trace::Request& request, SimTime now);

  /// Out-of-band hotness feed for array-global AccessEval: runs the read
  /// policy's access-statistics update (Bloom hotness, HLO classification,
  /// a possible ReducedCell migration) for `lpn` as if it had been read at
  /// `now`, with zero latency cost and no disturb/wear side effects. This
  /// is how replica siblings of a drive that served a replicated read
  /// learn the array-wide access pattern. No-op for unmapped or buffered
  /// pages.
  void observe_read_access(std::uint64_t lpn, SimTime now);

  /// Accumulated read count of the block currently backing `lpn` (0 when
  /// unmapped) — the disturb-pressure signal the array's disturb-aware
  /// replica steering spreads across copies.
  std::uint64_t block_read_count(std::uint64_t lpn) const;

  /// LPNs whose reads in the *last* service_external() call hit a
  /// persistent integrity failure (misdirected write / torn relocation —
  /// the re-read could not cure them). External-kernel mode only; the
  /// array layer consults this right after dispatching a read command to
  /// drive replica failover + read-repair. Cleared at every
  /// service_external() entry.
  const std::vector<std::uint64_t>& integrity_failed_lpns() const {
    return integrity_failed_lpns_;
  }

  /// Read-repair write-back (array layer): rewrites `lpn` with fresh
  /// current-generation payload + seal (ftl::PageMappingFtl::repair) and
  /// schedules the program as background chip work. Requires
  /// SsdConfig::integrity on and a mapped, unbuffered lpn.
  void repair_page(std::uint64_t lpn, SimTime now);

  /// Does `lpn`'s mapped copy currently verify clean at the medium level
  /// (no transient roll)? Array read-repair uses it to decide whether a
  /// repair pass converged. True for buffered/unmapped lpns (DRAM-served
  /// reads bypass NAND seals entirely).
  bool page_verifies(std::uint64_t lpn) const;

  /// Is `lpn` currently dirty in the controller write buffer? Mirror
  /// audits skip version comparison for buffered pages: flush timing is
  /// drive-local, so sibling replicas legitimately disagree on how much
  /// of the same acknowledged write stream has reached NAND.
  bool page_buffered(std::uint64_t lpn) const {
    return buffer_.contains(lpn);
  }

  /// Folds policy/FTL/scheduler counters into results_ (the shared tail
  /// of run_segment and run_open_loop). Public so an external-kernel host
  /// can snapshot per-drive results after draining the shared kernel.
  void collect_results();

  /// Measurements accumulated since the last reset_measurements() —
  /// borrowed, valid until the next run_segment()/run() call mutates it.
  const SsdResults& results() const { return results_; }

  /// Clears accumulated measurements (response stats, counters, FTL deltas,
  /// chip counters) while keeping all simulator state — call between a
  /// warmup pass and the measured pass to observe steady-state behaviour.
  void reset_measurements();

  /// Drains every dirty write-buffer page to NAND at the current simulated
  /// time (fsync). Acked-but-volatile writes become durable; a no-op when
  /// the buffer is clean.
  void flush_barrier();

  /// Power loss at the current simulated time: pending events are dropped
  /// (in-flight NAND work and unserviced requests vanish), dirty buffer
  /// pages are lost, and the simulator refuses further run_segment() work
  /// until mount(). Called by the crash-armed run loop when the injector
  /// picks an event boundary, and callable directly to model a cord pull
  /// at end of trace.
  void power_loss();

  /// Power-on after power_loss(): rebuilds the FTL from OOB metadata
  /// (ftl::PageMappingFtl::Mount), replays the recovered ReducedCell
  /// membership through the read policy, and charges the OOB scan time to
  /// results().mount_time (and a "mount" telemetry span). Also legal on a
  /// non-crashed simulator (clean remount). Clears the crashed() latch.
  ftl::MountReport mount();

  /// True after power_loss() until the next mount().
  bool crashed() const { return crashed_; }
  /// Event ordinal (EventQueue::fired()) at which the last power loss hit.
  std::uint64_t crash_event_ordinal() const { return crash_ordinal_; }

  /// Durability ledger: durable_versions()[lpn] is the per-LPN write
  /// version (ftl::PageMappingFtl::data_version numbering) of the last
  /// write to `lpn` that was *programmed to NAND*; 0 if never durable.
  /// The crash harness checks it against the mounted FTL: every entry
  /// here must survive a crash+mount.
  const std::vector<std::uint32_t>& durable_versions() const {
    return durable_version_;
  }

  const ftl::PageMappingFtl& ftl() const { return ftl_; }
  const ChipScheduler& scheduler() const { return scheduler_; }
  /// The kernel the drive schedules on (its own, or the external one).
  const EventQueue& events() const { return events_; }

  /// Attaches a telemetry context to every layer (event kernel, chip
  /// scheduler, FTL, read policy, and the simulator's own `ssd.*` and
  /// `tenant.<i>.*` counters, read from results()); nullptr detaches.
  /// Instrumentation only observes: results are bit-identical with and
  /// without a context attached (see telemetry.h).
  void attach_telemetry(telemetry::Telemetry* telemetry);

  ~SsdSimulator();

 private:
  /// Constructed only by Builder::Build(), after validation.
  SsdSimulator(SsdConfig config, const reliability::BerModel& normal,
               const reliability::BerModel& reduced, EventQueue* kernel);

  /// One page read's response and its component decomposition (integer
  /// ns; the components sum to `response` exactly).
  struct PageService {
    Duration response = 0;
    Duration wait = 0;      ///< chip-queue wait
    Duration sense = 0;     ///< die busy
    Duration transfer = 0;  ///< channel busy
    Duration decode = 0;    ///< controller busy
    Duration buffer = 0;    ///< DRAM service (buffer hit / unmapped)
  };

  /// One in-flight request in QoS mode: slot-pooled so the steady state
  /// allocates nothing; `tag` handed to the scheduler is the slot index.
  struct QosRequest {
    SimTime arrival = 0;
    std::uint64_t lpn = 0;
    std::uint32_t pages = 1;
    std::uint16_t tenant = 0;
    bool is_write = false;
    /// Queued chip commands still outstanding, plus an issue guard held
    /// while the request's pages are being issued (so a synchronous
    /// completion cannot finalize a half-issued request).
    std::uint32_t outstanding = 0;
    PageService slowest;          ///< reads: slowest page's decomposition
    Duration write_response = 0;  ///< writes: slowest page ack latency
  };

  Duration service_request(const trace::Request& request, SimTime now);
  void service_request_qos(const trace::Request& request, SimTime now);
  void issue_read_page_qos(std::uint64_t lpn, std::uint64_t slot,
                           std::uint8_t priority, SimTime now);
  void issue_write_page_qos(std::uint64_t lpn, std::uint64_t slot,
                            std::uint8_t priority, SimTime now);
  void on_qos_complete(const QosCompletion& done) override;
  void finalize_qos(std::uint64_t slot);
  /// Shared stat-recording tail of both service paths.
  void record_request_stats(bool is_write, std::uint16_t tenant,
                            Duration response, const PageService& slowest,
                            SimTime arrival, std::uint64_t lpn,
                            std::uint32_t pages);
  std::uint16_t tenant_of(const trace::Request& request) const {
    return static_cast<std::uint16_t>(
        std::min<std::uint32_t>(request.tenant, tenant_count_ - 1));
  }
  void on_arrival(const trace::Request& request, SimTime now) override;
  /// Runs the event queue dry (crash-armed when injection is on).
  void drain_events();
  /// Where a page read is served from.
  enum class ReadSource { kBuffer, kUnmapped, kNand };
  /// A page read resolved against the drive state at its arrival; `ctx`
  /// is filled only for kNand, with the integrity verdict still clean.
  struct ResolvedRead {
    ReadSource source = ReadSource::kNand;
    ReadContext ctx;
  };
  /// The one read resolution step of every read path: buffer/unmapped
  /// check, FTL lookup, retention age (static or write-time), and the
  /// channel assessment of the page's sensing requirement. Counts
  /// nothing; channel_.assess is stateful under adaptive thresholds, so
  /// each call is one observed read.
  ResolvedRead resolve_read(std::uint64_t lpn, SimTime now);
  /// Front half shared by both serving paths: resolve_read, then the read
  /// counters and read-back verification. Returns nullopt for a
  /// DRAM-served page (buffer hit or unmapped read).
  std::optional<ReadContext> begin_read(std::uint64_t lpn, SimTime now);
  /// DRAM service of a buffer hit or an unmapped read.
  PageService dram_read() const {
    return {.response = config_.latency.buffer_latency,
            .buffer = config_.latency.buffer_latency};
  }
  PageService service_read_page(std::uint64_t lpn, SimTime now);
  Duration service_write_page(std::uint64_t lpn, SimTime now);
  /// Read-back verification (no-op when integrity is off): counts
  /// verified/mismatch/undetected reads, records persistent failures for
  /// the array layer, and sets ctx's integrity verdict.
  void verify_read_page(ReadContext& ctx);
  /// Write-back tail of both write paths: buffer the page dirty, flush the
  /// evicted victims, and run the kFlushBarrier cadence.
  void buffer_write(std::uint64_t lpn, SimTime now);
  /// Tail of both write-through paths (kFua, QoS write admission): the
  /// just-programmed page is durable and stays cached clean for reads.
  void settle_write_through(std::uint64_t lpn, SimTime now);
  /// Programs one buffered page to NAND and records it durable.
  void flush_victim(std::uint64_t lpn, SimTime now);
  /// Marks lpn's *current* FTL version as the durable one.
  void mark_durable(std::uint64_t lpn);
  void flush_barrier_at(SimTime now);
  /// Resets `results_` to empty, with `sensing_level_reads` sized to the
  /// ladder (shared by the constructor and reset_measurements()).
  void clear_results();

  SsdConfig config_;
  const reliability::BerModel& normal_model_;
  const reliability::BerModel& reduced_model_;
  /// The channel<->decoder seam: BER composition (wear/age cache +
  /// disturb), sensing ladder, threshold tracking, decode calibration.
  /// Declared before policy_ (construction order: the policy captures the
  /// ladder reference).
  reliability::ReadChannel channel_;
  ftl::PageMappingFtl ftl_;
  ftl::WriteBuffer buffer_;
  /// The drive's own kernel, idle when an external kernel is supplied;
  /// events_ binds to one or the other at construction so every use site
  /// is oblivious to the mode.
  EventQueue own_events_;
  EventQueue& events_;
  const bool external_kernel_ = false;
  /// Trace arrivals of run_segment()/run_open_loop() (idle when an
  /// external kernel is supplied: the host layer feeds it).
  ArrivalFeed feed_;
  ChipScheduler scheduler_;
  /// Null unless config_.faults.enabled; attached to ftl_ and the read
  /// policy's recovery decorator. Declared before policy_ (construction
  /// order: the policy captures the pointer).
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<ReadPolicy> policy_;
  /// Data birth time per prefill extent for AgeModel::kStaticPerLba:
  /// entry e holds the birth of LPNs from e * prefill_extent_pages up to
  /// the next extent or static_birth_pages_ (empty under every other age
  /// model).
  std::vector<SimTime> static_birth_;
  /// Prefilled pages static_birth_ covers (0 unless kStaticPerLba): the
  /// bound of a static-age lookup, since the last extent may be partial.
  std::uint64_t static_birth_pages_ = 0;
  Rng rng_;
  SsdResults results_;
  /// Pooled per-read attempt scratch for latency-breakdown tracing; reused
  /// across reads so the tracing path stops allocating per request.
  std::vector<ReadAttempt> attempts_scratch_;
  ftl::FtlStats prefill_stats_;
  /// Per-LPN durable version ledger (see durable_versions()); u32 like
  /// the FTL's own version_.
  std::vector<std::uint32_t> durable_version_;
  bool crashed_ = false;
  std::uint64_t crash_ordinal_ = 0;
  /// config_.integrity.enabled, hoisted for the read hot path.
  bool integrity_mode_ = false;
  /// Persistent integrity failures of the last service_external() call
  /// (see integrity_failed_lpns()).
  std::vector<std::uint64_t> integrity_failed_lpns_;
  /// kFlushBarrier: acked host page writes since the last barrier.
  std::uint64_t acked_since_barrier_ = 0;
  /// QoS mode (config_.qos.enabled) state: request slot pool + free list,
  /// per-tenant in-flight counts for admission control, and the slot
  /// high-water gauge.
  bool qos_mode_ = false;
  std::uint32_t tenant_count_ = 1;
  std::vector<QosRequest> qos_requests_;
  std::vector<std::uint64_t> qos_free_slots_;
  std::vector<std::uint64_t> qos_outstanding_;
  std::uint64_t qos_slots_high_water_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  Histogram* read_latency_us_hist_ = nullptr;
};

}  // namespace flex::ssd
