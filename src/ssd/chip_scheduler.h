// Per-chip NAND command scheduling.
//
// Each chip serialises its commands. The reservation path (submit) books
// a command behind the chip's in-flight work in issue order; QoS mode
// (enable_qos) queues commands per chip and dispatches them by one rule,
// earliest deadline first. Occupancy is decomposed into channel-transfer
// time (the bus), die-busy time (array sensing / program / erase) and
// controller time (LDPC decode) so utilisation can be attributed per
// resource, and the scheduler keeps per-chip queue-depth and wait
// accounting that surfaces in SsdResults. Completion events are posted to
// the simulator's EventQueue, which is where the in-flight gauge (and
// hence observed queue depth) is maintained.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "ftl/page_mapping.h"
#include "ssd/event_queue.h"
#include "ssd/latency_model.h"

namespace flex::ssd {

/// One NAND command's occupancy, split by resource. The chip is held for
/// the sum (channel, die and controller work of one command do not overlap
/// with each other — only commands on *different* chips overlap).
struct ChipCommand {
  Duration channel = 0;     ///< bus transfer
  Duration die = 0;         ///< array busy (tR / tPROG / tBERS)
  Duration controller = 0;  ///< ECC decode and similar controller work

  Duration total() const { return channel + die + controller; }
};

/// Per-chip counters accumulated between reset_stats() calls.
struct ChipStats {
  std::uint64_t commands = 0;
  /// Commands that found the chip busy and had to wait.
  std::uint64_t queued_commands = 0;
  /// Total time commands spent waiting for the chip (ns).
  Duration wait_time = 0;
  Duration channel_busy = 0;
  Duration die_busy = 0;
  Duration controller_busy = 0;
  /// Highest number of simultaneously outstanding commands observed.
  std::uint64_t max_queue_depth = 0;

  Duration busy_time() const {
    return channel_busy + die_busy + controller_busy;
  }
  /// Busy fraction over an observation window of `elapsed` ns.
  double utilization(Duration elapsed) const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(busy_time()) /
                              static_cast<double>(elapsed);
  }

  bool operator==(const ChipStats&) const = default;
};

/// The one QoS dispatch rule. The enum and QosConfig::policy remain only
/// because external benchmark code assigns them. FIFO is a configuration
/// of the rule, not a policy: with every class budget equal, every
/// priority 0 and fair_share_slack at its maximum, EDF dispatches in
/// submission order (DESIGN.md §2.7).
enum class QosPolicy {
  /// Earliest-deadline-first with a weighted-fair override: when the
  /// spread of tenant virtual service times exceeds fair_share_slack the
  /// most-behind tenant dispatches next regardless of deadline order.
  kDeadline,
};

/// Deadline class of a queued command. Host reads and write-through
/// programs charge the issuing tenant's fair share; background work
/// (buffer flushes, GC trains, refresh scrubs) is throttleable.
enum class QosClass : std::uint8_t { kRead = 0, kWrite = 1, kBackground = 2 };

/// Multi-tenant QoS mode (SsdConfig::qos). Off by default — the legacy
/// path (synchronous chip reservation, single implicit tenant) reproduces
/// every seed figure bit-identically. When enabled, host NAND commands
/// queue per chip and dispatch by deadline, request latencies become
/// event-driven (a request completes when its slowest queued command
/// completes), and per-tenant response stats land in SsdResults::tenant.
/// FTL state mutations (placement, GC, hotness, disturb counters) stay
/// synchronous at arrival time, so differently configured schedulers walk
/// the *identical* drive-state trajectory and differ only in queueing —
/// which is exactly what makes the QoS ablation a controlled experiment.
/// The scheduler reads the budgets, weights, slack and throttle; the
/// simulator reads the rest.
struct QosConfig {
  bool enabled = false;
  /// Always kDeadline (see QosPolicy).
  QosPolicy policy = QosPolicy::kDeadline;
  /// Number of tenants; requests carry a tenant index (clamped here).
  std::uint32_t tenants = 1;
  /// Fair-share weights, empty (all 1) or exactly `tenants` entries.
  std::vector<double> tenant_weights;
  /// Per-class deadline budgets: a command queued at `t` with priority `p`
  /// carries the absolute deadline `t + budget / (1 + p)`. Deadlines are
  /// scheduling targets, not guarantees — an overloaded chip serves
  /// expired commands in deadline order, which is what keeps EDF
  /// starvation-free (every waiting command's deadline eventually becomes
  /// the minimum).
  Duration read_deadline = 2 * kMillisecond;
  Duration write_deadline = 10 * kMillisecond;
  Duration background_deadline = 50 * kMillisecond;
  /// Virtual-time spread that triggers the weighted-fair override (ns of
  /// weighted service); the maximum Duration turns the override off.
  Duration fair_share_slack = 5 * kMillisecond;
  /// Defer eligible background commands while at least this many host
  /// commands wait on the same chip (0 disables throttling). A deferred
  /// command becomes eligible again when its own deadline expires, so
  /// maintenance can be delayed but never starved.
  std::uint64_t gc_throttle_queue_depth = 0;
  /// Admission control: reject a request outright when its tenant already
  /// has this many requests in flight (0 = off). Rejection happens before
  /// any FTL mutation and bounds queue memory under overload.
  std::uint64_t admission_max_outstanding = 0;
  /// Write admission: at or above this many dirty buffer pages, host
  /// writes switch to queued write-through (ack at program completion)
  /// instead of buffering — back-pressure instead of unbounded dirtying.
  /// 0 = off. Must be <= write_buffer_pages.
  std::uint64_t write_admission_dirty_watermark = 0;
};

/// Completion record delivered to the QosSink when a tagged command
/// finishes service. `start - arrival` is the queue wait; the ChipCommand
/// carries the die/channel/controller split for latency attribution.
struct QosCompletion {
  std::uint64_t tag = 0;
  std::size_t chip = 0;
  SimTime arrival = 0;
  SimTime start = 0;
  SimTime completion = 0;
  ChipCommand cmd;
};

/// Receives tagged command completions in QoS mode (the simulator).
class QosSink {
 public:
  virtual ~QosSink() = default;
  virtual void on_qos_complete(const QosCompletion& done) = 0;
};

class ChipScheduler {
 public:
  ChipScheduler(std::size_t chips, EventQueue& events);
  ChipScheduler(const ChipScheduler&) = delete;
  ChipScheduler& operator=(const ChipScheduler&) = delete;
  ~ChipScheduler();

  /// Tag for fire-and-forget commands (no sink notification).
  static constexpr std::uint64_t kNoTag = ~0ULL;

  std::size_t chips() const { return free_at_.size(); }

  /// Chip owning a physical page. Page-level channel striping (superblock
  /// layout): consecutive pages of a block land on different chips, so
  /// flush bursts and GC relocation trains parallelise across the array
  /// instead of serialising behind one write frontier.
  std::size_t chip_of(std::uint64_t ppn) const { return ppn % chips(); }

  /// Issues one command to `chip` no earlier than `arrival` (an arrival
  /// before the kernel's clock is clamped to it, so a completion never
  /// lands in the past); returns its completion time. Commands on one chip
  /// serialise in issue order. `op` names the command on the chip's trace
  /// track when tracing is enabled (static-lifetime string; unused
  /// otherwise).
  SimTime submit(std::size_t chip, SimTime arrival, const ChipCommand& cmd,
                 const char* op = "cmd");

  /// Schedules a flush/GC write result's NAND operations: the host program
  /// on its own chip, then the result's GC relocations and erases as a
  /// maintenance train (submit_maintenance).
  void submit_background(SimTime now, const ftl::WriteResult& result,
                         const LatencyModel& latency);

  /// Background maintenance without a host program (GC byproducts of a
  /// write-through host program, refresh-scrub relocation trains): each
  /// relocation and erase goes to the next chip round-robin, so trains
  /// parallelise instead of stalling the whole array. In QoS mode every
  /// train command queues as throttleable background work; otherwise it
  /// is reserved through submit().
  void submit_maintenance(SimTime now, std::uint64_t moves,
                          std::uint64_t erases, const LatencyModel& latency);

  /// Earliest time `chip` can start new work.
  SimTime free_at(std::size_t chip) const { return free_at_[chip]; }

  /// Switches the scheduler into QoS mode: commands submitted through
  /// submit_qos() and the background trains queue per chip and dispatch
  /// earliest deadline first, with ties broken by submission order; the
  /// weighted-fair override and the background throttle of `config`
  /// apply on top. Legacy submit() keeps working (and stays
  /// byte-identical) when QoS mode is never enabled. `sink` (may be null)
  /// receives completions of tagged commands.
  void enable_qos(const QosConfig& config, QosSink* sink);
  bool qos_enabled() const { return qos_enabled_; }

  /// Queues one command on `chip` (QoS mode only). The deadline is
  /// assigned here from the class budget and `priority`; completion of a
  /// tagged command is reported to the sink. Returns the command's
  /// sequence number (submission rank, used by tests).
  std::uint64_t submit_qos(std::size_t chip, SimTime now,
                           const ChipCommand& cmd, QosClass klass,
                           std::uint16_t tenant, std::uint8_t priority,
                           std::uint64_t tag, const char* op = "cmd");

  /// Highest total number of commands queued-but-not-in-service across
  /// all chips since the last reset_stats() — the bounded-queue-memory
  /// witness for the overload tests.
  std::uint64_t qos_pending_high_water() const {
    return qos_pending_high_water_;
  }
  /// Background commands bypassed by at least one dispatch decision while
  /// the host queue exceeded gc_throttle_queue_depth.
  std::uint64_t qos_background_deferrals() const {
    return qos_background_deferrals_;
  }
  /// Dispatches where the weighted-fair override preempted deadline order.
  std::uint64_t qos_fairness_overrides() const {
    return qos_fairness_overrides_;
  }

  /// Power loss at `now`: in-flight commands vanish (their completion
  /// events were dropped from the queue, so the in-flight gauges would
  /// otherwise leak) and every chip is idle at power-on.
  void power_loss(SimTime now);

  const std::vector<ChipStats>& stats() const { return stats_; }
  /// Clears the counters but keeps chip occupancy and in-flight state —
  /// used by SsdSimulator::reset_measurements between warmup and measure.
  void reset_stats();

  /// Binds the `chip.*` (and, in QoS mode, `sched.qos_*`) counters to
  /// the scheduler's own stats, the wait histogram, and per-chip trace
  /// spans (see telemetry.h); nullptr detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

 private:
  /// One queued command in QoS mode.
  struct QosPending {
    ChipCommand cmd;
    SimTime arrival = 0;
    SimTime deadline = 0;
    std::uint64_t seq = 0;
    std::uint64_t tag = kNoTag;
    std::uint16_t tenant = 0;
    QosClass klass = QosClass::kBackground;
    const char* op = "cmd";
  };

  Duration qos_class_budget(QosClass klass) const;
  double qos_tenant_weight(std::uint16_t tenant) const;
  /// Counts a command issued to `chip` and the outstanding depth it
  /// raises (both paths, at issue time).
  void admit(std::size_t chip);
  /// Start-of-service accounting of both paths: busy and wait stats, and
  /// with telemetry attached the wait histogram and the chip track's wait
  /// and op spans (observe_start). The telemetry half is a separate
  /// function so that the untraced call stays short: folded into one
  /// body, a reservation cost ~1.5 ns (7%) more in a submit loop.
  void account_start(std::size_t chip, SimTime arrival, SimTime start,
                     const ChipCommand& cmd, const char* op);
  void observe_start(std::size_t chip, SimTime arrival, SimTime start,
                     const ChipCommand& cmd, const char* op);
  /// One train command, routed by mode: queued background work in QoS
  /// mode, a reservation otherwise.
  void submit_train_command(std::size_t chip, SimTime now,
                            const ChipCommand& cmd, const char* op);
  /// Picks the next queue index to dispatch on `chip` at `now`; the queue
  /// must be non-empty.
  std::size_t qos_pick_index(std::size_t chip, SimTime now);
  void qos_start_service(std::size_t chip, SimTime start,
                         const QosPending& entry);
  void qos_complete(std::size_t chip, SimTime now);

  EventQueue& events_;
  std::vector<SimTime> free_at_;
  std::vector<std::uint64_t> in_flight_;
  std::vector<ChipStats> stats_;
  std::size_t next_background_chip_ = 0;

  bool qos_enabled_ = false;
  QosConfig qos_config_;
  QosSink* qos_sink_ = nullptr;
  std::vector<std::vector<QosPending>> qos_queue_;  ///< per chip
  std::vector<char> qos_busy_;                      ///< per chip
  std::vector<QosPending> qos_active_;              ///< per chip, if busy
  std::vector<SimTime> qos_active_start_;           ///< per chip, if busy
  /// Weighted virtual service time per tenant (ns / weight), host classes
  /// only — the weighted-fair ledger.
  std::vector<double> qos_virtual_;
  std::uint64_t qos_seq_ = 0;
  std::uint64_t qos_pending_total_ = 0;  ///< queued, not in service
  std::uint64_t qos_pending_high_water_ = 0;
  std::uint64_t qos_background_deferrals_ = 0;
  std::uint64_t qos_fairness_overrides_ = 0;

  telemetry::Telemetry* telemetry_ = nullptr;
  Histogram* wait_hist_ = nullptr;
};

}  // namespace flex::ssd
