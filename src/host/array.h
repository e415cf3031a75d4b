// Multi-SSD array simulator: N SsdSimulator drives composed under one
// shared deterministic event kernel, behind NVMe-like queue pairs, a
// requesters -> switch -> drive interconnect, and a striped/replicated
// volume.
//
// Request path: a host request splits into per-group extents
// (VolumeMapper); reads pick one replica per extent (round-robin,
// shortest-queue, or disturb-aware steering), writes fan out to every
// replica. Each resulting command runs the queue-pair lifecycle
// (queue_pair.h) and enters its drive through
// SsdSimulator::service_external on the shared kernel: the drive's one
// request lifecycle on the reservation backend, which finalizes within
// the call, so the drive's chip occupancy, FTL mutations, GC, and
// per-drive stats land exactly as on a bare drive. A request completes
// when its slowest command's completion is consumed.
//
// Determinism contract: one kernel orders every event across drives by
// (time, sequence); all fan-out state (replica round-robin, queue-pair
// arbitration, per-drive RNG seeds derived from the template seed) is
// deterministic, so array runs are byte-identical across --jobs fan-out
// like every other bench in this repo. A 1-drive array with the zero-cost
// host profile (zero link/doorbell/completion latency, infinite
// bandwidth) is byte-identical to the bare SsdSimulator on the same
// trace: every queue-pair stage runs inline at arrival time.
//
// AccessEval scope: kPerDrive leaves each drive's FlexLevel hotness
// statistics to the reads it physically serves — replication *dilutes*
// the signal R-ways. kGlobal feeds each replicated read's access update
// to the sibling replicas too (SsdSimulator::observe_read_access), so all
// copies converge on the array-wide hotness view; the ablation in
// bench/array_scale measures what that buys.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/units.h"
#include "host/interconnect.h"
#include "host/queue_pair.h"
#include "host/volume.h"
#include "ssd/arrival_feed.h"
#include "ssd/event_queue.h"
#include "ssd/simulator.h"
#include "telemetry/telemetry.h"
#include "trace/trace.h"

namespace flex::host {

/// Which replica serves a read in a replicated group.
enum class ReplicaPolicy {
  kRoundRobin,
  /// Fewest outstanding queue-pair commands (tie: lowest drive index).
  kShortestQueue,
  /// Lowest read count on the block backing the page — steers reads away
  /// from disturb-hot blocks, spreading read-disturb pressure across
  /// copies (tie: shortest queue, then lowest index).
  kDisturbAware,
};

/// Where FlexLevel's AccessEval learns from (see file header).
enum class AccessEvalScope { kPerDrive, kGlobal };

struct ArrayConfig {
  std::uint32_t drives = 1;
  /// Copies of every page; drives % replication_factor == 0. 1 = RAID-0,
  /// drives = N-way mirror, between = RAID-10.
  std::uint32_t replication_factor = 1;
  std::uint64_t stripe_pages = 64;
  ReplicaPolicy replica_policy = ReplicaPolicy::kRoundRobin;
  AccessEvalScope access_eval_scope = AccessEvalScope::kPerDrive;
  /// Tenant slots for array-level per-tenant stats (requests clamp).
  std::uint32_t tenants = 1;
  QueuePairConfig queue_pair;
  InterconnectConfig interconnect;
  /// Drive configuration; drive d runs it with seed + d * phi (d = 0
  /// keeps the configured seed — part of the 1-drive identity).
  ssd::SsdConfig drive;

  Status Validate() const;
};

/// Host-side latency decomposition of a read request's slowest command
/// (integer ns; components sum to the response exactly): submission
/// transfer (incl. host backlog), SQ wait + fetch, drive service, and the
/// completion path back.
struct HostBreakdown {
  Duration submit = 0;
  Duration queue = 0;
  Duration drive = 0;
  Duration completion = 0;

  Duration total() const { return submit + queue + drive + completion; }
  bool operator==(const HostBreakdown&) const = default;
};

struct ArrayResults {
  RunningStats read_response;   ///< seconds, end-to-end at the host
  RunningStats write_response;  ///< seconds
  RunningStats all_response;    ///< seconds
  Histogram read_latency_hist = Histogram::log_spaced(1e-6, 1.0, 480);
  HostBreakdown read_breakdown;
  /// Per-tenant array-level response stats (p99 isolation).
  std::vector<ssd::TenantStats> tenant;
  /// Per-drive results snapshot (drive-local latencies, FTL deltas, chip
  /// stats, pool occupancy — everything SsdResults carries).
  std::vector<ssd::SsdResults> drive;
  /// Per-drive queue-pair counters.
  std::vector<QueuePairStats> qp;
  /// Link occupancy (utilization = busy / window).
  std::vector<LinkStats> requester_link;
  std::vector<LinkStats> drive_link;
  LinkStats switch_fabric;
  /// Reads steered to each drive by replica selection (replicated groups
  /// only; striped commands count on their only possible drive).
  std::vector<std::uint64_t> replica_reads;
  /// Sibling hotness notifications under AccessEvalScope::kGlobal (pages).
  std::uint64_t observe_feeds = 0;
  /// Persistent integrity failures a replicated read failed over to a
  /// sibling copy for (SsdConfig::integrity on; page granularity).
  std::uint64_t integrity_failovers = 0;
  /// ... of which a clean sibling copy was found and written back to the
  /// corrupt drive (read-repair). The gap to integrity_failovers counts
  /// pages where every replica was corrupt.
  std::uint64_t read_repairs = 0;
  /// Simulated time spanned by the measured window (throughput divisor).
  Duration window = 0;
  /// Host wall-clock seconds, stamped by the bench harness (never in
  /// stdout; see SsdResults::wall_seconds).
  double wall_seconds = 0;
};

class ArraySimulator : private QueuePairSet::Transport,
                       private QueuePairSet::Dispatcher,
                       private ssd::ArrivalSink {
 public:
  /// Validated construction (the only way to build one).
  ///
  ///   auto array = ArraySimulator::Builder(normal, reduced)
  ///                    .config(cfg)
  ///                    .telemetry(&telemetry)  // optional
  ///                    .Build();
  class Builder {
   public:
    Builder(const reliability::BerModel& normal,
            const reliability::BerModel& reduced)
        : normal_(normal), reduced_(reduced) {}

    Builder& config(ArrayConfig config) {
      config_ = std::move(config);
      return *this;
    }
    Builder& telemetry(telemetry::Telemetry* telemetry) {
      telemetry_ = telemetry;
      return *this;
    }

    StatusOr<std::unique_ptr<ArraySimulator>> Build() const;

   private:
    const reliability::BerModel& normal_;
    const reliability::BerModel& reduced_;
    ArrayConfig config_;
    telemetry::Telemetry* telemetry_ = nullptr;
  };

  /// Sequentially fills the first `host_pages` of the volume (every
  /// replica of each touched group page), aged per the drive config.
  void prefill(std::uint64_t host_pages);

  /// Runs a trace segment against the array; results accumulate. As in
  /// SsdSimulator::run_segment, the segment must be sorted by arrival and
  /// an arrival before the clock is clamped to it.
  void run_segment(const std::vector<trace::Request>& requests);

  /// Open-loop run from a RequestSource (see SsdSimulator::run_open_loop).
  void run_open_loop(trace::RequestSource& source,
                     std::uint64_t max_requests = 0);

  const ArrayResults& results() const { return results_; }

  /// Clears accumulated measurements on the array and every drive and
  /// restarts the throughput window — warmup/measure separation.
  void reset_measurements();

  /// Array logical capacity in pages.
  std::uint64_t logical_pages() const { return volume_.logical_pages(); }
  const VolumeMapper& volume() const { return volume_; }
  std::uint32_t drives() const {
    return static_cast<std::uint32_t>(drives_.size());
  }
  const ssd::SsdSimulator& drive(std::uint32_t d) const {
    return *drives_[d];
  }

  /// Host-level metrics/spans: the `array.*` counters read the array's
  /// own results, queue-pair and failover counts, and the shared kernel
  /// binds `event_queue.*`. Drive-level internals are not attached (N
  /// drives would collide on one registry's counter names).
  void attach_telemetry(telemetry::Telemetry* telemetry);

  ~ArraySimulator();

 private:
  struct ArrayRequest {
    SimTime arrival = 0;
    std::uint64_t lpn = 0;
    std::uint32_t pages = 1;
    std::uint16_t tenant = 0;
    std::uint8_t requester = 0;
    bool is_write = false;
    std::uint32_t outstanding = 0;  ///< commands in flight + issue guard
    Duration response = 0;          ///< slowest command, end to end
    HostBreakdown slowest;
  };

  /// Constructed only by Builder::Build(), from drives it already built on
  /// `kernel`.
  ArraySimulator(const ArrayConfig& config,
                 std::unique_ptr<ssd::EventQueue> kernel,
                 std::vector<std::unique_ptr<ssd::SsdSimulator>> drives);

  // QueuePairSet::Transport
  SimTime deliver_command(const HostCommand& cmd, SimTime now) override;
  SimTime deliver_completion(const HostCommand& cmd, SimTime now) override;
  // QueuePairSet::Dispatcher
  Duration dispatch(const HostCommand& cmd, SimTime now) override;
  void complete(const HostCommand& cmd,
                const CommandTiming& timing) override;

  void submit_request(const trace::Request& request, SimTime now);
  std::uint32_t pick_replica(std::uint32_t group, std::uint64_t dlpn);
  void submit_command(std::uint64_t slot, std::uint32_t drive,
                      const VolumeMapper::Extent& extent, SimTime now);
  /// Records completed requests from the head of record_queue_ — stats
  /// accumulate in *arrival* order even though requests complete out of
  /// order, so array-level means are independent of completion
  /// interleavings (and bit-identical to the bare simulator's in the
  /// 1-drive zero-cost configuration).
  void drain_finalized();
  void finalize(std::uint64_t slot);
  void on_arrival(const trace::Request& request, SimTime now) override;
  /// Replica failover + read-repair for the persistent integrity failures
  /// a read command just surfaced: re-reads each corrupt page from
  /// sibling replicas (host-visible — returned Duration adds to the
  /// command's service) and schedules a repair rewrite on the corrupt
  /// drive when a clean copy exists (background — not host-visible).
  Duration recover_corrupt_pages(const HostCommand& cmd,
                                 const std::vector<std::uint64_t>& lpns,
                                 SimTime now);
  void collect_results();

  ArrayConfig config_;
  /// The shared kernel, heap-held so the drives can be built (and their
  /// Status checked) on it before the array itself is constructed.
  std::unique_ptr<ssd::EventQueue> kernel_;
  /// Trace arrivals of run_segment()/run_open_loop() on the shared kernel.
  ssd::ArrivalFeed feed_;
  /// Declared before volume_: the per-drive logical capacity the volume
  /// math needs comes from the first drive's FTL.
  std::vector<std::unique_ptr<ssd::SsdSimulator>> drives_;
  VolumeMapper volume_;
  std::vector<std::unique_ptr<QueuePairSet>> qps_;
  Interconnect interconnect_;
  std::uint64_t page_bytes_;
  /// Request slot pool + free list (steady state allocates nothing).
  std::vector<ArrayRequest> requests_;
  std::vector<std::uint64_t> free_slots_;
  /// In-flight slots in arrival order; the stat-recording reorder buffer.
  std::deque<std::uint64_t> record_queue_;
  /// Reused split() output buffer.
  std::vector<VolumeMapper::Extent> extent_scratch_;
  /// Per-group round-robin replica cursor.
  std::vector<std::uint32_t> replica_rr_;
  std::vector<std::uint64_t> replica_reads_;
  std::uint64_t observe_feeds_ = 0;
  std::uint64_t integrity_failovers_ = 0;
  std::uint64_t read_repairs_ = 0;
  /// Copied-out failed-lpn list (the drive's scratch is invalidated by
  /// the next service_external call).
  std::vector<std::uint64_t> repair_scratch_;
  SimTime window_start_ = 0;
  ArrayResults results_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace flex::host
