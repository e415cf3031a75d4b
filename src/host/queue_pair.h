// NVMe-like submission/completion queue pairs for one drive.
//
// Lifecycle of a command (all times on the shared deterministic kernel):
//   submit()            host claims an SQ slot (or backlogs when the SQ is
//                       full), then the submission capsule crosses the
//                       interconnect (Transport::deliver_command);
//   doorbell            the capsule lands in the drive's SQ; the
//                       controller's fetch unit serialises slot fetches at
//                       `doorbell_latency` apiece, arbitrating across
//                       queue pairs round-robin;
//   dispatch            at fetch completion the command enters the drive
//                       (Dispatcher::dispatch returns its service time);
//   completion          when service ends, a CQ entry posts (bounded
//                       cq_depth: a full CQ stalls the posting until the
//                       host frees a slot), crosses back
//                       (Transport::deliver_completion), and the host
//                       consumes it `completion_latency` later, serialised
//                       per queue pair — freeing the SQ slot and pulling
//                       the backlog.
//
// Zero-latency fast path: any stage whose event time equals the current
// simulated time runs inline instead of through the kernel, so a
// zero-cost host configuration services commands synchronously at
// arrival — exactly the single-drive simulator's timeline, which is what
// makes the 1-drive array byte-identical to the bare SsdSimulator.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.h"
#include "ssd/event_queue.h"

namespace flex::host {

struct QueuePairConfig {
  std::uint32_t queue_pairs = 1;
  std::uint32_t sq_depth = 64;
  std::uint32_t cq_depth = 64;
  /// Controller fetch cost per doorbell'd command (serialised).
  Duration doorbell_latency = 1 * kMicrosecond;
  /// Host CQE processing cost (serialised per queue pair).
  Duration completion_latency = 1 * kMicrosecond;
};

/// One host command against one drive, as the queue pair carries it.
struct HostCommand {
  std::uint64_t request_slot = 0;  ///< array request this belongs to
  std::uint32_t drive = 0;
  std::uint64_t lpn = 0;           ///< drive-local LPN
  std::uint32_t pages = 1;
  bool is_write = false;
  std::uint16_t tenant = 0;
  std::uint8_t priority = 0;
  std::uint8_t requester = 0;
  std::uint32_t qp = 0;
  /// Interconnect payloads: the submission capsule (writes carry data
  /// down) and the completion capsule (reads carry data up).
  std::uint64_t submit_bytes = 0;
  std::uint64_t complete_bytes = 0;
};

/// Stage timestamps of a completed command; consecutive differences are
/// the host-layer latency decomposition (submitted -> doorbell: transfer;
/// doorbell -> fetched: SQ wait + fetch; fetched -> service_end: drive;
/// service_end -> done: completion path).
struct CommandTiming {
  SimTime submitted = 0;
  SimTime doorbell = 0;
  SimTime fetched = 0;
  SimTime service_end = 0;
  SimTime done = 0;
};

struct QueuePairStats {
  std::uint64_t submitted = 0;
  std::uint64_t fetched = 0;
  /// Commands that found the SQ full and waited in the host backlog.
  std::uint64_t backlogged = 0;
  /// Completions that found the CQ full and stalled.
  std::uint64_t cq_stalls = 0;
  std::uint64_t sq_high_water = 0;
  std::uint64_t backlog_high_water = 0;
};

class QueuePairSet {
 public:
  /// Interconnect hooks (implemented by the array over Interconnect).
  class Transport {
   public:
    virtual ~Transport() = default;
    /// Delivers the submission capsule; returns its arrival (doorbell)
    /// time at the drive.
    virtual SimTime deliver_command(const HostCommand& cmd, SimTime now) = 0;
    /// Delivers the completion capsule; returns its arrival at the host.
    virtual SimTime deliver_completion(const HostCommand& cmd,
                                       SimTime now) = 0;
  };

  /// Drive-side hooks.
  class Dispatcher {
   public:
    virtual ~Dispatcher() = default;
    /// Command enters the drive at `now`; returns its service duration.
    virtual Duration dispatch(const HostCommand& cmd, SimTime now) = 0;
    /// CQE consumed by the host: the command is finished end to end.
    virtual void complete(const HostCommand& cmd,
                          const CommandTiming& timing) = 0;
  };

  QueuePairSet(const QueuePairConfig& config, ssd::EventQueue& kernel,
               Transport& transport, Dispatcher& dispatcher);

  /// Submits `cmd` (cmd.qp must be < queue_pairs) at `now`.
  void submit(const HostCommand& cmd, SimTime now);

  /// Commands submitted but not yet consumed (SQ occupancy + backlog,
  /// summed over queue pairs) — the shortest-queue replica signal.
  std::uint64_t outstanding() const { return outstanding_; }

  const QueuePairStats& stats() const { return stats_; }
  void reset_stats() { stats_ = QueuePairStats{}; }

 private:
  struct Slot {
    HostCommand cmd;
    CommandTiming timing;
  };

  struct QueuePair {
    std::uint32_t sq_used = 0;
    std::uint32_t cq_used = 0;
    std::deque<std::uint32_t> backlog;  ///< host-side, SQ full
    std::deque<std::uint32_t> ready;    ///< doorbell'd, awaiting fetch
    std::deque<std::uint32_t> cq_wait;  ///< service done, CQ full
    SimTime host_free_at = 0;           ///< host CQE processing serialiser
  };

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t slot);
  /// Runs `member(slot)` inline when `when == kernel.now()` (the
  /// zero-latency fast path), otherwise schedules it.
  template <void (QueuePairSet::*member)(std::uint32_t, SimTime)>
  void schedule_or_run(SimTime when, std::uint32_t slot);

  void begin_submission(std::uint32_t slot, SimTime now);
  void on_doorbell(std::uint32_t slot, SimTime now);
  void try_fetch(SimTime now);
  std::uint32_t arbitrate();
  void on_fetched(std::uint32_t slot, SimTime now);
  void on_service_done(std::uint32_t slot, SimTime now);
  void post_completion(std::uint32_t slot, SimTime now);
  void on_consumed(std::uint32_t slot, SimTime now);

  QueuePairConfig config_;
  ssd::EventQueue& kernel_;
  Transport& transport_;
  Dispatcher& dispatcher_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<QueuePair> qps_;
  bool fetch_busy_ = false;
  std::uint32_t fetching_slot_ = 0;
  std::uint32_t rr_next_ = 0;
  std::uint64_t outstanding_ = 0;
  QueuePairStats stats_;
};

}  // namespace flex::host
