// The one trace-arrival feed of both simulators (SsdSimulator and the host
// layer's ArraySimulator).
//
// A feed keeps exactly one arrival event pending on its kernel: each
// arrival schedules its successor when it fires, then hands its request to
// the sink. Kernel memory therefore tracks in-flight work — pending events
// are the in-flight completions plus one arrival — instead of trace length.
//
// Two sources:
//  * a trace segment (start(requests)). The feed reserves one kernel
//    ordinal per request up front and schedules request i under ordinal
//    base + i, so every (when, seq) key — and so every tie-break against
//    the completions scheduled meanwhile, every crash ordinal and the
//    `event_queue.scheduled` count — is exactly what scheduling the whole
//    segment at once would give. Arrival times are used as stamped, even
//    when one lies before the kernel clock. Streaming needs nondecreasing
//    arrivals; a segment that is not sorted by arrival is scheduled whole
//    (same ordinals), the only way to keep its firing order.
//  * an open-loop RequestSource (start(source, max)). The next request is
//    drawn when the current one fires; it takes the next ordinal at that
//    moment, and an arrival stamped before the kernel clock is clamped to
//    `now` (the kernel fires in (when, seq) order, not wall order).
//
// Power loss (EventQueue::drop_pending) drops the one pending arrival, and
// with it the rest of the feed: nothing is left to schedule a successor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"
#include "ssd/event_queue.h"
#include "trace/trace.h"

namespace flex::ssd {

/// Receives each request as its arrival event fires (the simulator).
class ArrivalSink {
 public:
  virtual ~ArrivalSink() = default;
  virtual void on_arrival(const trace::Request& request, SimTime now) = 0;
};

class ArrivalFeed {
 public:
  ArrivalFeed(EventQueue& kernel, ArrivalSink& sink)
      : kernel_(kernel), sink_(sink) {}
  ArrivalFeed(const ArrivalFeed&) = delete;
  ArrivalFeed& operator=(const ArrivalFeed&) = delete;

  /// Feeds `requests`, which must stay alive until the kernel has drained
  /// the segment. The sink receives references into `requests`.
  void start(const std::vector<trace::Request>& requests);

  /// Feeds up to `max_requests` (0 = until exhaustion) from `source`,
  /// which must stay alive until the kernel has drained them.
  void start(trace::RequestSource& source, std::uint64_t max_requests);

 private:
  void schedule_segment(std::size_t index);
  void pump();

  EventQueue& kernel_;
  ArrivalSink& sink_;
  /// Segment mode: the requests, the ordinal of requests[0], and whether
  /// each arrival schedules its successor (false: all were scheduled).
  const trace::Request* segment_ = nullptr;
  std::size_t segment_size_ = 0;
  std::uint64_t segment_base_ = 0;
  bool streaming_ = false;
  /// Open-loop mode: the source, the drawn request whose arrival is
  /// pending, and how many more may be drawn.
  trace::RequestSource* source_ = nullptr;
  trace::Request next_;
  std::uint64_t remaining_ = 0;
};

}  // namespace flex::ssd
