// The one trace-arrival feed of both simulators (SsdSimulator and the host
// layer's ArraySimulator).
//
// A feed keeps exactly one arrival event pending on its kernel: each
// arrival schedules its successor when it fires, then hands its request to
// the sink. Kernel memory therefore tracks in-flight work — pending events
// are the in-flight completions plus one arrival — instead of trace length.
//
// One arrival semantics, for open-loop sources and trace segments alike (a
// segment is fed through trace::VectorSource): the next request is drawn
// when the current one fires, it takes the kernel's next ordinal at that
// moment, and an arrival stamped before the kernel clock is clamped to
// `now`. The kernel refuses events before its clock (EventQueue's
// `when >= now()` contract), so the clock never steps back, also between
// two segments of one trace.
//
// Power loss (EventQueue::drop_pending) drops the one pending arrival, and
// with it the rest of the feed: nothing is left to schedule a successor.
//
// Since the successor is drawn before the current request reaches the
// sink, the sink sees it one request ahead (ArrivalSink::on_lookahead).
#pragma once

#include <cstdint>

#include "common/units.h"
#include "ssd/event_queue.h"
#include "trace/trace.h"

namespace flex::ssd {

/// Receives each request as its arrival event fires (the simulator).
class ArrivalSink {
 public:
  virtual ~ArrivalSink() = default;
  virtual void on_arrival(const trace::Request& request, SimTime now) = 0;
  /// The successor drawn while `on_arrival(current)` is about to run:
  /// called just before it, and only when a successor was drawn. A sink
  /// may warm what the successor will touch; it must change nothing.
  virtual void on_lookahead(const trace::Request& /*next*/) {}
};

class ArrivalFeed {
 public:
  ArrivalFeed(EventQueue& kernel, ArrivalSink& sink)
      : kernel_(kernel), sink_(sink) {}
  ArrivalFeed(const ArrivalFeed&) = delete;
  ArrivalFeed& operator=(const ArrivalFeed&) = delete;

  /// Feeds up to `max_requests` (0 = until exhaustion) from `source`,
  /// which must stay alive until the kernel has drained them.
  void start(trace::RequestSource& source, std::uint64_t max_requests);

 private:
  /// Draws and schedules the next request; false when none is left.
  bool pump();

  EventQueue& kernel_;
  ArrivalSink& sink_;
  /// The source, the drawn request whose arrival is pending, and how many
  /// more may be drawn.
  trace::RequestSource* source_ = nullptr;
  trace::Request next_;
  std::uint64_t remaining_ = 0;
};

}  // namespace flex::ssd
