// Telemetry context: one MetricsRegistry + one SpanRecorder per simulator.
//
// The zero-overhead-when-disabled contract: every component holds a
// `Telemetry*` that defaults to nullptr. Counters cost nothing per event
// either way — attaching binds registry names to counts the component
// already keeps (see metrics.h), and detaching (or destroying the
// component) freezes them. Only gauge, histogram and span sites guard on
// the pointer (plus `tracer()` for spans, which are opt-in separately
// because traces are big). With telemetry detached the whole subsystem
// costs one predicted-not-taken branch per such site and allocates
// nothing; simulation results are bit-identical with and without a
// context attached, because instrumentation only observes. A context must
// outlive every component attached to it.
#pragma once

#include <cstdint>

#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace flex::telemetry {

struct Telemetry {
  MetricsRegistry metrics;
  /// Chrome-trace process id stamped on every span this context records
  /// (the bench harness assigns one per experiment cell).
  std::int32_t pid = 0;
  /// Span recording is opt-in on top of metrics.
  bool trace = false;
  SpanRecorder spans;

  SpanRecorder* tracer() { return trace ? &spans : nullptr; }
};

}  // namespace flex::telemetry
