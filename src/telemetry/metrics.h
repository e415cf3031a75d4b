// Deterministic metrics registry for the telemetry subsystem.
//
// A counter is a *binding*, not a second copy: a component binds a name to
// a reader over a count it already keeps (its stats struct, its results),
// and the registry reports that count's growth since the binding was made
// or since the last zero(). The component's hot path therefore bumps one
// field and nothing else, and the registry and the component's own stats
// cannot disagree. Gauges and histograms are push-style: the component
// holds a stable handle and writes through it, guarded by a single
// null-pointer check at the instrumentation site (see telemetry.h).
//
// Snapshots are ordered maps, so serialising one is deterministic, and
// merging shards in a fixed order (the bench harness folds cells in index
// order) gives bit-identical results whatever thread count produced them.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace flex::telemetry {

/// Shortest decimal representation of `v` that parses back to exactly the
/// same double — deterministic, locale-free JSON number formatting.
std::string format_double(double v);

/// Binning of a registry histogram, kept as plain data so snapshots can be
/// compared and merged without a live Histogram.
struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t bins = 1;
  bool log_spaced = false;

  Histogram make() const {
    return log_spaced ? Histogram::log_spaced(lo, hi, bins)
                      : Histogram(lo, hi, bins);
  }
  bool operator==(const HistogramSpec&) const = default;
};

struct HistogramData {
  HistogramSpec spec;
  std::vector<std::uint64_t> counts;
  std::uint64_t total = 0;

  bool operator==(const HistogramData&) const = default;
};

/// Value-type snapshot of a registry. Merge is associative: counters and
/// gauges add, histograms add bin-wise (specs must match).
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  void merge(const MetricsSnapshot& other);
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// One JSON object per line, counters then gauges then histograms, each
  /// alphabetical — byte-deterministic for identical snapshots.
  /// `line_prefix` is inserted verbatim after each opening brace (callers
  /// use it to tag every line with its experiment cell).
  void write_jsonl(std::ostream& out, std::string_view line_prefix = {}) const;
  std::string to_jsonl() const;

  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  /// Reads a count its component keeps. Between a bind (or zero()) and
  /// any later read the count may only grow.
  using Reader = std::function<std::uint64_t()>;
  struct Gauge {
    double value = 0.0;
  };

  /// Binds counter `name` to `reader` on behalf of `owner`. The counter
  /// keeps what it already held and adds the reader's growth from now on;
  /// live bindings of one name add up.
  void bind(const void* owner, std::string_view name, Reader reader);
  /// Freezes every counter `owner` bound at its current value and drops
  /// the readers (detach, or the owner going away). A later bind of the
  /// same name keeps accumulating from the frozen value.
  void unbind(const void* owner);

  /// Get-or-create. The returned reference is stable for the registry's
  /// lifetime (map nodes never move), so hot paths bind once and write a
  /// plain value thereafter.
  Gauge& gauge(std::string_view name);
  /// Get-or-create; an existing histogram must have been created with the
  /// same spec.
  Histogram& histogram(std::string_view name, const HistogramSpec& spec);

  MetricsSnapshot snapshot() const;
  /// Restarts every counter at zero (rebasing its readers on their
  /// current values) and zeroes gauges and histograms in place; handles
  /// stay valid. Used to scope metrics to a measurement window (warmup vs
  /// measured pass).
  void zero();

 private:
  struct Binding {
    const void* owner;
    Reader read;
    std::uint64_t base;  ///< read() at bind time or the last zero()
  };
  struct CounterEntry {
    /// Growth of bindings already dropped, since the last zero().
    std::uint64_t settled = 0;
    std::vector<Binding> bindings;

    std::uint64_t value() const;
  };
  struct HistEntry {
    HistogramSpec spec;
    Histogram hist;
  };

  std::map<std::string, CounterEntry, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, HistEntry, std::less<>> histograms_;
};

}  // namespace flex::telemetry
