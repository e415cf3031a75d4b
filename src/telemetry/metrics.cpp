#include "telemetry/metrics.h"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/assert.h"

namespace flex::telemetry {

// "%.17g" prints noise digits for most values; try increasing precision
// until the representation round-trips.
std::string format_double(double v) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == v) break;
  }
  return buf;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, data] : other.histograms) {
    auto [it, inserted] = histograms.try_emplace(name, data);
    if (inserted) continue;
    HistogramData& mine = it->second;
    FLEX_EXPECTS(mine.spec == data.spec);
    FLEX_ASSERT(mine.counts.size() == data.counts.size());
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += data.counts[i];
    }
    mine.total += data.total;
  }
}

void MetricsSnapshot::write_jsonl(std::ostream& out,
                                  std::string_view line_prefix) const {
  for (const auto& [name, value] : counters) {
    out << '{' << line_prefix << "\"type\":\"counter\",\"name\":\"" << name
        << "\",\"value\":" << value << "}\n";
  }
  for (const auto& [name, value] : gauges) {
    out << '{' << line_prefix << "\"type\":\"gauge\",\"name\":\"" << name
        << "\",\"value\":" << format_double(value) << "}\n";
  }
  for (const auto& [name, data] : histograms) {
    out << '{' << line_prefix << "\"type\":\"histogram\",\"name\":\"" << name
        << "\",\"lo\":" << format_double(data.spec.lo)
        << ",\"hi\":" << format_double(data.spec.hi)
        << ",\"log\":" << (data.spec.log_spaced ? "true" : "false")
        << ",\"total\":" << data.total << ",\"counts\":[";
    for (std::size_t i = 0; i < data.counts.size(); ++i) {
      if (i > 0) out << ',';
      out << data.counts[i];
    }
    out << "]}\n";
  }
}

std::string MetricsSnapshot::to_jsonl() const {
  std::ostringstream out;
  write_jsonl(out);
  return out.str();
}

namespace {

std::uint64_t growth(std::uint64_t now, std::uint64_t base) {
  // A reader that shrank means its component reset a count without a
  // zero() of the registry: the window would silently wrap.
  FLEX_ASSERT(now >= base);
  return now - base;
}

}  // namespace

std::uint64_t MetricsRegistry::CounterEntry::value() const {
  std::uint64_t total = settled;
  for (const Binding& b : bindings) total += growth(b.read(), b.base);
  return total;
}

void MetricsRegistry::bind(const void* owner, std::string_view name,
                           Reader reader) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), CounterEntry{}).first;
  }
  const std::uint64_t base = reader();
  it->second.bindings.push_back({owner, std::move(reader), base});
}

void MetricsRegistry::unbind(const void* owner) {
  for (auto& [name, c] : counters_) {
    std::erase_if(c.bindings, [&c, owner](const Binding& b) {
      if (b.owner != owner) return false;
      c.settled += growth(b.read(), b.base);
      return true;
    });
  }
}

MetricsRegistry::Gauge& MetricsRegistry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const HistogramSpec& spec) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    FLEX_EXPECTS(it->second.spec == spec);
    return it->second.hist;
  }
  return histograms_
      .emplace(std::string(name), HistEntry{spec, spec.make()})
      .first->second.hist;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace(name, c.value());
  }
  for (const auto& [name, g] : gauges_) snap.gauges.emplace(name, g.value);
  for (const auto& [name, entry] : histograms_) {
    HistogramData data;
    data.spec = entry.spec;
    data.total = entry.hist.total();
    data.counts.reserve(entry.hist.bins());
    for (std::size_t i = 0; i < entry.hist.bins(); ++i) {
      data.counts.push_back(entry.hist.bin_count(i));
    }
    snap.histograms.emplace(name, std::move(data));
  }
  return snap;
}

void MetricsRegistry::zero() {
  for (auto& [name, c] : counters_) {
    c.settled = 0;
    for (Binding& b : c.bindings) b.base = b.read();
  }
  for (auto& [name, g] : gauges_) g.value = 0.0;
  for (auto& [name, entry] : histograms_) entry.hist = entry.spec.make();
}

}  // namespace flex::telemetry
