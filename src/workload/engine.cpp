#include "workload/engine.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <string>

#include "common/assert.h"

namespace flex::workload {

namespace {

// Scatters popularity ranks across the tenant's footprint with a fixed
// multiplicative permutation (same idiom as trace/workloads.cpp): `mult`
// must be coprime with the footprint so the map is a bijection.
std::uint64_t permute(std::uint64_t rank, std::uint64_t mult,
                      std::uint64_t footprint) {
  return (rank * mult) % footprint;
}

std::uint64_t coprime_multiplier(std::uint64_t footprint,
                                 std::uint64_t candidate) {
  while (std::gcd(candidate, footprint) != 1) ++candidate;
  return candidate;
}

}  // namespace

Status EngineConfig::Validate() const {
  if (Status s = arrivals.Validate(); !s.ok()) return s;
  if (tenants.empty()) {
    return Status::InvalidArgument("engine.tenants must not be empty");
  }
  if (tenants.size() > 65'535) {
    return Status::InvalidArgument(
        "engine.tenants exceeds the 16-bit tenant index, got " +
        std::to_string(tenants.size()));
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantSpec& t = tenants[i];
    const std::string who = "engine.tenants[" + std::to_string(i) + "].";
    if (!(t.arrival_weight > 0.0)) {
      return Status::InvalidArgument(who + "arrival_weight must be > 0");
    }
    if (t.read_fraction < 0.0 || t.read_fraction > 1.0) {
      return Status::InvalidArgument(who +
                                     "read_fraction must be in [0, 1]");
    }
    if (t.zipf_theta < 0.0) {
      return Status::InvalidArgument(who + "zipf_theta must be >= 0");
    }
    if (t.max_request_pages < 1) {
      return Status::InvalidArgument(who + "max_request_pages must be >= 1");
    }
    if (t.mean_request_pages < 1.0) {
      return Status::InvalidArgument(who +
                                     "mean_request_pages must be >= 1");
    }
    if (t.footprint_pages < t.max_request_pages) {
      return Status::InvalidArgument(
          who + "footprint_pages must cover max_request_pages");
    }
    // trace::Request carries the lpn in 32 bits.
    if (t.footprint_pages > trace::kLpnSpace ||
        t.footprint_offset > trace::kLpnSpace - t.footprint_pages) {
      return Status::OutOfRange(
          who + "footprint_offset + footprint_pages must be <= 2^32");
    }
    if (!(t.qos_weight > 0.0)) {
      return Status::InvalidArgument(who + "qos_weight must be > 0");
    }
  }
  return Status::Ok();
}

WorkloadEngine::WorkloadEngine(const EngineConfig& config)
    : config_(config),
      arrivals_(config.arrivals, config.seed ^ 0xA11C0DEULL),
      rng_(config.seed) {
  FLEX_EXPECTS(config_.Validate().ok());
  tenants_.reserve(config_.tenants.size());
  double total_weight = 0.0;
  for (const TenantSpec& spec : config_.tenants) {
    tenants_.push_back(TenantState{
        .zipf = ZipfSampler(spec.footprint_pages, spec.zipf_theta),
        .mult = coprime_multiplier(spec.footprint_pages, 2'654'435'761ULL),
        .geo_p = 1.0 / spec.mean_request_pages,
    });
    total_weight += spec.arrival_weight;
    cumulative_weight_.push_back(total_weight);
  }
  for (double& w : cumulative_weight_) w /= total_weight;
}

std::uint32_t WorkloadEngine::pick_tenant() {
  if (tenants_.size() == 1) return 0;
  const double u = rng_.uniform();
  const auto it = std::upper_bound(cumulative_weight_.begin(),
                                   cumulative_weight_.end(), u);
  const auto idx = static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cumulative_weight_.begin(),
                               static_cast<std::ptrdiff_t>(
                                   cumulative_weight_.size() - 1)));
  return idx;
}

std::optional<trace::Request> WorkloadEngine::next() {
  const SimTime arrival = arrivals_.next();

  const std::uint32_t tenant = pick_tenant();
  const TenantSpec& spec = config_.tenants[tenant];
  TenantState& state = tenants_[tenant];

  trace::Request req;
  req.arrival = arrival;
  req.is_write = !rng_.chance(spec.read_fraction);
  std::uint32_t pages = 1;
  while (pages < spec.max_request_pages && !rng_.chance(state.geo_p)) {
    ++pages;
  }
  req.pages = pages;
  std::uint64_t lpn =
      spec.footprint_offset +
      permute(state.zipf.sample(rng_), state.mult, spec.footprint_pages);
  // Clamp runs that would spill past the tenant's footprint slice.
  if (lpn + req.pages > spec.footprint_offset + spec.footprint_pages) {
    lpn = spec.footprint_offset + spec.footprint_pages - req.pages;
  }
  // Validate() bounds every slice's end by trace::kLpnSpace.
  req.lpn = static_cast<std::uint32_t>(lpn);
  req.tenant = static_cast<std::uint16_t>(tenant);
  req.priority = spec.priority;
  req.requester = spec.requester;
  ++generated_;
  return req;
}

std::vector<trace::Request> WorkloadEngine::materialize(std::uint64_t n) {
  std::vector<trace::Request> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(*next());
  return out;
}

std::vector<TenantSpec> zipf_tenant_population(std::uint32_t n, double theta,
                                               std::uint64_t footprint_pages) {
  FLEX_EXPECTS(n >= 1);
  FLEX_EXPECTS(footprint_pages >= n);
  std::vector<TenantSpec> tenants(n);
  const std::uint64_t slice = footprint_pages / n;
  double norm = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i + 1), theta);
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    TenantSpec& t = tenants[i];
    t.name = "tenant-" + std::to_string(i);
    t.arrival_weight =
        1.0 / std::pow(static_cast<double>(i + 1), theta) / norm;
    t.footprint_pages = slice;
    t.footprint_offset = static_cast<std::uint64_t>(i) * slice;
  }
  return tenants;
}

}  // namespace flex::workload
