// Open-loop multi-tenant synthetic host engine.
//
// Generates a request stream directly into the simulator's DES kernel (via
// trace::RequestSource) instead of materialising a trace vector first:
// arrivals come from workload::ArrivalProcess (Poisson or MMPP bursts),
// each arrival is attributed to a tenant by its arrival weight
// (zipf_tenant_population gives a Zipf tenant popularity), and the
// tenant's spec drives the read/write mix, request length, and Zipf
// address skew inside the tenant's private footprint slice. Requests carry the tenant index and a
// priority so the QoS chip scheduler can queue per tenant.
//
// Determinism: one Rng seeded from EngineConfig::seed drives everything
// except arrival times (which have their own forked stream inside
// ArrivalProcess), so the same config + seed reproduces the identical
// request stream on any thread count or platform.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/zipf.h"
#include "trace/trace.h"
#include "workload/arrival.h"

namespace flex::workload {

struct TenantSpec {
  std::string name;
  /// Share of arrivals attributed to this tenant (weights are normalised
  /// over the population).
  double arrival_weight = 1.0;
  /// Fair-share weight for the QoS scheduler (carried through to the bench
  /// config; the engine itself does not use it).
  double qos_weight = 1.0;
  double read_fraction = 0.7;
  /// Address skew inside the tenant's footprint.
  double zipf_theta = 0.9;
  std::uint64_t footprint_pages = 65'536;
  /// First LPN of the tenant's footprint slice.
  std::uint64_t footprint_offset = 0;
  double mean_request_pages = 2.0;
  std::uint32_t max_request_pages = 32;
  /// Deadline class: higher priority tightens the scheduler deadline.
  std::uint8_t priority = 0;
  /// Host port this tenant submits through in an array (src/host): pinning
  /// tenants to requesters models per-port uplink contention. Ignored by
  /// the single-drive simulator.
  std::uint8_t requester = 0;
};

struct EngineConfig {
  ArrivalConfig arrivals;
  std::vector<TenantSpec> tenants;
  std::uint64_t seed = 0x5EED;

  Status Validate() const;
};

class WorkloadEngine final : public trace::RequestSource {
 public:
  /// `config` must satisfy Validate() (asserted).
  explicit WorkloadEngine(const EngineConfig& config);

  /// The next request; the stream never ends (the caller bounds it, e.g.
  /// through run_open_loop's request cap).
  std::optional<trace::Request> next() override;

  /// Requests generated so far.
  std::uint64_t generated() const { return generated_; }

  /// Draws the next `n` requests into a vector (statistical tests and
  /// closed-loop replay).
  std::vector<trace::Request> materialize(std::uint64_t n);

 private:
  struct TenantState {
    ZipfSampler zipf;
    std::uint64_t mult;  ///< coprime scatter multiplier for the footprint
    double geo_p;        ///< geometric request-length parameter
  };

  std::uint32_t pick_tenant();

  EngineConfig config_;
  ArrivalProcess arrivals_;
  Rng rng_;
  std::vector<TenantState> tenants_;
  std::vector<double> cumulative_weight_;
  std::uint64_t generated_ = 0;
};

/// Slices `footprint_pages` into `n` equal disjoint tenant regions whose
/// arrival shares follow Zipf(theta) (tenant 0 hottest). A convenience
/// builder for benches and tests; tweak the returned specs freely.
std::vector<TenantSpec> zipf_tenant_population(std::uint32_t n, double theta,
                                               std::uint64_t footprint_pages);

}  // namespace flex::workload
