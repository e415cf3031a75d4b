// Host interconnect: requesters -> switch -> per-drive links, each a
// store-and-forward occupancy resource with configurable propagation
// latency and bandwidth. Transfers reserve each hop in sequence at
// submission time (the same immediate-reservation style as
// ChipScheduler's reservation backend), so host-side transfer contention
// is modelled — two requesters hammering one drive serialise on its
// downlink — without any event machinery of its own.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"

namespace flex::host {

struct LinkSpec {
  /// Propagation + framing cost per message.
  Duration latency = 1 * kMicrosecond;
  /// Payload bandwidth; <= 0 models an infinitely fast link (latency
  /// only), which is what the 1-drive byte-identity configuration uses.
  double gb_per_s = 8.0;
};

struct InterconnectConfig {
  /// Host ports submitting into the switch (requests carry a requester
  /// index; tenants pin to ports via workload::TenantSpec::requester).
  std::uint32_t requesters = 1;
  LinkSpec requester_link;  ///< port -> switch, one per requester
  LinkSpec switch_fabric;   ///< the switch crossbar, shared
  LinkSpec drive_link;      ///< switch -> drive, one per drive
};

/// NVMe-ish command/completion capsule size (submission of a read, the
/// completion of a write): what moves when no page payload does.
inline constexpr std::uint32_t kCommandBytes = 64;

struct LinkStats {
  Duration busy = 0;
  std::uint64_t transfers = 0;

  double utilization(Duration elapsed) const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(busy) /
                              static_cast<double>(elapsed);
  }
};

class Interconnect {
 public:
  Interconnect(const InterconnectConfig& config, std::uint32_t drives);

  /// Store-and-forward delivery of `bytes` from requester `r` to drive
  /// `d`, starting no earlier than `now`; returns the arrival time at the
  /// drive. Each hop is reserved in sequence and held for the full
  /// message.
  SimTime to_drive(std::uint32_t requester, std::uint32_t drive,
                   std::uint64_t bytes, SimTime now);
  /// The reverse path (completion + read payload back to the host).
  SimTime to_host(std::uint32_t drive, std::uint32_t requester,
                  std::uint64_t bytes, SimTime now);

  const LinkStats& requester_stats(std::uint32_t r) const {
    return requester_[r].stats;
  }
  const LinkStats& drive_stats(std::uint32_t d) const {
    return drive_[d].stats;
  }
  const LinkStats& switch_stats() const { return switch_.stats; }
  void reset_stats();

 private:
  struct Port {
    SimTime free_at = 0;
    LinkStats stats;
  };

  SimTime hop(Port& port, const LinkSpec& spec, std::uint64_t bytes,
              SimTime now);

  InterconnectConfig config_;
  std::vector<Port> requester_;
  std::vector<Port> drive_;
  Port switch_;
};

}  // namespace flex::host
