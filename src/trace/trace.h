// Block-level I/O trace records and CSV (de)serialisation.
//
// Format (one request per line): `timestamp_us,op,lpn,pages` with op R or W
// — the same information the MSR-Cambridge / UMass traces carry after
// sector-to-page alignment.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"

namespace flex::trace {

struct Request {
  SimTime arrival = 0;        ///< ns since trace start
  bool is_write = false;
  std::uint32_t lpn = 0;      ///< first logical page
  std::uint32_t pages = 1;    ///< request length in pages
  std::uint16_t tenant = 0;   ///< QoS tenant index (0 = default tenant)
  std::uint8_t priority = 0;  ///< 0 = normal; higher tightens deadlines
  /// Host port originating the request in an array (src/host): requests
  /// from different requesters contend on different uplinks into the
  /// switch. Single-drive runs and CSV traces leave it 0.
  std::uint8_t requester = 0;

  bool operator==(const Request&) const = default;
};
// A trace holds one Request per host command, so its size sets the trace's
// memory: the fields above, in this order, pack to 24 bytes.
static_assert(sizeof(Request) == 24, "trace::Request must stay packed");

/// Distinct lpns a Request can name (lpn is 32 bits). Every request's run
/// [lpn, lpn + pages) ends at or below it; trace sources bound their
/// footprints by it.
inline constexpr std::uint64_t kLpnSpace = std::uint64_t{1} << 32;

/// Pull-based request stream: the open-loop workload engine implements this
/// so the simulator can draw arrivals one at a time instead of replaying a
/// pre-materialised vector. `next()` returns requests in non-decreasing
/// arrival order and std::nullopt when the stream is exhausted.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  virtual std::optional<Request> next() = 0;
};

/// A RequestSource over a borrowed trace, which must outlive the source and
/// every use of it: the simulators feed run_segment() segments through one.
class VectorSource : public RequestSource {
 public:
  explicit VectorSource(const std::vector<Request>& requests)
      : requests_(requests) {}
  std::optional<Request> next() override {
    if (next_ == requests_.size()) return std::nullopt;
    return requests_[next_++];
  }

 private:
  const std::vector<Request>& requests_;
  std::size_t next_ = 0;
};

/// True when arrivals never decrease along `trace` (equal ones may tie).
bool sorted_by_arrival(const std::vector<Request>& trace);

/// Summary statistics of a trace (used by tests and the workload report).
struct TraceSummary {
  std::uint64_t requests = 0;
  std::uint64_t reads = 0;
  std::uint64_t read_pages = 0;
  std::uint64_t write_pages = 0;
  std::uint64_t max_lpn = 0;
  double read_fraction() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(reads) /
                               static_cast<double>(requests);
  }
};

TraceSummary summarize(const std::vector<Request>& trace);

void write_csv(std::ostream& out, const std::vector<Request>& trace);
/// Throws std::runtime_error on malformed lines and on a timestamp earlier
/// than the previous request's: a trace is replayed in arrival order and
/// is not sorted here.
std::vector<Request> read_csv(std::istream& in);

}  // namespace flex::trace
