#include "ssd/arrival_feed.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace flex::ssd {

void ArrivalFeed::start(trace::RequestSource& source,
                        std::uint64_t max_requests) {
  source_ = &source;
  remaining_ = max_requests == 0 ? std::numeric_limits<std::uint64_t>::max()
                                 : max_requests;
  pump();
}

bool ArrivalFeed::pump() {
  if (remaining_ == 0) return false;
  const std::optional<trace::Request> request = source_->next();
  if (!request.has_value()) return false;
  --remaining_;
  next_ = *request;
  const SimTime when = std::max(request->arrival, kernel_.now());
  kernel_.schedule(when, [this](SimTime now) {
    // Copy out, then pump: the successor arrival overwrites next_.
    const trace::Request current = next_;
    if (pump()) sink_.on_lookahead(next_);
    sink_.on_arrival(current, now);
  });
  return true;
}

}  // namespace flex::ssd
