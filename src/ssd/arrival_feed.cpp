#include "ssd/arrival_feed.h"

#include <algorithm>
#include <limits>
#include <optional>

namespace flex::ssd {

void ArrivalFeed::start(const std::vector<trace::Request>& requests) {
  segment_ = requests.data();
  segment_size_ = requests.size();
  segment_base_ = kernel_.reserve_ordinals(segment_size_);
  streaming_ = std::is_sorted(
      requests.begin(), requests.end(),
      [](const trace::Request& a, const trace::Request& b) {
        return a.arrival < b.arrival;
      });
  if (segment_size_ == 0) return;
  if (streaming_) {
    schedule_segment(0);
    return;
  }
  for (std::size_t i = 0; i < segment_size_; ++i) schedule_segment(i);
}

void ArrivalFeed::schedule_segment(std::size_t index) {
  kernel_.schedule_at_ordinal(
      segment_[index].arrival, segment_base_ + index,
      [this, index](SimTime now) {
        if (streaming_ && index + 1 < segment_size_) {
          schedule_segment(index + 1);
        }
        sink_.on_arrival(segment_[index], now);
      });
}

void ArrivalFeed::start(trace::RequestSource& source,
                        std::uint64_t max_requests) {
  source_ = &source;
  remaining_ = max_requests == 0 ? std::numeric_limits<std::uint64_t>::max()
                                 : max_requests;
  pump();
}

void ArrivalFeed::pump() {
  if (remaining_ == 0) return;
  const std::optional<trace::Request> request = source_->next();
  if (!request.has_value()) return;
  --remaining_;
  next_ = *request;
  const SimTime when = std::max(request->arrival, kernel_.now());
  kernel_.schedule(when, [this](SimTime now) {
    // Copy out, then pump: the successor arrival overwrites next_.
    const trace::Request current = next_;
    pump();
    sink_.on_arrival(current, now);
  });
}

}  // namespace flex::ssd
