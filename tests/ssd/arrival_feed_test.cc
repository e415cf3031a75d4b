#include "ssd/arrival_feed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace flex::ssd {
namespace {

trace::Request at(SimTime arrival, std::uint64_t lpn) {
  trace::Request request;
  request.arrival = arrival;
  request.lpn = lpn;
  return request;
}

/// Logs each arrival's lpn, firing time and the kernel's pending count.
class RecordingSink : public ArrivalSink {
 public:
  explicit RecordingSink(const EventQueue& kernel) : kernel_(kernel) {}
  void on_arrival(const trace::Request& request, SimTime now) override {
    lpns.push_back(request.lpn);
    times.push_back(now);
    pending.push_back(kernel_.pending());
  }
  std::vector<std::uint64_t> lpns;
  std::vector<SimTime> times;
  std::vector<std::size_t> pending;

 private:
  const EventQueue& kernel_;
};

class VectorSource : public trace::RequestSource {
 public:
  explicit VectorSource(std::vector<trace::Request> requests)
      : requests_(std::move(requests)) {}
  std::optional<trace::Request> next() override {
    if (next_ == requests_.size()) return std::nullopt;
    return requests_[next_++];
  }

 private:
  std::vector<trace::Request> requests_;
  std::size_t next_ = 0;
};

TEST(ArrivalFeedTest, SortedSegmentKeepsOneArrivalPending) {
  constexpr std::uint64_t kRequests = 100'000;
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  std::vector<trace::Request> requests;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    requests.push_back(at(static_cast<SimTime>(i / 3), i));
  }
  feed.start(requests);
  // Every ordinal is reserved up front, as if all of them were scheduled.
  EXPECT_EQ(kernel.reserve_ordinals(0), kRequests);
  EXPECT_EQ(kernel.pending(), 1u);
  kernel.run_all();
  std::vector<std::uint64_t> lpns;
  // The successor is scheduled before the sink runs; the last has none.
  std::vector<std::size_t> pending(kRequests, 1);
  pending.back() = 0;
  for (std::uint64_t i = 0; i < kRequests; ++i) lpns.push_back(i);
  EXPECT_EQ(sink.lpns, lpns);
  EXPECT_EQ(sink.pending, pending);
  // The FIFO lane reclaims its consumed prefix once it reaches the
  // 4,096-entry floor, so the lanes end at the floor's scale (at most
  // twice it, with vector growth); pre-scheduled, the segment needed one
  // entry per request.
  EXPECT_LE(kernel.lane_capacity(), 2 * 4096u);
}

TEST(ArrivalFeedTest, UnsortedSegmentFiresInArrivalThenTraceOrder) {
  // Pre-scheduling fires an out-of-order segment by (arrival, trace
  // index); the feed must too, so it cannot stream it.
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  const std::vector<trace::Request> requests = {at(30, 0), at(10, 1),
                                                at(20, 2), at(10, 3)};
  feed.start(requests);
  kernel.run_all();
  EXPECT_EQ(sink.lpns, (std::vector<std::uint64_t>{1, 3, 2, 0}));
  EXPECT_EQ(sink.times, (std::vector<SimTime>{10, 10, 20, 30}));
}

TEST(ArrivalFeedTest, SegmentArrivalBeforeClockIsNotClamped) {
  // A segment keeps the arrival times it was given, even ones before the
  // kernel clock (the clock then steps back), exactly as a pre-scheduled
  // segment would.
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  kernel.schedule(100, [](SimTime) {});
  kernel.run_all();
  const std::vector<trace::Request> requests = {at(40, 0), at(150, 1)};
  feed.start(requests);
  kernel.run_all();
  EXPECT_EQ(sink.times, (std::vector<SimTime>{40, 150}));
}

TEST(ArrivalFeedTest, OpenLoopClampsToClockAndStopsAtLimit) {
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  VectorSource source({at(100, 0), at(50, 1), at(200, 2), at(300, 3)});
  feed.start(source, /*max_requests=*/3);
  kernel.run_all();
  EXPECT_EQ(sink.lpns, (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(sink.times, (std::vector<SimTime>{100, 100, 200}));
  // 0 = until exhaustion: the source resumes where it stopped.
  feed.start(source, 0);
  kernel.run_all();
  EXPECT_EQ(sink.lpns.back(), 3u);
  EXPECT_EQ(sink.lpns.size(), 4u);
}

}  // namespace
}  // namespace flex::ssd
