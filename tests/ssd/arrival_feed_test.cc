#include "ssd/arrival_feed.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace flex::ssd {
namespace {

trace::Request at(SimTime arrival, std::uint64_t lpn) {
  trace::Request request;
  request.arrival = arrival;
  request.lpn = lpn;
  return request;
}

/// Logs each arrival's lpn, firing time and the kernel's pending count,
/// and the order of arrivals and lookahead hints.
class RecordingSink : public ArrivalSink {
 public:
  explicit RecordingSink(const EventQueue& kernel) : kernel_(kernel) {}
  void on_arrival(const trace::Request& request, SimTime now) override {
    lpns.push_back(request.lpn);
    times.push_back(now);
    pending.push_back(kernel_.pending());
    order.push_back("arrive " + std::to_string(request.lpn));
  }
  void on_lookahead(const trace::Request& next) override {
    order.push_back("next " + std::to_string(next.lpn));
    hint_pending.push_back(kernel_.pending());
  }
  std::vector<std::uint64_t> lpns;
  std::vector<SimTime> times;
  std::vector<std::size_t> pending;
  std::vector<std::string> order;
  std::vector<std::size_t> hint_pending;

 private:
  const EventQueue& kernel_;
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
  trace::VectorSource source(requests);
  feed.start(source, 0);
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

TEST(ArrivalFeedTest, SegmentArrivalBeforeClockIsClamped) {
  // A segment is an open-loop source: an arrival stamped before the kernel
  // clock fires at the clock, which never steps back.
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  kernel.schedule(100, [](SimTime) {});
  kernel.run_all();
  const std::vector<trace::Request> requests = {at(40, 0), at(150, 1)};
  trace::VectorSource source(requests);
  feed.start(source, 0);
  kernel.run_all();
  EXPECT_EQ(sink.times, (std::vector<SimTime>{100, 150}));
}

TEST(ArrivalFeedTest, OpenLoopClampsToClockAndStopsAtLimit) {
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  const std::vector<trace::Request> requests = {at(100, 0), at(50, 1),
                                                at(200, 2), at(300, 3)};
  trace::VectorSource source(requests);
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

using Order = std::vector<std::string>;

TEST(ArrivalFeedTest, LookaheadOffersTheSuccessorBeforeTheCurrentArrival) {
  // Each successor is offered just before its predecessor reaches the
  // sink; the last request of a segment has no successor and gets none.
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  const std::vector<trace::Request> first = {at(10, 0), at(20, 1),
                                             at(30, 2)};
  trace::VectorSource source(first);
  feed.start(source, 0);
  kernel.run_all();
  EXPECT_EQ(sink.order, (Order{"next 1", "arrive 0", "next 2", "arrive 1",
                               "arrive 2"}));
  // The offered successor's arrival is already the one pending event.
  EXPECT_EQ(sink.hint_pending, (std::vector<std::size_t>{1, 1}));
  // A second segment: next_ still holds lpn 2, which is never offered
  // again; the new segment's first request has no predecessor to ride on.
  sink.order.clear();
  const std::vector<trace::Request> second = {at(40, 3), at(50, 4)};
  trace::VectorSource more(second);
  feed.start(more, 0);
  kernel.run_all();
  EXPECT_EQ(sink.order, (Order{"next 4", "arrive 3", "arrive 4"}));
}

TEST(ArrivalFeedTest, LookaheadStopsAtTheRequestLimit) {
  // The successor beyond a max_requests cap is not drawn, so not offered.
  EventQueue kernel;
  RecordingSink sink(kernel);
  ArrivalFeed feed(kernel, sink);
  const std::vector<trace::Request> requests = {at(10, 0), at(20, 1),
                                                at(30, 2), at(40, 3)};
  trace::VectorSource source(requests);
  feed.start(source, /*max_requests=*/2);
  kernel.run_all();
  EXPECT_EQ(sink.order, (Order{"next 1", "arrive 0", "arrive 1"}));
  sink.order.clear();
  feed.start(source, 0);
  kernel.run_all();
  EXPECT_EQ(sink.order, (Order{"next 3", "arrive 2", "arrive 3"}));
}

}  // namespace
}  // namespace flex::ssd
