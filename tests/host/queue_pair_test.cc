#include "host/queue_pair.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ssd/event_queue.h"

namespace flex::host {
namespace {

/// Transport with fixed per-direction delays and a capture log.
class FakeTransport : public QueuePairSet::Transport {
 public:
  Duration command_delay = 0;
  Duration completion_delay = 0;

  SimTime deliver_command(const HostCommand&, SimTime now) override {
    return now + command_delay;
  }
  SimTime deliver_completion(const HostCommand&, SimTime now) override {
    return now + completion_delay;
  }
};

/// Dispatcher with a fixed service time, recording dispatch and
/// completion order by request_slot.
class FakeDispatcher : public QueuePairSet::Dispatcher {
 public:
  Duration service = 0;

  Duration dispatch(const HostCommand& cmd, SimTime) override {
    dispatched.push_back(cmd.request_slot);
    return service;
  }
  void complete(const HostCommand& cmd,
                const CommandTiming& timing) override {
    completed.push_back(cmd.request_slot);
    timings.push_back(timing);
  }

  std::vector<std::uint64_t> dispatched;
  std::vector<std::uint64_t> completed;
  std::vector<CommandTiming> timings;
};

HostCommand cmd(std::uint64_t id, std::uint32_t qp = 0) {
  HostCommand c;
  c.request_slot = id;
  c.qp = qp;
  c.submit_bytes = 64;
  c.complete_bytes = 64;
  return c;
}

TEST(QueuePairTest, ZeroLatencyRunsInlineAtSubmit) {
  ssd::EventQueue kernel;
  FakeTransport transport;
  FakeDispatcher dispatcher;
  QueuePairConfig config;
  config.doorbell_latency = 0;
  config.completion_latency = 0;
  QueuePairSet qps(config, kernel, transport, dispatcher);

  qps.submit(cmd(7), 0);
  // With every stage at zero cost the whole lifecycle completed inside
  // submit(): nothing was ever scheduled on the kernel.
  EXPECT_EQ(kernel.pending(), 0u);
  ASSERT_EQ(dispatcher.completed.size(), 1u);
  EXPECT_EQ(dispatcher.completed[0], 7u);
  EXPECT_EQ(qps.outstanding(), 0u);
}

TEST(QueuePairTest, SqDepthBoundsInFlightCommands) {
  ssd::EventQueue kernel;
  FakeTransport transport;
  FakeDispatcher dispatcher;
  dispatcher.service = 100;
  QueuePairConfig config;
  config.sq_depth = 2;
  config.doorbell_latency = 0;
  config.completion_latency = 0;
  QueuePairSet qps(config, kernel, transport, dispatcher);

  for (std::uint64_t i = 0; i < 5; ++i) qps.submit(cmd(i), 0);
  EXPECT_EQ(qps.stats().backlogged, 3u);
  EXPECT_EQ(qps.stats().sq_high_water, 2u);
  EXPECT_EQ(qps.stats().backlog_high_water, 3u);
  kernel.run_all();
  // The backlog drained in submission order as SQ slots freed.
  EXPECT_EQ(dispatcher.completed,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(qps.outstanding(), 0u);
}

TEST(QueuePairTest, CqDepthStallsCompletions) {
  ssd::EventQueue kernel;
  FakeTransport transport;
  FakeDispatcher dispatcher;
  dispatcher.service = 10;
  QueuePairConfig config;
  config.sq_depth = 8;
  config.cq_depth = 1;
  config.doorbell_latency = 0;
  config.completion_latency = 50;  // slow host consumption
  QueuePairSet qps(config, kernel, transport, dispatcher);

  for (std::uint64_t i = 0; i < 4; ++i) qps.submit(cmd(i), 0);
  kernel.run_all();
  // All four finished service at t=10 but only one CQ slot exists; the
  // other three stalled until the host consumed each predecessor.
  EXPECT_EQ(qps.stats().cq_stalls, 3u);
  EXPECT_EQ(dispatcher.completed, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(dispatcher.timings.back().done, 10 + 4 * 50);
}

TEST(QueuePairTest, RoundRobinAlternatesAcrossQueuePairs) {
  ssd::EventQueue kernel;
  FakeTransport transport;
  FakeDispatcher dispatcher;
  QueuePairConfig config;
  config.queue_pairs = 2;
  config.doorbell_latency = 5;  // serialise fetches so arbitration matters
  config.completion_latency = 0;
  QueuePairSet qps(config, kernel, transport, dispatcher);

  // Three commands on QP0, three on QP1, all doorbell'd at t=0.
  for (std::uint64_t i = 0; i < 3; ++i) qps.submit(cmd(i, 0), 0);
  for (std::uint64_t i = 10; i < 13; ++i) qps.submit(cmd(i, 1), 0);
  kernel.run_all();
  EXPECT_EQ(dispatcher.dispatched,
            (std::vector<std::uint64_t>{0, 10, 1, 11, 2, 12}));
}

TEST(QueuePairTest, CompletionsConsumeInServiceOrderPerQueuePair) {
  ssd::EventQueue kernel;
  FakeTransport transport;
  FakeDispatcher dispatcher;
  QueuePairConfig config;
  config.doorbell_latency = 0;
  config.completion_latency = 7;
  QueuePairSet qps(config, kernel, transport, dispatcher);

  // Distinct service times; the host still consumes CQEs serially in
  // completion order, 7 ns apart.
  FakeDispatcher* d = &dispatcher;
  d->service = 30;
  qps.submit(cmd(0), 0);
  d->service = 10;
  qps.submit(cmd(1), 0);
  d->service = 20;
  qps.submit(cmd(2), 0);
  kernel.run_all();
  EXPECT_EQ(dispatcher.completed, (std::vector<std::uint64_t>{1, 2, 0}));
  EXPECT_EQ(dispatcher.timings[0].done, 10 + 7);
  EXPECT_EQ(dispatcher.timings[1].done, 20 + 7);
  EXPECT_EQ(dispatcher.timings[2].done, 30 + 7);
}

TEST(QueuePairTest, TimingStagesAreMonotone) {
  ssd::EventQueue kernel;
  FakeTransport transport;
  transport.command_delay = 3;
  transport.completion_delay = 4;
  FakeDispatcher dispatcher;
  dispatcher.service = 25;
  QueuePairConfig config;
  config.doorbell_latency = 2;
  config.completion_latency = 6;
  QueuePairSet qps(config, kernel, transport, dispatcher);

  qps.submit(cmd(0), 100);
  kernel.run_all();
  ASSERT_EQ(dispatcher.timings.size(), 1u);
  const CommandTiming& t = dispatcher.timings[0];
  EXPECT_EQ(t.submitted, 100);
  EXPECT_EQ(t.doorbell, 103);
  EXPECT_EQ(t.fetched, 105);
  EXPECT_EQ(t.service_end, 130);
  EXPECT_EQ(t.done, 130 + 4 + 6);
}

}  // namespace
}  // namespace flex::host
