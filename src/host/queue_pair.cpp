#include "host/queue_pair.h"

#include <algorithm>
#include <limits>

#include "common/assert.h"

namespace flex::host {
namespace {

constexpr std::uint32_t kNoQp = std::numeric_limits<std::uint32_t>::max();

}  // namespace

QueuePairSet::QueuePairSet(const QueuePairConfig& config,
                           ssd::EventQueue& kernel, Transport& transport,
                           Dispatcher& dispatcher)
    : config_(config),
      kernel_(kernel),
      transport_(transport),
      dispatcher_(dispatcher) {
  FLEX_EXPECTS(config_.queue_pairs >= 1);
  FLEX_EXPECTS(config_.sq_depth >= 1 && config_.cq_depth >= 1);
  qps_.assign(config_.queue_pairs, QueuePair{});
}

std::uint32_t QueuePairSet::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return slot;
}

void QueuePairSet::free_slot(std::uint32_t slot) {
  free_slots_.push_back(slot);
}

template <void (QueuePairSet::*member)(std::uint32_t, SimTime)>
void QueuePairSet::schedule_or_run(SimTime when, std::uint32_t slot) {
  FLEX_ASSERT(when >= kernel_.now());
  if (when == kernel_.now()) {
    // Zero-latency fast path: run inline so a zero-cost host layer keeps
    // the bare simulator's synchronous-at-arrival service order.
    (this->*member)(slot, when);
    return;
  }
  kernel_.schedule(when, [this, slot](SimTime now) {
    (this->*member)(slot, now);
  });
}

void QueuePairSet::submit(const HostCommand& cmd, SimTime now) {
  FLEX_EXPECTS(cmd.qp < config_.queue_pairs);
  const std::uint32_t slot = alloc_slot();
  slots_[slot].cmd = cmd;
  slots_[slot].timing = CommandTiming{.submitted = now};
  ++stats_.submitted;
  ++outstanding_;
  QueuePair& qp = qps_[cmd.qp];
  if (qp.sq_used >= config_.sq_depth) {
    qp.backlog.push_back(slot);
    ++stats_.backlogged;
    stats_.backlog_high_water =
        std::max<std::uint64_t>(stats_.backlog_high_water, qp.backlog.size());
    return;
  }
  begin_submission(slot, now);
}

void QueuePairSet::begin_submission(std::uint32_t slot, SimTime now) {
  QueuePair& qp = qps_[slots_[slot].cmd.qp];
  ++qp.sq_used;
  stats_.sq_high_water =
      std::max<std::uint64_t>(stats_.sq_high_water, qp.sq_used);
  const SimTime doorbell =
      transport_.deliver_command(slots_[slot].cmd, now);
  schedule_or_run<&QueuePairSet::on_doorbell>(doorbell, slot);
}

void QueuePairSet::on_doorbell(std::uint32_t slot, SimTime now) {
  slots_[slot].timing.doorbell = now;
  qps_[slots_[slot].cmd.qp].ready.push_back(slot);
  try_fetch(now);
}

std::uint32_t QueuePairSet::arbitrate() {
  const std::uint32_t n = config_.queue_pairs;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t qp = (rr_next_ + i) % n;
    if (!qps_[qp].ready.empty()) {
      rr_next_ = (qp + 1) % n;
      return qp;
    }
  }
  return kNoQp;
}

void QueuePairSet::try_fetch(SimTime now) {
  if (fetch_busy_) return;
  const std::uint32_t qp = arbitrate();
  if (qp == kNoQp) return;
  fetch_busy_ = true;
  fetching_slot_ = qps_[qp].ready.front();
  qps_[qp].ready.pop_front();
  schedule_or_run<&QueuePairSet::on_fetched>(now + config_.doorbell_latency,
                                             fetching_slot_);
}

void QueuePairSet::on_fetched(std::uint32_t slot, SimTime now) {
  fetch_busy_ = false;
  ++stats_.fetched;
  slots_[slot].timing.fetched = now;
  const Duration service = dispatcher_.dispatch(slots_[slot].cmd, now);
  FLEX_ASSERT(service >= 0);
  slots_[slot].timing.service_end = now + service;
  schedule_or_run<&QueuePairSet::on_service_done>(now + service, slot);
  try_fetch(now);
}

void QueuePairSet::on_service_done(std::uint32_t slot, SimTime now) {
  QueuePair& qp = qps_[slots_[slot].cmd.qp];
  if (qp.cq_used >= config_.cq_depth) {
    qp.cq_wait.push_back(slot);
    ++stats_.cq_stalls;
    return;
  }
  ++qp.cq_used;
  post_completion(slot, now);
}

void QueuePairSet::post_completion(std::uint32_t slot, SimTime now) {
  QueuePair& qp = qps_[slots_[slot].cmd.qp];
  const SimTime host_arrival =
      transport_.deliver_completion(slots_[slot].cmd, now);
  const SimTime processed =
      std::max(host_arrival, qp.host_free_at) + config_.completion_latency;
  qp.host_free_at = processed;
  schedule_or_run<&QueuePairSet::on_consumed>(processed, slot);
}

void QueuePairSet::on_consumed(std::uint32_t slot, SimTime now) {
  slots_[slot].timing.done = now;
  const HostCommand cmd = slots_[slot].cmd;
  const CommandTiming timing = slots_[slot].timing;
  QueuePair& qp = qps_[cmd.qp];
  FLEX_ASSERT(qp.cq_used > 0 && qp.sq_used > 0 && outstanding_ > 0);
  --qp.cq_used;
  --qp.sq_used;
  --outstanding_;
  free_slot(slot);
  dispatcher_.complete(cmd, timing);
  // The freed CQ slot admits a stalled completion, the freed SQ slot pulls
  // the host backlog — in that order, deterministically.
  if (!qp.cq_wait.empty()) {
    const std::uint32_t waiting = qp.cq_wait.front();
    qp.cq_wait.pop_front();
    ++qp.cq_used;
    post_completion(waiting, now);
  }
  if (!qp.backlog.empty() && qp.sq_used < config_.sq_depth) {
    const std::uint32_t next = qp.backlog.front();
    qp.backlog.pop_front();
    begin_submission(next, now);
  }
}

}  // namespace flex::host
