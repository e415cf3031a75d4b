#include "ssd/chip_scheduler.h"

#include <algorithm>

#include "common/assert.h"

namespace flex::ssd {

ChipScheduler::ChipScheduler(std::size_t chips, EventQueue& events)
    : events_(events), free_at_(chips, 0), in_flight_(chips, 0),
      stats_(chips) {
  FLEX_EXPECTS(chips >= 1);
}

void ChipScheduler::admit(std::size_t chip) {
  ChipStats& stats = stats_[chip];
  ++stats.commands;
  ++in_flight_[chip];
  stats.max_queue_depth = std::max(stats.max_queue_depth, in_flight_[chip]);
}

void ChipScheduler::account_start(std::size_t chip, SimTime arrival,
                                  SimTime start, const ChipCommand& cmd,
                                  const char* op) {
  ChipStats& stats = stats_[chip];
  if (start > arrival) {
    ++stats.queued_commands;
    stats.wait_time += start - arrival;
  }
  stats.channel_busy += cmd.channel;
  stats.die_busy += cmd.die;
  stats.controller_busy += cmd.controller;
  if (telemetry_) observe_start(chip, arrival, start, cmd, op);
}

void ChipScheduler::observe_start(std::size_t chip, SimTime arrival,
                                  SimTime start, const ChipCommand& cmd,
                                  const char* op) {
  if (start > arrival) {
    wait_hist_->add(static_cast<double>(start - arrival) / 1000.0);
  }
  if (telemetry::SpanRecorder* tracer = telemetry_->tracer()) {
    const auto tid = static_cast<std::int32_t>(chip);
    if (start > arrival) {
      tracer->record({.name = "wait",
                      .cat = "chip",
                      .pid = telemetry_->pid,
                      .tid = tid,
                      .start = arrival,
                      .dur = start - arrival});
    }
    tracer->record({.name = op,
                    .cat = "chip",
                    .pid = telemetry_->pid,
                    .tid = tid,
                    .start = start,
                    .dur = cmd.total()});
  }
}

SimTime ChipScheduler::submit(std::size_t chip, SimTime arrival,
                              const ChipCommand& cmd, const char* op) {
  FLEX_EXPECTS(chip < chips());
  arrival = std::max(arrival, events_.now());
  const SimTime start = std::max(arrival, free_at_[chip]);
  const SimTime completion = start + cmd.total();
  free_at_[chip] = completion;
  admit(chip);
  account_start(chip, arrival, start, cmd, op);
  events_.schedule(completion,
                   [this, chip](SimTime) { --in_flight_[chip]; });
  return completion;
}

void ChipScheduler::submit_command(std::size_t chip, SimTime now,
                                   const ChipCommand& cmd, QosClass klass,
                                   std::uint16_t tenant, std::uint8_t priority,
                                   std::uint64_t tag, const char* op) {
  if (qos_enabled_) {
    submit_qos(chip, now, cmd, klass, tenant, priority, tag, op);
    return;
  }
  const SimTime completion = submit(chip, now, cmd, op);
  if (sink_ != nullptr && tag != kNoTag) {
    sink_->on_qos_complete({.tag = tag,
                            .chip = chip,
                            .arrival = now,
                            .start = completion - cmd.total(),
                            .completion = completion,
                            .cmd = cmd});
  }
}

void ChipScheduler::submit_background(SimTime now,
                                      const ftl::WriteResult& result,
                                      const LatencyModel& latency) {
  // The host program lands on the chip that owns its physical page.
  submit_command(chip_of(result.ppn), now,
                 ChipCommand{.die = latency.program()}, QosClass::kBackground,
                 0, 0, kNoTag, "program");
  const std::uint64_t moves =
      result.page_programs > 0 ? result.page_programs - 1 : 0;
  submit_maintenance(now, moves, result.erases, latency);
}

void ChipScheduler::submit_maintenance(SimTime now, std::uint64_t moves,
                                       std::uint64_t erases,
                                       const LatencyModel& latency) {
  // GC relocations read the victim page before reprogramming it.
  for (std::uint64_t i = 0; i < moves; ++i) {
    next_background_chip_ = (next_background_chip_ + 1) % chips();
    submit_command(next_background_chip_, now,
                   ChipCommand{.die = latency.program() +
                                      latency.spec.read_latency},
                   QosClass::kBackground, 0, 0, kNoTag, "gc_move");
  }
  for (std::uint64_t i = 0; i < erases; ++i) {
    next_background_chip_ = (next_background_chip_ + 1) % chips();
    submit_command(next_background_chip_, now,
                   ChipCommand{.die = latency.erase()}, QosClass::kBackground,
                   0, 0, kNoTag, "erase");
  }
}

void ChipScheduler::enable_qos(const QosConfig& config, QosSink* sink) {
  set_sink(sink);
  qos_enabled_ = true;
  qos_config_ = config;
  qos_queue_.assign(chips(), {});
  qos_busy_.assign(chips(), 0);
  qos_active_.assign(chips(), QosPending{});
  qos_active_start_.assign(chips(), 0);
  qos_virtual_.clear();
  // Re-attaching adds the QoS counters to an attached registry.
  attach_telemetry(telemetry_);
}

Duration ChipScheduler::qos_class_budget(QosClass klass) const {
  switch (klass) {
    case QosClass::kRead:
      return qos_config_.read_deadline;
    case QosClass::kWrite:
      return qos_config_.write_deadline;
    case QosClass::kBackground:
      return qos_config_.background_deadline;
  }
  return qos_config_.background_deadline;
}

double ChipScheduler::qos_tenant_weight(std::uint16_t tenant) const {
  if (tenant < qos_config_.tenant_weights.size()) {
    return qos_config_.tenant_weights[tenant];
  }
  return 1.0;
}

std::uint64_t ChipScheduler::submit_qos(std::size_t chip, SimTime now,
                                        const ChipCommand& cmd,
                                        QosClass klass, std::uint16_t tenant,
                                        std::uint8_t priority,
                                        std::uint64_t tag, const char* op) {
  FLEX_EXPECTS(qos_enabled_);
  FLEX_EXPECTS(chip < chips());
  if (tenant >= qos_virtual_.size()) qos_virtual_.resize(tenant + 1, 0.0);

  QosPending entry;
  entry.cmd = cmd;
  entry.arrival = now;
  entry.deadline = now + qos_class_budget(klass) / (1 + priority);
  entry.seq = qos_seq_++;
  entry.tag = tag;
  entry.tenant = tenant;
  entry.klass = klass;
  entry.op = op;

  admit(chip);
  if (!qos_busy_[chip]) {
    qos_start_service(chip, now, entry);
  } else {
    qos_queue_[chip].push_back(entry);
    ++qos_pending_total_;
    qos_pending_high_water_ =
        std::max(qos_pending_high_water_, qos_pending_total_);
  }
  return entry.seq;
}

void ChipScheduler::qos_start_service(std::size_t chip, SimTime start,
                                      const QosPending& entry) {
  qos_busy_[chip] = 1;
  qos_active_[chip] = entry;
  qos_active_start_[chip] = start;
  const SimTime completion = start + entry.cmd.total();
  free_at_[chip] = completion;

  account_start(chip, entry.arrival, start, entry.cmd, entry.op);
  events_.schedule(completion,
                   [this, chip](SimTime t) { qos_complete(chip, t); });
}

std::size_t ChipScheduler::qos_pick_index(std::size_t chip, SimTime now) {
  std::vector<QosPending>& queue = qos_queue_[chip];
  FLEX_EXPECTS(!queue.empty());

  // GC/refresh throttling: while the host backlog on this chip is at or
  // past the threshold, un-expired background commands are ineligible.
  // The host count guarantees an eligible entry exists whenever the
  // throttle is active.
  std::uint64_t host_waiting = 0;
  for (const QosPending& e : queue) {
    if (e.klass != QosClass::kBackground) ++host_waiting;
  }
  const bool throttle = qos_config_.gc_throttle_queue_depth > 0 &&
                        host_waiting >= qos_config_.gc_throttle_queue_depth;
  bool deferred_any = false;
  const auto eligible = [&](const QosPending& e) {
    if (throttle && e.klass == QosClass::kBackground && now < e.deadline) {
      deferred_any = true;
      return false;
    }
    return true;
  };

  // Weighted-fair override: if some tenant with eligible host work has
  // fallen more than fair_share_slack of weighted service behind the
  // most-served such tenant, dispatch from the most-behind tenant. The
  // override self-limits — serving the lagging tenant raises its virtual
  // time until the spread closes and EDF order resumes.
  double min_v = 0.0, max_v = 0.0;
  std::uint16_t min_tenant = 0;
  bool have_host = false;
  for (const QosPending& e : queue) {
    if (e.klass == QosClass::kBackground || !eligible(e)) continue;
    const double v = qos_virtual_[e.tenant];
    if (!have_host || v < min_v || (v == min_v && e.tenant < min_tenant)) {
      min_v = v;
      min_tenant = e.tenant;
    }
    if (!have_host || v > max_v) max_v = v;
    have_host = true;
  }
  const bool fairness_override =
      have_host &&
      max_v - min_v > static_cast<double>(qos_config_.fair_share_slack);
  if (fairness_override) ++qos_fairness_overrides_;

  // Earliest deadline first, ties by submission order. With equal class
  // budgets and priority 0 a deadline is arrival + budget, which never
  // decreases with seq (the clock never steps back), so this picks the
  // lowest eligible seq: FIFO.
  std::size_t best = queue.size();
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const QosPending& e = queue[i];
    if (!eligible(e)) continue;
    if (fairness_override &&
        (e.klass == QosClass::kBackground || e.tenant != min_tenant)) {
      continue;
    }
    if (best == queue.size()) {
      best = i;
      continue;
    }
    const QosPending& b = queue[best];
    if (e.deadline < b.deadline ||
        (e.deadline == b.deadline && e.seq < b.seq)) {
      best = i;
    }
  }
  if (deferred_any) ++qos_background_deferrals_;
  FLEX_ENSURES(best < queue.size());
  return best;
}

void ChipScheduler::qos_complete(std::size_t chip, SimTime now) {
  --in_flight_[chip];
  const QosPending done = qos_active_[chip];
  const SimTime start = qos_active_start_[chip];
  qos_busy_[chip] = 0;

  if (done.klass != QosClass::kBackground) {
    qos_virtual_[done.tenant] += static_cast<double>(done.cmd.total()) /
                                 qos_tenant_weight(done.tenant);
  }

  // Dispatch the successor before notifying the sink so a re-entrant
  // submit from the sink queues behind it instead of jumping the line.
  std::vector<QosPending>& queue = qos_queue_[chip];
  if (!queue.empty()) {
    const std::size_t idx = qos_pick_index(chip, now);
    const QosPending next = queue[idx];
    queue[idx] = queue.back();
    queue.pop_back();
    --qos_pending_total_;
    qos_start_service(chip, now, next);
  }

  if (sink_ != nullptr && done.tag != kNoTag) {
    sink_->on_qos_complete({.tag = done.tag,
                            .chip = chip,
                            .arrival = done.arrival,
                            .start = start,
                            .completion = now,
                            .cmd = done.cmd});
  }
}

void ChipScheduler::power_loss(SimTime now) {
  std::fill(free_at_.begin(), free_at_.end(), now);
  std::fill(in_flight_.begin(), in_flight_.end(), 0);
  if (qos_enabled_) {
    for (std::vector<QosPending>& q : qos_queue_) q.clear();
    std::fill(qos_busy_.begin(), qos_busy_.end(), 0);
    std::fill(qos_virtual_.begin(), qos_virtual_.end(), 0.0);
    qos_pending_total_ = 0;
  }
}

void ChipScheduler::reset_stats() {
  std::fill(stats_.begin(), stats_.end(), ChipStats{});
  qos_pending_high_water_ = qos_pending_total_;
  qos_background_deferrals_ = 0;
  qos_fairness_overrides_ = 0;
}

ChipScheduler::~ChipScheduler() {
  if (telemetry_) telemetry_->metrics.unbind(this);
}

void ChipScheduler::attach_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry_) telemetry_->metrics.unbind(this);
  telemetry_ = telemetry;
  if (!telemetry_) {
    wait_hist_ = nullptr;
    return;
  }
  telemetry::MetricsRegistry& registry = telemetry_->metrics;
  const auto total = [this](std::uint64_t ChipStats::*field) {
    std::uint64_t sum = 0;
    for (const ChipStats& stats : stats_) sum += stats.*field;
    return sum;
  };
  registry.bind(this, "chip.commands",
                [total] { return total(&ChipStats::commands); });
  registry.bind(this, "chip.queued_commands",
                [total] { return total(&ChipStats::queued_commands); });
  // Queueing waits span sub-µs bus gaps to ms-scale GC trains; log bins
  // keep relative resolution across the whole range (values in µs).
  wait_hist_ = &registry.histogram(
      "chip.wait_us",
      telemetry::HistogramSpec{
          .lo = 1e-2, .hi = 1e6, .bins = 160, .log_spaced = true});
  // QoS counters exist only when QoS mode is on, so reservation-backend
  // metric snapshots (the pinned golden set) are unaffected.
  if (!qos_enabled_) return;
  registry.bind(this, "sched.qos_background_deferrals",
                [this] { return qos_background_deferrals_; });
  registry.bind(this, "sched.qos_fairness_overrides",
                [this] { return qos_fairness_overrides_; });
}

}  // namespace flex::ssd
