#include "ssd/read_policy.h"

#include <algorithm>
#include <cmath>

#include "ssd/simulator.h"

namespace flex::ssd {

ReadPolicy::ReadPolicy(const SsdConfig& config, const LatencyModel& latency,
                       const reliability::SensingRequirement& ladder,
                       const reliability::BerModel& normal_model,
                       std::uint64_t physical_pages, ftl::PageMappingFtl& ftl,
                       const faults::FaultInjector* injector)
    : latency_(latency),
      ladder_(ladder),
      ftl_(ftl),
      refresh_threshold_(config.read_disturb.refresh_threshold),
      injector_(injector) {
  switch (config.scheme) {
    case Scheme::kBaseline:
      // The controller cannot tell fresh pages from stale ones, so every
      // read is provisioned for the worst case it was qualified against:
      // the pre-aged wear level at the rated retention age.
      fixed_levels_ = ladder.required_levels(normal_model.total_ber(
          static_cast<int>(config.ftl.initial_pe_cycles),
          kBaselineRetentionSpec));
      return;
    case Scheme::kLdpcInSsd:
      break;
    case Scheme::kLevelAdjustOnly:
      storage_mode_ = ftl::PageMode::kReduced;
      break;
    case Scheme::kFlexLevel:
      access_eval_.emplace(config.access_eval);
      base_pool_capacity_ = config.access_eval.pool_capacity_pages;
      if (injector != nullptr) {
        const double f = ftl::kReducedCapacityFactor;
        pool_shrink_per_block_ = static_cast<std::uint64_t>(std::llround(
            config.ftl.spec.pages_per_block * f / (1.0 - f)));
      }
      break;
  }
  if (config.sensing_hint) hint_.assign(physical_pages, 0);
}

ReadPolicy::~ReadPolicy() {
  if (telemetry_) telemetry_->metrics.unbind(this);
}

ReadCost ReadPolicy::read_cost(const ReadContext& ctx,
                               std::vector<ReadAttempt>* attempts) {
  ReadCost cost;
  if (fixed_levels_.has_value()) {
    const int levels = std::max(ctx.required_levels, *fixed_levels_);
    cost = latency_.read_fixed_cost(levels);
    if (attempts != nullptr) {
      attempts->push_back(ReadAttempt{.levels = levels, .cost = cost});
    }
  } else if (hint_.empty()) {
    cost = latency_.read_cost({.required_levels = ctx.required_levels},
                              ladder_, attempts);
  } else {
    std::int8_t& hint = hint_[static_cast<std::size_t>(ctx.ppn)];
    cost = latency_.read_cost(
        {.start_levels = hint, .required_levels = ctx.required_levels},
        ladder_, attempts);
    hint = static_cast<std::int8_t>(ctx.required_levels);
  }
  // Recovery: one deepest-sensing re-read serves both triggers, an
  // undecodable page and a flagged integrity mismatch (the firmware
  // retries the read either way before escalating). It is host-visible,
  // so unlike the maintenance below it lands on the read itself.
  if (injector_ != nullptr && (!ctx.correctable || !ctx.integrity_ok)) {
    const int deepest = ladder_.steps().back().extra_levels;
    const ReadCost retry = latency_.read_fixed_cost(deepest);
    cost.die += retry.die;
    cost.channel += retry.channel;
    cost.controller += retry.controller;
    if (attempts != nullptr) {
      attempts->push_back(ReadAttempt{.levels = deepest, .cost = retry});
    }
  }
  return cost;
}

void ReadPolicy::on_read_complete(const ReadContext& ctx) {
  // AccessEval. Migrations are deferrable single-page maintenance: the
  // controller runs them in idle gaps with program-suspend, so they do
  // not add to host-visible latency. Their NAND work still lands in the
  // FTL statistics, which is where Fig. 7's write/erase/lifetime costs
  // come from.
  if (access_eval_.has_value()) {
    // Give retired over-provisioning back before this read can admit new
    // pool pages against a stale budget.
    if (pool_shrink_per_block_ > 0 &&
        ftl_.retired_block_count() != last_retired_) {
      for (const std::uint64_t lpn :
           access_eval_->shrink_capacity(shrunk_pool_budget())) {
        migrate_to_normal(lpn, ctx.now);
      }
    }
    const flexlevel::AccessDecision decision =
        access_eval_->on_read(ctx.lpn, ctx.required_levels);
    if (decision.migrate_to_reduced) {
      ftl_.migrate(ctx.lpn, ftl::PageMode::kReduced, ctx.now);
      ++counters_.migrations_to_reduced;
      record_span(ctx.now, "migrate_to_reduced", "lpn", ctx.lpn);
    }
    if (decision.evicted.has_value()) {
      migrate_to_normal(*decision.evicted, ctx.now);
    }
    publish_pool_gauge();
  }

  // Read-disturb refresh: once the block under this read has taken
  // `refresh_threshold_` reads since its last erase, relocate its valid
  // pages and erase it, zeroing the disturb term for all of them. A
  // migration above may have moved the *data*, but the stressed block
  // (and its read counter) stays where it is. Deferrable like the
  // migrations: its NAND work lands in the FTL statistics only.
  if (refresh_threshold_ > 0 &&
      ftl_.block_read_count(ctx.ppn) >= refresh_threshold_) {
    if (const auto scrub = ftl_.refresh_block(ctx.ppn, ctx.now)) {
      ++counters_.refresh_blocks;
      counters_.refresh_page_moves += scrub->pages_moved;
      record_span(ctx.now, "refresh", "pages_moved", scrub->pages_moved);
    }
  }

  if (injector_ == nullptr) return;
  // Recovery verdicts. A transient post-ECC flip is gone on the re-read
  // of the same cells; a persistent medium fault (misdirected write, torn
  // relocation) survives any number of re-reads.
  if (!ctx.integrity_ok) {
    const bool cured = !ctx.integrity_persistent;
    ++(cured ? counters_.integrity_recovered_reads
             : counters_.integrity_unrecovered_reads);
    record_span(ctx.now,
                cured ? "integrity_recovered" : "integrity_unrecovered", "lpn",
                ctx.lpn);
  }
  // Whether the re-read rescues an undecodable page is the injector's
  // (deterministic) call; unrescued reads are declared data loss and the
  // drive keeps serving.
  if (!ctx.correctable) {
    const bool rescued =
        injector_->read_retry_rescues(ctx.ppn, ctx.block_reads);
    ++(rescued ? counters_.recovered_reads : counters_.data_loss_reads);
    record_span(ctx.now, rescued ? "read_recovered" : "read_data_loss",
                "lpn", ctx.lpn);
  }
}

ftl::PageMode ReadPolicy::write_mode(std::uint64_t lpn) const {
  if (access_eval_.has_value()) {
    // Pool members write back into reduced state.
    return access_eval_->is_reduced(lpn) ? ftl::PageMode::kReduced
                                         : ftl::PageMode::kNormal;
  }
  return storage_mode_;
}

void ReadPolicy::on_mount(const ftl::MountReport& report, SimTime now) {
  // The memorized depths are controller DRAM; the ladder restarts from
  // hard reads and re-learns.
  std::fill(hint_.begin(), hint_.end(), 0);
  if (!access_eval_.has_value()) return;
  // Re-derive the shrunk budget from the recovered retirement ledger
  // before re-admitting survivors against a stale (too large) one.
  if (pool_shrink_per_block_ > 0) {
    access_eval_->shrink_capacity(shrunk_pool_budget());
  }
  // The pool membership is durable (each member's data sits in a
  // reduced-state page, flagged in its OOB record); LRU order and
  // hotness are not, so rebuild_pool re-registers the survivors with
  // conservative recency. Overflow — possible when a crash preempted a
  // shrink's eviction migrations — goes back to normal cells.
  for (const std::uint64_t lpn :
       access_eval_->rebuild_pool(report.reduced_lpns)) {
    migrate_to_normal(lpn, now);
  }
  publish_pool_gauge();
}

ReadPolicyStats ReadPolicy::stats() const {
  ReadPolicyStats stats = counters_;
  if (access_eval_.has_value()) {
    stats.pool_pages = access_eval_->pool_size();
    stats.pool_capacity_pages = access_eval_->pool_capacity();
  }
  return stats;
}

void ReadPolicy::reset_stats() { counters_ = {}; }

void ReadPolicy::attach_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry_) telemetry_->metrics.unbind(this);
  telemetry_ = telemetry;
  pool_gauge_ = nullptr;
  if (!telemetry_) return;
  telemetry::MetricsRegistry& registry = telemetry_->metrics;
  const auto bind = [&](const char* name,
                        std::uint64_t ReadPolicyStats::*field) {
    registry.bind(this, name, [this, field] { return counters_.*field; });
  };
  if (access_eval_.has_value()) {
    bind("policy.migrations_to_reduced",
         &ReadPolicyStats::migrations_to_reduced);
    bind("policy.migrations_to_normal", &ReadPolicyStats::migrations_to_normal);
    pool_gauge_ = &registry.gauge("policy.pool_pages");
  }
  if (refresh_threshold_ > 0) {
    bind("policy.refresh_blocks", &ReadPolicyStats::refresh_blocks);
    bind("policy.refresh_page_moves", &ReadPolicyStats::refresh_page_moves);
  }
  if (injector_ != nullptr) {
    bind("policy.recovered_reads", &ReadPolicyStats::recovered_reads);
    bind("policy.data_loss_reads", &ReadPolicyStats::data_loss_reads);
    bind("policy.integrity_recovered_reads",
         &ReadPolicyStats::integrity_recovered_reads);
    bind("policy.integrity_unrecovered_reads",
         &ReadPolicyStats::integrity_unrecovered_reads);
  }
}

std::uint64_t ReadPolicy::shrunk_pool_budget() {
  last_retired_ = ftl_.retired_block_count();
  const std::uint64_t penalty =
      static_cast<std::uint64_t>(last_retired_) * pool_shrink_per_block_;
  return base_pool_capacity_ > penalty ? base_pool_capacity_ - penalty : 0;
}

void ReadPolicy::migrate_to_normal(std::uint64_t lpn, SimTime now) {
  ftl_.migrate(lpn, ftl::PageMode::kNormal, now);
  ++counters_.migrations_to_normal;
  record_span(now, "migrate_to_normal", "lpn", lpn);
}

void ReadPolicy::record_span(SimTime now, const char* name,
                             const char* arg0_key, std::uint64_t arg0) const {
  if (telemetry::SpanRecorder* tracer =
          telemetry_ ? telemetry_->tracer() : nullptr) {
    tracer->record({.name = name,
                    .cat = "policy",
                    .pid = telemetry_->pid,
                    .tid = telemetry::kFtlTrack,
                    .start = now,
                    .arg0_key = arg0_key,
                    .arg0 = static_cast<double>(arg0)});
  }
}

void ReadPolicy::publish_pool_gauge() {
  if (pool_gauge_ != nullptr) {
    pool_gauge_->value = static_cast<double>(access_eval_->pool_size());
  }
}

}  // namespace flex::ssd
