#include "ssd/read_policy.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "flexlevel/access_eval.h"
#include "ssd/simulator.h"

namespace flex::ssd {
namespace {

/// kBaseline: the controller cannot tell fresh pages from stale ones, so
/// every read is provisioned for the worst case it was qualified against —
/// the pre-aged wear level at the rated retention age.
class FixedWorstCasePolicy final : public ReadPolicy {
 public:
  FixedWorstCasePolicy(const LatencyModel& latency, int fixed_levels)
      : latency_(latency), fixed_levels_(fixed_levels) {}

  ReadCost read_cost(const ReadContext& ctx,
                     std::vector<ReadAttempt>* attempts) override {
    const int levels = std::max(ctx.required_levels, fixed_levels_);
    const ReadCost cost = latency_.read_fixed_cost(levels);
    if (attempts != nullptr) {
      attempts->push_back(ReadAttempt{.levels = levels, .cost = cost});
    }
    return cost;
  }

 private:
  const LatencyModel& latency_;
  int fixed_levels_;
};

/// kLdpcInSsd / kLevelAdjustOnly: ladder retry from a hard read. The
/// storage mode parameterises LevelAdjust-only (whole drive reduced)
/// without a separate class.
class ProgressivePolicy : public ReadPolicy {
 public:
  ProgressivePolicy(const LatencyModel& latency,
                    const reliability::SensingRequirement& ladder,
                    ftl::PageMode storage_mode)
      : latency_(latency), ladder_(ladder), storage_mode_(storage_mode) {}

  ReadCost read_cost(const ReadContext& ctx,
                     std::vector<ReadAttempt>* attempts) override {
    return latency_.read_cost({.required_levels = ctx.required_levels},
                              ladder_, attempts);
  }

  ftl::PageMode write_mode(std::uint64_t) const override {
    return storage_mode_;
  }
  ftl::PageMode prefill_mode() const override { return storage_mode_; }

 protected:
  const LatencyModel& latency_;
  const reliability::SensingRequirement& ladder_;

 private:
  ftl::PageMode storage_mode_;
};

/// Progressive retry with per-page retry-level memorization (LDPC-in-SSD's
/// fine-grained scheme [2]): start the ladder at the physical page's last
/// required depth.
class ProgressiveHintPolicy final : public ProgressivePolicy {
 public:
  ProgressiveHintPolicy(const LatencyModel& latency,
                        const reliability::SensingRequirement& ladder,
                        ftl::PageMode storage_mode,
                        std::uint64_t physical_pages)
      : ProgressivePolicy(latency, ladder, storage_mode),
        hint_(physical_pages, 0) {}

  ReadCost read_cost(const ReadContext& ctx,
                     std::vector<ReadAttempt>* attempts) override {
    const auto page = static_cast<std::size_t>(ctx.ppn);
    const ReadCost cost = latency_.read_cost(
        {.start_levels = hint_[page], .required_levels = ctx.required_levels},
        ladder_, attempts);
    hint_[page] = static_cast<std::int8_t>(ctx.required_levels);
    return cost;
  }

  void on_mount(const ftl::MountReport&, SimTime) override {
    // The memorized depths are controller DRAM; the ladder restarts from
    // hard reads and re-learns.
    std::fill(hint_.begin(), hint_.end(), 0);
  }

 private:
  std::vector<std::int8_t> hint_;
};

/// kFlexLevel: a progressive read (plain or hinted — `inner`) plus the
/// AccessEval controller. Migrations are deferrable single-page
/// maintenance: the controller runs them in idle gaps with
/// program-suspend, so they do not add to host-visible latency. Their NAND
/// work still lands in the FTL statistics, which is where Fig. 7's
/// write/erase/lifetime costs come from. (Buffer flushes, by contrast, are
/// deadline work and do contend with reads — see the simulator's write
/// path.)
class FlexLevelPolicy final : public ReadPolicy {
 public:
  /// `pool_shrink_per_retired_block` > 0 enables graceful degradation
  /// under fault injection: each block the FTL retires costs
  /// pages_per_block physical pages of over-provisioning, so the
  /// ReducedCell budget shrinks by pages_per_block * f / (1 - f) logical
  /// pages (f = reduced_capacity_factor) — the shrink that hands exactly
  /// the lost physical margin back to GC.
  FlexLevelPolicy(std::unique_ptr<ReadPolicy> inner,
                  const flexlevel::AccessEval::Config& access_eval,
                  ftl::PageMappingFtl& ftl,
                  std::uint64_t pool_shrink_per_retired_block)
      : inner_(std::move(inner)),
        access_eval_(access_eval),
        ftl_(ftl),
        base_pool_capacity_(access_eval.pool_capacity_pages),
        pool_shrink_per_block_(pool_shrink_per_retired_block) {}

  ReadCost read_cost(const ReadContext& ctx,
                     std::vector<ReadAttempt>* attempts) override {
    return inner_->read_cost(ctx, attempts);
  }

  void on_read_complete(const ReadContext& ctx) override {
    // Give retired over-provisioning back before this read can admit new
    // pool pages against a stale budget.
    if (pool_shrink_per_block_ > 0 &&
        ftl_.retired_block_count() != last_retired_) {
      shrink_pool(ctx.now);
    }
    const flexlevel::AccessDecision decision =
        access_eval_.on_read(ctx.lpn, ctx.required_levels);
    if (decision.migrate_to_reduced) {
      ftl_.migrate(ctx.lpn, ftl::PageMode::kReduced, ctx.now);
      ++migrations_to_reduced_;
      record_migration(ctx.now, "migrate_to_reduced", ctx.lpn);
    }
    if (decision.evicted.has_value()) {
      ftl_.migrate(*decision.evicted, ftl::PageMode::kNormal, ctx.now);
      ++migrations_to_normal_;
      record_migration(ctx.now, "migrate_to_normal", *decision.evicted);
    }
    if (telemetry_) {
      pool_gauge_->value = static_cast<double>(access_eval_.pool_size());
    }
  }

  ~FlexLevelPolicy() override {
    if (telemetry_) telemetry_->metrics.unbind(this);
  }

  void attach_telemetry(telemetry::Telemetry* telemetry) override {
    inner_->attach_telemetry(telemetry);
    if (telemetry_) telemetry_->metrics.unbind(this);
    telemetry_ = telemetry;
    if (!telemetry_) {
      pool_gauge_ = nullptr;
      return;
    }
    telemetry_->metrics.bind(this, "policy.migrations_to_reduced",
                             [this] { return migrations_to_reduced_; });
    telemetry_->metrics.bind(this, "policy.migrations_to_normal",
                             [this] { return migrations_to_normal_; });
    pool_gauge_ = &telemetry_->metrics.gauge("policy.pool_pages");
  }

  ftl::PageMode write_mode(std::uint64_t lpn) const override {
    return access_eval_.is_reduced(lpn) ? ftl::PageMode::kReduced
                                        : ftl::PageMode::kNormal;
  }

  void on_mount(const ftl::MountReport& report, SimTime now) override {
    inner_->on_mount(report, now);
    // Re-derive the shrunk budget from the recovered retirement ledger
    // before re-admitting survivors against a stale (too large) one.
    if (pool_shrink_per_block_ > 0) {
      last_retired_ = ftl_.retired_block_count();
      const std::uint64_t penalty =
          static_cast<std::uint64_t>(last_retired_) * pool_shrink_per_block_;
      access_eval_.shrink_capacity(
          base_pool_capacity_ > penalty ? base_pool_capacity_ - penalty : 0);
    }
    // The pool membership is durable (each member's data sits in a
    // reduced-state page, flagged in its OOB record); LRU order and
    // hotness are not, so rebuild_pool re-registers the survivors with
    // conservative recency. Overflow — possible when a crash preempted a
    // shrink's eviction migrations — goes back to normal cells.
    for (const std::uint64_t lpn :
         access_eval_.rebuild_pool(report.reduced_lpns)) {
      ftl_.migrate(lpn, ftl::PageMode::kNormal, now);
      ++migrations_to_normal_;
      record_migration(now, "migrate_to_normal", lpn);
    }
    if (telemetry_) {
      pool_gauge_->value = static_cast<double>(access_eval_.pool_size());
    }
  }

  ReadPolicyStats stats() const override {
    return {.migrations_to_reduced = migrations_to_reduced_,
            .migrations_to_normal = migrations_to_normal_,
            .pool_pages = access_eval_.pool_size(),
            .pool_capacity_pages = access_eval_.pool_capacity()};
  }

  void reset_stats() override {
    migrations_to_reduced_ = 0;
    migrations_to_normal_ = 0;
  }

 private:
  void shrink_pool(SimTime now) {
    last_retired_ = ftl_.retired_block_count();
    const std::uint64_t penalty =
        static_cast<std::uint64_t>(last_retired_) * pool_shrink_per_block_;
    const std::uint64_t target =
        base_pool_capacity_ > penalty ? base_pool_capacity_ - penalty : 0;
    for (const std::uint64_t lpn : access_eval_.shrink_capacity(target)) {
      ftl_.migrate(lpn, ftl::PageMode::kNormal, now);
      ++migrations_to_normal_;
      record_migration(now, "migrate_to_normal", lpn);
    }
  }

  void record_migration(SimTime now, const char* name, std::uint64_t lpn) {
    if (telemetry::SpanRecorder* tracer =
            telemetry_ ? telemetry_->tracer() : nullptr) {
      tracer->record({.name = name,
                      .cat = "policy",
                      .pid = telemetry_->pid,
                      .tid = telemetry::kFtlTrack,
                      .start = now,
                      .arg0_key = "lpn",
                      .arg0 = static_cast<double>(lpn)});
    }
  }

  std::unique_ptr<ReadPolicy> inner_;
  flexlevel::AccessEval access_eval_;
  ftl::PageMappingFtl& ftl_;
  std::uint64_t base_pool_capacity_;
  std::uint64_t pool_shrink_per_block_;
  std::uint32_t last_retired_ = 0;
  std::uint64_t migrations_to_reduced_ = 0;
  std::uint64_t migrations_to_normal_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  telemetry::MetricsRegistry::Gauge* pool_gauge_ = nullptr;
};

/// Read-disturb-aware refresh (scrub) decorator: once the block under a
/// completed read has accumulated `threshold` reads since its last erase,
/// its valid pages are relocated to fresh cells and the block erased,
/// zeroing the disturb term for all of them. Like FlexLevel's migrations,
/// the scrub is deferrable single-block maintenance the controller runs in
/// idle gaps — it must not add host-visible latency, so its NAND work
/// lands only in the FTL statistics (endurance cost), never on the chip
/// queues of the triggering read. Wraps any scheme policy.
class RefreshPolicy final : public ReadPolicy {
 public:
  RefreshPolicy(std::unique_ptr<ReadPolicy> inner, std::uint64_t threshold,
                ftl::PageMappingFtl& ftl)
      : inner_(std::move(inner)), threshold_(threshold), ftl_(ftl) {
    FLEX_EXPECTS(threshold_ > 0);
  }

  ReadCost read_cost(const ReadContext& ctx,
                     std::vector<ReadAttempt>* attempts) override {
    return inner_->read_cost(ctx, attempts);
  }

  void on_read_complete(const ReadContext& ctx) override {
    // Inner maintenance first: a FlexLevel migration may move the *data*,
    // but the stressed block (and its read counter) stays where it is.
    inner_->on_read_complete(ctx);
    if (ftl_.block_read_count(ctx.ppn) < threshold_) return;
    if (const auto scrub = ftl_.refresh_block(ctx.ppn, ctx.now)) {
      ++refresh_blocks_;
      refresh_page_moves_ += scrub->pages_moved;
      if (telemetry::SpanRecorder* tracer =
              telemetry_ ? telemetry_->tracer() : nullptr) {
        tracer->record({.name = "refresh",
                        .cat = "policy",
                        .pid = telemetry_->pid,
                        .tid = telemetry::kFtlTrack,
                        .start = ctx.now,
                        .arg0_key = "pages_moved",
                        .arg0 = static_cast<double>(scrub->pages_moved)});
      }
    }
  }

  ~RefreshPolicy() override {
    if (telemetry_) telemetry_->metrics.unbind(this);
  }

  void attach_telemetry(telemetry::Telemetry* telemetry) override {
    inner_->attach_telemetry(telemetry);
    if (telemetry_) telemetry_->metrics.unbind(this);
    telemetry_ = telemetry;
    if (!telemetry_) return;
    telemetry_->metrics.bind(this, "policy.refresh_blocks",
                             [this] { return refresh_blocks_; });
    telemetry_->metrics.bind(this, "policy.refresh_page_moves",
                             [this] { return refresh_page_moves_; });
  }

  ftl::PageMode write_mode(std::uint64_t lpn) const override {
    return inner_->write_mode(lpn);
  }
  ftl::PageMode prefill_mode() const override {
    return inner_->prefill_mode();
  }
  void on_mount(const ftl::MountReport& report, SimTime now) override {
    inner_->on_mount(report, now);
  }

  ReadPolicyStats stats() const override {
    ReadPolicyStats stats = inner_->stats();
    stats.refresh_blocks = refresh_blocks_;
    stats.refresh_page_moves = refresh_page_moves_;
    return stats;
  }

  void reset_stats() override {
    inner_->reset_stats();
    refresh_blocks_ = 0;
    refresh_page_moves_ = 0;
  }

 private:
  std::unique_ptr<ReadPolicy> inner_;
  std::uint64_t threshold_;
  ftl::PageMappingFtl& ftl_;
  std::uint64_t refresh_blocks_ = 0;
  std::uint64_t refresh_page_moves_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
};

/// Uncorrectable-read recovery ladder (fault injection on): when even the
/// deepest progressive step cannot decode a page (ctx.correctable false),
/// a real controller does not give up — it re-reads at the deepest sensing
/// depth with tuned thresholds (the "read-retry" ladder of production
/// firmware). The re-read is host-visible latency, so unlike migrations
/// and scrubs its cost lands on the read itself; whether it rescues the
/// data is the injector's (deterministic) call. Unrescued reads are
/// declared data loss and counted — the drive keeps serving. Outermost
/// decorator, wrapping refresh and the scheme policy.
class RecoveryPolicy final : public ReadPolicy {
 public:
  RecoveryPolicy(std::unique_ptr<ReadPolicy> inner,
                 const LatencyModel& latency,
                 const reliability::SensingRequirement& ladder,
                 const faults::FaultInjector& injector)
      : inner_(std::move(inner)),
        latency_(latency),
        max_levels_(ladder.steps().back().extra_levels),
        injector_(injector) {}

  ReadCost read_cost(const ReadContext& ctx,
                     std::vector<ReadAttempt>* attempts) override {
    ReadCost cost = inner_->read_cost(ctx, attempts);
    // One deepest-sensing re-read serves both recovery triggers: an
    // undecodable page and a flagged integrity mismatch (the firmware
    // retries the read either way before escalating).
    if (!ctx.correctable || !ctx.integrity_ok) {
      const ReadCost retry = latency_.read_fixed_cost(max_levels_);
      cost.die += retry.die;
      cost.channel += retry.channel;
      cost.controller += retry.controller;
      if (attempts != nullptr) {
        attempts->push_back(ReadAttempt{.levels = max_levels_, .cost = retry});
      }
    }
    return cost;
  }

  void on_read_complete(const ReadContext& ctx) override {
    inner_->on_read_complete(ctx);
    if (!ctx.integrity_ok) {
      // A transient post-ECC flip is gone on the re-read of the same
      // cells; a persistent medium fault (misdirected write, torn
      // relocation) survives any number of re-reads.
      const bool cured = !ctx.integrity_persistent;
      if (cured) {
        ++integrity_recovered_reads_;
      } else {
        ++integrity_unrecovered_reads_;
      }
      if (telemetry::SpanRecorder* tracer =
              telemetry_ ? telemetry_->tracer() : nullptr) {
        tracer->record(
            {.name = cured ? "integrity_recovered" : "integrity_unrecovered",
             .cat = "policy",
             .pid = telemetry_->pid,
             .tid = telemetry::kFtlTrack,
             .start = ctx.now,
             .arg0_key = "lpn",
             .arg0 = static_cast<double>(ctx.lpn)});
      }
    }
    if (ctx.correctable) return;
    const bool rescued = injector_.read_retry_rescues(ctx.ppn, ctx.block_reads);
    if (rescued) {
      ++recovered_reads_;
    } else {
      ++data_loss_reads_;
    }
    if (telemetry::SpanRecorder* tracer =
            telemetry_ ? telemetry_->tracer() : nullptr) {
      tracer->record({.name = rescued ? "read_recovered" : "read_data_loss",
                      .cat = "policy",
                      .pid = telemetry_->pid,
                      .tid = telemetry::kFtlTrack,
                      .start = ctx.now,
                      .arg0_key = "lpn",
                      .arg0 = static_cast<double>(ctx.lpn)});
    }
  }

  ~RecoveryPolicy() override {
    if (telemetry_) telemetry_->metrics.unbind(this);
  }

  void attach_telemetry(telemetry::Telemetry* telemetry) override {
    inner_->attach_telemetry(telemetry);
    if (telemetry_) telemetry_->metrics.unbind(this);
    telemetry_ = telemetry;
    if (!telemetry_) return;
    telemetry::MetricsRegistry& registry = telemetry_->metrics;
    registry.bind(this, "policy.recovered_reads",
                  [this] { return recovered_reads_; });
    registry.bind(this, "policy.data_loss_reads",
                  [this] { return data_loss_reads_; });
    registry.bind(this, "policy.integrity_recovered_reads",
                  [this] { return integrity_recovered_reads_; });
    registry.bind(this, "policy.integrity_unrecovered_reads",
                  [this] { return integrity_unrecovered_reads_; });
  }

  ftl::PageMode write_mode(std::uint64_t lpn) const override {
    return inner_->write_mode(lpn);
  }
  ftl::PageMode prefill_mode() const override {
    return inner_->prefill_mode();
  }
  void on_mount(const ftl::MountReport& report, SimTime now) override {
    inner_->on_mount(report, now);
  }

  ReadPolicyStats stats() const override {
    ReadPolicyStats stats = inner_->stats();
    stats.recovered_reads = recovered_reads_;
    stats.data_loss_reads = data_loss_reads_;
    stats.integrity_recovered_reads = integrity_recovered_reads_;
    stats.integrity_unrecovered_reads = integrity_unrecovered_reads_;
    return stats;
  }

  void reset_stats() override {
    inner_->reset_stats();
    recovered_reads_ = 0;
    data_loss_reads_ = 0;
    integrity_recovered_reads_ = 0;
    integrity_unrecovered_reads_ = 0;
  }

 private:
  std::unique_ptr<ReadPolicy> inner_;
  const LatencyModel& latency_;
  int max_levels_;
  const faults::FaultInjector& injector_;
  std::uint64_t recovered_reads_ = 0;
  std::uint64_t data_loss_reads_ = 0;
  std::uint64_t integrity_recovered_reads_ = 0;
  std::uint64_t integrity_unrecovered_reads_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
};

std::unique_ptr<ReadPolicy> make_progressive(
    const SsdConfig& config, const LatencyModel& latency,
    const reliability::SensingRequirement& ladder, ftl::PageMode mode,
    std::uint64_t physical_pages) {
  if (config.sensing_hint) {
    return std::make_unique<ProgressiveHintPolicy>(latency, ladder, mode,
                                                   physical_pages);
  }
  return std::make_unique<ProgressivePolicy>(latency, ladder, mode);
}

std::unique_ptr<ReadPolicy> make_scheme_policy(
    const SsdConfig& config, const LatencyModel& latency,
    const reliability::SensingRequirement& ladder,
    const reliability::BerModel& normal_model, std::uint64_t physical_pages,
    ftl::PageMappingFtl& ftl, const faults::FaultInjector* injector) {
  switch (config.scheme) {
    case Scheme::kBaseline: {
      const int fixed_levels = ladder.required_levels(normal_model.total_ber(
          static_cast<int>(config.ftl.initial_pe_cycles),
          config.baseline_retention_spec));
      return std::make_unique<FixedWorstCasePolicy>(latency, fixed_levels);
    }
    case Scheme::kLdpcInSsd:
      return make_progressive(config, latency, ladder,
                              ftl::PageMode::kNormal, physical_pages);
    case Scheme::kLevelAdjustOnly:
      return make_progressive(config, latency, ladder,
                              ftl::PageMode::kReduced, physical_pages);
    case Scheme::kFlexLevel: {
      std::uint64_t shrink_per_block = 0;
      if (injector != nullptr &&
          injector->config().shrink_pool_on_retirement &&
          config.ftl.reduced_capacity_factor < 1.0) {
        const double f = config.ftl.reduced_capacity_factor;
        shrink_per_block = static_cast<std::uint64_t>(std::llround(
            config.ftl.spec.pages_per_block * f / (1.0 - f)));
      }
      return std::make_unique<FlexLevelPolicy>(
          make_progressive(config, latency, ladder, ftl::PageMode::kNormal,
                           physical_pages),
          config.access_eval, ftl, shrink_per_block);
    }
  }
  FLEX_ASSERT(false && "unreachable");
  return nullptr;
}

}  // namespace

std::unique_ptr<ReadPolicy> make_read_policy(
    const SsdConfig& config, const LatencyModel& latency,
    const reliability::SensingRequirement& ladder,
    const reliability::BerModel& normal_model, std::uint64_t physical_pages,
    ftl::PageMappingFtl& ftl, const faults::FaultInjector* injector) {
  std::unique_ptr<ReadPolicy> policy = make_scheme_policy(
      config, latency, ladder, normal_model, physical_pages, ftl, injector);
  if (config.read_disturb.refresh_threshold > 0) {
    policy = std::make_unique<RefreshPolicy>(
        std::move(policy), config.read_disturb.refresh_threshold, ftl);
  }
  if (injector != nullptr) {
    policy = std::make_unique<RecoveryPolicy>(std::move(policy), latency,
                                              ladder, *injector);
  }
  return policy;
}

}  // namespace flex::ssd
