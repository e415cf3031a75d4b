#include "ssd/simulator.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/assert.h"

namespace flex::ssd {
namespace {

/// The FTL's integrity knobs live on SsdConfig (with the run seed); this
/// folds them into the FtlConfig the ftl_ member is built from.
ftl::FtlConfig with_integrity(ftl::FtlConfig ftl, const SsdConfig& config) {
  ftl.integrity = config.integrity.enabled;
  ftl.integrity_seed = config.seed;
  ftl.integrity_payload_words = config.integrity.payload_words;
  return ftl;
}

}  // namespace

std::string scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBaseline:
      return "baseline";
    case Scheme::kLdpcInSsd:
      return "LDPC-in-SSD";
    case Scheme::kLevelAdjustOnly:
      return "LevelAdjust-only";
    case Scheme::kFlexLevel:
      return "LevelAdjust+AccessEval";
  }
  FLEX_ASSERT(false && "unreachable");
  return {};
}

Status SsdConfig::Validate() const {
  if (ftl.spec.total_pages() >= ftl::PageMappingFtl::kUnmappedPpn) {
    return Status::OutOfRange(
        "ftl.spec.total_pages() must be < 2^32 - 1: the L2P map stores "
        "ppns in 32 bits");
  }
  if (!(ftl.over_provisioning > 0.0 && ftl.over_provisioning < 1.0)) {
    return Status::OutOfRange("ftl.over_provisioning must be in (0, 1)");
  }
  if (!(ftl.reduced_capacity_factor > 0.0 &&
        ftl.reduced_capacity_factor <= 1.0)) {
    return Status::OutOfRange(
        "ftl.reduced_capacity_factor must be in (0, 1]");
  }
  if (ftl.gc_low_watermark < 2) {
    return Status::OutOfRange("ftl.gc_low_watermark must be >= 2");
  }
  const std::uint64_t total_blocks =
      static_cast<std::uint64_t>(ftl.spec.chips) * ftl.spec.blocks_per_chip;
  if (total_blocks <= static_cast<std::uint64_t>(ftl.gc_low_watermark) * 4) {
    return Status::FailedPrecondition(
        "drive too small: chips * blocks_per_chip must exceed "
        "4 * ftl.gc_low_watermark");
  }
  if (write_buffer_pages < 1) {
    return Status::OutOfRange("write_buffer_pages must be >= 1");
  }
  if (write_buffer_flush_batch < 1 ||
      write_buffer_flush_batch > write_buffer_pages) {
    return Status::OutOfRange(
        "write_buffer_flush_batch must be in [1, write_buffer_pages]");
  }
  if (!(min_prefill_age > 0.0)) {
    return Status::OutOfRange("min_prefill_age must be > 0");
  }
  if (!(max_prefill_age >= min_prefill_age)) {
    return Status::InvalidArgument(
        "max_prefill_age must be >= min_prefill_age");
  }
  if (prefill_extent_pages < 1) {
    return Status::OutOfRange("prefill_extent_pages must be >= 1");
  }
  if (!(precondition_passes >= 0.0)) {
    return Status::OutOfRange("precondition_passes must be >= 0");
  }
  if (!(baseline_retention_spec > 0.0)) {
    return Status::OutOfRange("baseline_retention_spec must be > 0");
  }
  if (scheme == Scheme::kFlexLevel) {
    if (access_eval.pool_capacity_pages < 1) {
      return Status::OutOfRange(
          "access_eval.pool_capacity_pages must be >= 1");
    }
    if (access_eval.pool_capacity_pages > ftl.spec.total_pages()) {
      return Status::InvalidArgument(
          "access_eval.pool_capacity_pages exceeds the drive's physical "
          "pages");
    }
    if (access_eval.freq_levels < 1 || access_eval.sensing_buckets < 1) {
      return Status::OutOfRange(
          "access_eval.freq_levels and sensing_buckets must be >= 1");
    }
  }
  if (read_disturb.refresh_threshold > 0 && !read_disturb.enabled) {
    return Status::InvalidArgument(
        "read_disturb.refresh_threshold is set but read_disturb.enabled is "
        "false: refresh would scrub blocks that never pay a disturb "
        "penalty");
  }
  const struct {
    const char* name;
    double value;
  } rates[] = {
      {"faults.program_fail_rate", faults.program_fail_rate},
      {"faults.erase_fail_rate", faults.erase_fail_rate},
      {"faults.grown_defect_rate", faults.grown_defect_rate},
      {"faults.read_retry_rescue", faults.read_retry_rescue},
      {"faults.crash_rate", faults.crash_rate},
      {"faults.silent_corruption_rate", faults.silent_corruption_rate},
      {"faults.misdirected_write_rate", faults.misdirected_write_rate},
      {"faults.torn_relocation_rate", faults.torn_relocation_rate},
  };
  for (const auto& rate : rates) {
    if (!(rate.value >= 0.0 && rate.value <= 1.0)) {
      return Status::OutOfRange(std::string(rate.name) +
                                " must be in [0, 1]");
    }
  }
  if (integrity.enabled && integrity.payload_words < 1) {
    return Status::OutOfRange("integrity.payload_words must be >= 1");
  }
  if (!integrity.enabled && faults.enabled &&
      (faults.silent_corruption_rate > 0.0 ||
       faults.misdirected_write_rate > 0.0 ||
       faults.torn_relocation_rate > 0.0)) {
    return Status::InvalidArgument(
        "silent-data corruption rates are armed but integrity.enabled is "
        "false: without payload seals the corruptions are undetectable by "
        "construction — enable integrity or clear the rates");
  }
  if (faults.crash_enabled && !faults.enabled) {
    return Status::InvalidArgument(
        "faults.crash_enabled is set but faults.enabled is false: the "
        "injector that adjudicates crash points is only constructed when "
        "fault injection is on");
  }
  if (faults.crash_enabled &&
      durability.policy == DurabilityPolicy::kWriteBack) {
    return Status::InvalidArgument(
        "faults.crash_enabled with DurabilityPolicy::kWriteBack: the write "
        "buffer acknowledges writes that a crash then silently loses — "
        "pick kFua or kFlushBarrier so acknowledged means recoverable");
  }
  if (durability.policy == DurabilityPolicy::kFlushBarrier &&
      durability.flush_barrier_interval < 1) {
    return Status::OutOfRange(
        "durability.flush_barrier_interval must be >= 1");
  }
  if (qos.enabled) {
    if (qos.tenants < 1) {
      return Status::OutOfRange("qos.tenants must be >= 1");
    }
    if (!qos.tenant_weights.empty() &&
        qos.tenant_weights.size() != qos.tenants) {
      return Status::InvalidArgument(
          "qos.tenant_weights must be empty or have exactly qos.tenants "
          "entries");
    }
    for (const double w : qos.tenant_weights) {
      if (!(w > 0.0)) {
        return Status::OutOfRange("qos.tenant_weights must all be > 0");
      }
    }
    if (qos.read_deadline <= 0 || qos.write_deadline <= 0 ||
        qos.background_deadline <= 0) {
      return Status::OutOfRange("qos deadline budgets must be > 0");
    }
    if (qos.fair_share_slack < 0) {
      return Status::OutOfRange("qos.fair_share_slack must be >= 0");
    }
    if (qos.write_admission_dirty_watermark > write_buffer_pages) {
      return Status::InvalidArgument(
          "qos.write_admission_dirty_watermark exceeds write_buffer_pages: "
          "the watermark could never trip");
    }
    if (faults.crash_enabled) {
      return Status::InvalidArgument(
          "qos.enabled with faults.crash_enabled is unsupported: queued "
          "QoS command state is not modelled by the crash-recovery "
          "machinery");
    }
  } else if (qos.tenants != 1 || !qos.tenant_weights.empty() ||
             qos.admission_max_outstanding != 0 ||
             qos.write_admission_dirty_watermark != 0 ||
             qos.gc_throttle_queue_depth != 0) {
    return Status::InvalidArgument(
        "qos knobs are set but qos.enabled is false: the legacy path "
        "ignores them silently — enable QoS mode or clear the knobs");
  }
  const bool channel_armed =
      channel.adaptive_thresholds ||
      channel.quantizer != reliability::ChannelQuantizer::kUniform ||
      channel.decode_latency != reliability::DecodeLatencyMode::kTable;
  if (!channel.enabled && channel_armed) {
    return Status::InvalidArgument(
        "channel knobs are armed (adaptive_thresholds / quantizer / "
        "decode_latency) but channel.enabled is false: the static path "
        "ignores them silently — enable the channel or clear the knobs");
  }
  if (channel.enabled && !channel_armed) {
    return Status::InvalidArgument(
        "channel.enabled with every feature off would change nothing: arm "
        "adaptive_thresholds, an MI quantizer, or measured decode latency "
        "— or disable the channel");
  }
  if (channel.enabled) {
    if (!(channel.tracking_gain > 0.0 && channel.tracking_gain <= 1.0)) {
      return Status::OutOfRange("channel.tracking_gain must be in (0, 1]");
    }
    if (channel.calibrate_interval < 1) {
      return Status::OutOfRange("channel.calibrate_interval must be >= 1");
    }
    if (channel.calibration_trials < 1) {
      return Status::OutOfRange("channel.calibration_trials must be >= 1");
    }
  }
  return Status::Ok();
}

SsdSimulator::SsdSimulator(SsdConfig config,
                           const reliability::BerModel& normal,
                           const reliability::BerModel& reduced,
                           EventQueue* kernel)
    : config_(std::move(config)),
      normal_model_(normal),
      reduced_model_(reduced),
      channel_({.config = config_.channel,
                .disturb_enabled = config_.read_disturb.enabled,
                .disturb = config_.read_disturb.model,
                .pages_per_block = config_.ftl.spec.pages_per_block,
                .physical_blocks =
                    static_cast<std::uint64_t>(config_.ftl.spec.chips) *
                    config_.ftl.spec.blocks_per_chip},
               normal_model_, reduced_model_),
      ftl_(with_integrity(config_.ftl, config_)),
      buffer_(config_.write_buffer_pages, config_.write_buffer_flush_batch),
      events_(kernel != nullptr ? *kernel : own_events_),
      external_kernel_(kernel != nullptr),
      feed_(events_, *this),
      scheduler_(config_.ftl.spec.chips, events_),
      injector_(config_.faults.enabled
                    ? std::make_unique<faults::FaultInjector>(config_.faults,
                                                              config_.seed)
                    : nullptr),
      policy_(make_read_policy(config_, config_.latency, channel_.ladder(),
                               normal_model_,
                               ftl_.physical_blocks() *
                                   config_.ftl.spec.pages_per_block,
                               ftl_, injector_.get())),
      rng_(config_.seed) {
  ftl_.attach_fault_injector(injector_.get());
  durable_version_.assign(ftl_.logical_pages(), 0);
  integrity_mode_ = config_.integrity.enabled;
  if (config_.channel.enabled &&
      config_.channel.decode_latency ==
          reliability::DecodeLatencyMode::kMeasured) {
    config_.latency.measured_decode = channel_.measured_decode_times(
        config_.latency.decode_per_iteration, config_.latency.decode_overhead);
  }
  qos_mode_ = config_.qos.enabled;
  tenant_count_ = qos_mode_ ? config_.qos.tenants : 1;
  if (qos_mode_) {
    scheduler_.enable_qos(config_.qos, this);
    qos_outstanding_.assign(tenant_count_, 0);
  }
  clear_results();
}

void SsdSimulator::clear_results() {
  results_ = SsdResults{};
  results_.sensing_level_reads.assign(
      static_cast<std::size_t>(channel_.ladder().steps().back().extra_levels) +
          1,
      0);
  results_.tenant.assign(tenant_count_, TenantStats{});
}

void SsdSimulator::reset_measurements() {
  clear_results();
  prefill_stats_ = ftl_.stats();
  scheduler_.reset_stats();
  policy_->reset_stats();
  // Slots still in flight across the reset stay counted in the new
  // window's high-water mark.
  qos_slots_high_water_ = qos_requests_.size() - qos_free_slots_.size();
  if (telemetry_) {
    telemetry_->metrics.zero();
    telemetry_->spans.clear();
  }
}

SsdSimulator::~SsdSimulator() {
  if (telemetry_) telemetry_->metrics.unbind(this);
}

void SsdSimulator::attach_telemetry(telemetry::Telemetry* telemetry) {
  events_.attach_telemetry(telemetry);
  scheduler_.attach_telemetry(telemetry);
  ftl_.attach_telemetry(telemetry);
  policy_->attach_telemetry(telemetry);
  if (telemetry_) telemetry_->metrics.unbind(this);
  telemetry_ = telemetry;
  if (!telemetry_) {
    read_latency_us_hist_ = nullptr;
    return;
  }
  telemetry::MetricsRegistry& registry = telemetry_->metrics;
  static constexpr std::pair<const char*, std::uint64_t SsdResults::*>
      kCounters[] = {
          {"ssd.buffer_hits", &SsdResults::buffer_hits},
          {"ssd.unmapped_reads", &SsdResults::unmapped_reads},
          {"ssd.uncorrectable_reads", &SsdResults::uncorrectable_reads},
          {"ssd.writes_acked", &SsdResults::writes_acked},
          {"ssd.writes_durable", &SsdResults::writes_durable},
          {"ssd.crashes", &SsdResults::crashes},
          {"ssd.integrity_verified_reads",
           &SsdResults::integrity_verified_reads},
          {"ssd.integrity_mismatch_reads",
           &SsdResults::integrity_mismatch_reads},
      };
  for (const auto& [name, field] : kCounters) {
    registry.bind(this, name, [this, field] { return results_.*field; });
  }
  registry.bind(this, "ssd.requests",
                [this] { return results_.all_response.count(); });
  registry.bind(this, "ssd.reads",
                [this] { return results_.read_response.count(); });
  registry.bind(this, "ssd.writes",
                [this] { return results_.write_response.count(); });
  for (std::uint32_t i = 0; i < tenant_count_; ++i) {
    const std::string prefix = "tenant." + std::to_string(i) + ".";
    registry.bind(this, prefix + "reads", [this, i] {
      return results_.tenant[i].read_response.count();
    });
    registry.bind(this, prefix + "writes", [this, i] {
      return results_.tenant[i].write_response.count();
    });
    registry.bind(this, prefix + "rejected", [this, i] {
      return results_.tenant[i].admission_rejected;
    });
  }
  read_latency_us_hist_ = &registry.histogram(
      "ssd.read_latency_us",
      telemetry::HistogramSpec{
          .lo = 1.0, .hi = 1e6, .bins = 240, .log_spaced = true});
}

void SsdSimulator::prefill(std::uint64_t pages) {
  FLEX_EXPECTS(pages <= ftl_.logical_pages());
  const ftl::PageMode mode = policy_->prefill_mode();
  const double log_min = std::log(config_.min_prefill_age);
  const double log_max = std::log(config_.max_prefill_age);
  const std::uint64_t extent = config_.prefill_extent_pages;
  FLEX_EXPECTS(extent >= 1);
  // Only the static age model reads the prefill birth times back, one per
  // extent (the last one may be partial).
  const bool static_ages = config_.age_model == AgeModel::kStaticPerLba;
  static_birth_pages_ = static_ages ? pages : 0;
  static_birth_.assign(
      static_ages ? pages / extent + (pages % extent != 0 ? 1 : 0) : 0, 0);
  SimTime birth = 0;
  for (std::uint64_t lpn = 0; lpn < pages; ++lpn) {
    if (lpn % extent == 0) {
      const Hours age = std::exp(rng_.uniform(log_min, log_max));
      birth = static_cast<SimTime>(-age * 3600.0 * 1e9);
      if (static_ages) static_birth_[lpn / extent] = birth;
    }
    ftl_.write(lpn, mode, birth);
    // Prefilled data is on NAND by definition: durable as written.
    mark_durable(lpn);
  }
  // Preconditioning: historical random overwrites that scatter invalid
  // pages across blocks, so measurement starts from GC steady state
  // instead of the artificially clean freshly-filled layout.
  const auto overwrites = static_cast<std::uint64_t>(
      config_.precondition_passes * static_cast<double>(pages));
  for (std::uint64_t i = 0; i < overwrites; ++i) {
    const Hours overwrite_age = std::exp(rng_.uniform(log_min, log_max));
    const std::uint64_t lpn = rng_.below(pages);
    ftl_.write(lpn, mode,
               static_cast<SimTime>(-overwrite_age * 3600.0 * 1e9));
    mark_durable(lpn);
  }
  prefill_stats_ = ftl_.stats();
}

void SsdSimulator::verify_read_page(ReadContext& ctx) {
  if (!integrity_mode_) return;
  const ftl::SealVerdict verdict =
      ftl_.verify_page(ctx.lpn, ctx.ppn, ctx.block_reads);
  ++results_.integrity_verified_reads;
  if (verdict.delivered_bad && !verdict.flagged) {
    // The only way here is a genuine CRC64 collision between two distinct
    // payload generations — the event the integrity bench asserts never
    // happens.
    ++results_.integrity_undetected_reads;
  }
  if (!verdict.flagged) return;
  ++results_.integrity_mismatch_reads;
  if (verdict.persistent && external_kernel_) {
    // Hand the unservable lpn to the array layer for replica failover.
    integrity_failed_lpns_.push_back(ctx.lpn);
  }
  ctx.integrity_ok = false;
  ctx.integrity_persistent = verdict.persistent;
}

SsdSimulator::ResolvedRead SsdSimulator::resolve_read(std::uint64_t lpn,
                                                      SimTime now) {
  if (buffer_.contains(lpn)) return {.source = ReadSource::kBuffer, .ctx = {}};
  const auto info = ftl_.lookup(lpn);
  if (!info.has_value()) return {.source = ReadSource::kUnmapped, .ctx = {}};
  // Bounded by the prefilled pages, not the per-extent table's size: a
  // page past the prefill ages from its own write time.
  const SimTime birth =
      lpn < static_birth_pages_
          ? static_birth_[lpn / config_.prefill_extent_pages]
          : info->write_time;
  const Hours age = static_cast<double>(now - birth) / (3600.0 * 1e9);
  const auto assessment = channel_.assess(
      info->mode == ftl::PageMode::kReduced, info->pe_cycles,
      std::max(age, 0.0), info->ppn, info->block_reads);
  return {.source = ReadSource::kNand,
          .ctx = {.lpn = lpn,
                  .ppn = info->ppn,
                  .required_levels = assessment.required_levels,
                  .block_reads = info->block_reads,
                  .correctable = assessment.correctable,
                  .now = now}};
}

std::optional<ReadContext> SsdSimulator::begin_read(std::uint64_t lpn,
                                                    SimTime now) {
  ResolvedRead read = resolve_read(lpn, now);
  if (read.source == ReadSource::kBuffer) {
    ++results_.buffer_hits;
    return std::nullopt;
  }
  if (read.source == ReadSource::kUnmapped) {
    // Read of never-written data: served from the mapping table alone.
    ++results_.unmapped_reads;
    return std::nullopt;
  }
  if (!read.ctx.correctable) ++results_.uncorrectable_reads;
  ++results_.sensing_level_reads[static_cast<std::size_t>(
      read.ctx.required_levels)];
  verify_read_page(read.ctx);
  return read.ctx;
}

SsdSimulator::PageService SsdSimulator::service_read_page(std::uint64_t lpn,
                                                          SimTime now) {
  const std::optional<ReadContext> ctx = begin_read(lpn, now);
  if (!ctx.has_value()) return dram_read();
  telemetry::SpanRecorder* tracer =
      telemetry_ ? telemetry_->tracer() : nullptr;
  std::vector<ReadAttempt>* attempts = nullptr;
  if (tracer) {
    attempts_scratch_.clear();
    attempts = &attempts_scratch_;
  }
  const ReadCost cost = policy_->read_cost(*ctx, attempts);
  const std::size_t chip = scheduler_.chip_of(ctx->ppn);
  const SimTime completion =
      scheduler_.submit(chip, now,
                        ChipCommand{.channel = cost.channel,
                                    .die = cost.die,
                                    .controller = cost.controller},
                        "read");
  const SimTime start = completion - cost.total();
  if (tracer) {
    // Child spans partition [start, completion] attempt by attempt; they
    // are recorded after the scheduler's enclosing "read" span, so the
    // exporter's stable sort keeps parent-before-child nesting.
    const auto tid = static_cast<std::int32_t>(chip);
    SimTime cursor = start;
    for (std::size_t round = 0; round < attempts->size(); ++round) {
      const ReadAttempt& attempt = (*attempts)[round];
      const auto levels = static_cast<double>(attempt.levels);
      for (const auto& [name, dur] :
           {std::pair{"sense", attempt.cost.die},
            std::pair{"xfer", attempt.cost.channel},
            std::pair{"decode", attempt.cost.controller}}) {
        if (dur <= 0) continue;
        tracer->record({.name = name,
                        .cat = "read",
                        .pid = telemetry_->pid,
                        .tid = tid,
                        .start = cursor,
                        .dur = dur,
                        .arg0_key = "levels",
                        .arg0 = levels,
                        .arg1_key = "round",
                        .arg1 = static_cast<double>(round)});
        cursor += dur;
      }
    }
  }
  // This read's own pass-voltage stress lands on the block before any
  // post-read maintenance (RefreshPolicy) inspects the counter.
  ftl_.record_read(ctx->ppn);
  policy_->on_read_complete(*ctx);
  return {.response = completion - now,
          .wait = start - now,
          .sense = cost.die,
          .transfer = cost.channel,
          .decode = cost.controller};
}

void SsdSimulator::mark_durable(std::uint64_t lpn) {
  durable_version_[lpn] = static_cast<std::uint32_t>(ftl_.data_version(lpn));
}

void SsdSimulator::flush_victim(std::uint64_t lpn, SimTime now) {
  const ftl::WriteResult result =
      ftl_.write(lpn, policy_->write_mode(lpn), now);
  scheduler_.submit_background(now, result, config_.latency);
  mark_durable(lpn);
  ++results_.writes_durable;
}

void SsdSimulator::buffer_write(std::uint64_t lpn, SimTime now) {
  // Write-back semantics: the host write completes at buffer insertion;
  // evicted pages flush to NAND in the background, where their program and
  // GC time occupies the chips and delays subsequent reads — which is
  // exactly how the over-provisioning squeeze of reduced-state storage
  // surfaces in the paper's Fig. 6(a).
  for (const std::uint64_t victim : buffer_.write(lpn)) {
    flush_victim(victim, now);
  }
  if (config_.durability.policy == DurabilityPolicy::kFlushBarrier &&
      ++acked_since_barrier_ >= config_.durability.flush_barrier_interval) {
    acked_since_barrier_ = 0;
    flush_barrier_at(now);
  }
}

void SsdSimulator::settle_write_through(std::uint64_t lpn, SimTime now) {
  mark_durable(lpn);
  ++results_.writes_durable;
  for (const std::uint64_t victim : buffer_.insert_clean(lpn)) {
    flush_victim(victim, now);
  }
}

Duration SsdSimulator::service_write_page(std::uint64_t lpn, SimTime now) {
  ++results_.writes_acked;
  if (config_.durability.policy == DurabilityPolicy::kFua) {
    // Force-unit-access: program before acknowledging, then keep the page
    // cached (clean) for reads. The ack carries the program latency — the
    // price of making "acknowledged" mean "durable" per write.
    const ftl::WriteResult result =
        ftl_.write(lpn, policy_->write_mode(lpn), now);
    scheduler_.submit_background(now, result, config_.latency);
    settle_write_through(lpn, now);
    return config_.latency.buffer_latency + config_.latency.program();
  }
  buffer_write(lpn, now);
  return config_.latency.buffer_latency;
}

void SsdSimulator::flush_barrier_at(SimTime now) {
  for (const std::uint64_t lpn : buffer_.flush_barrier()) {
    flush_victim(lpn, now);
  }
}

void SsdSimulator::flush_barrier() {
  FLEX_EXPECTS(!crashed_);
  flush_barrier_at(events_.now());
}

void SsdSimulator::power_loss() {
  FLEX_EXPECTS(!crashed_);
  crashed_ = true;
  crash_ordinal_ = events_.fired();
  const SimTime now = events_.now();
  // Order matters for the accounting: drop the pending events first (their
  // completions will never run), then capture what the DRAM loses.
  events_.drop_pending();
  results_.dirty_buffer_pages = buffer_.power_loss();
  scheduler_.power_loss(now);
  // In-flight QoS requests vanish with their queued commands.
  qos_requests_.clear();
  qos_free_slots_.clear();
  std::fill(qos_outstanding_.begin(), qos_outstanding_.end(), 0);
  ++results_.crashes;
  if (telemetry::SpanRecorder* tracer =
          telemetry_ ? telemetry_->tracer() : nullptr) {
    tracer->record({.name = "power_loss",
                    .cat = "sim",
                    .pid = telemetry_->pid,
                    .tid = telemetry::kHostTrack,
                    .start = now,
                    .dur = 0});
  }
}

ftl::MountReport SsdSimulator::mount() {
  const SimTime now = events_.now();
  const ftl::MountReport report = ftl_.Mount(
      {.reseed_read_count = config_.read_disturb.refresh_threshold});
  // Replay the recovered ReducedCell membership (and pool budget) through
  // the read policy before any post-mount read consults it.
  policy_->on_mount(report, now);
  // Mount cost: one summary read per physical block plus one spare-area
  // read per programmed page. Charged to the mount ledger and a span, not
  // injected into the request timeline — mount happens at power-on,
  // before host traffic.
  const Duration duration =
      static_cast<Duration>(static_cast<std::uint64_t>(
                                ftl_.physical_blocks()) +
                            report.pages_scanned) *
      config_.latency.oob_scan_per_page;
  results_.mount_time += duration;
  if (telemetry_) {
    if (telemetry::SpanRecorder* tracer = telemetry_->tracer()) {
      tracer->record({.name = "mount",
                      .cat = "sim",
                      .pid = telemetry_->pid,
                      .tid = telemetry::kHostTrack,
                      .start = now,
                      .dur = duration});
    }
  }
  crashed_ = false;
  acked_since_barrier_ = 0;
  return report;
}

void SsdSimulator::record_request_stats(bool is_write, std::uint16_t tenant,
                                        Duration response,
                                        const PageService& slowest,
                                        SimTime arrival, std::uint64_t lpn,
                                        std::uint32_t pages) {
  const double seconds = to_seconds(response);
  results_.all_response.add(seconds);
  if (is_write) {
    results_.write_response.add(seconds);
  } else {
    results_.read_response.add(seconds);
    results_.read_latency_hist.add(seconds);
    results_.read_breakdown.queue_wait += slowest.wait;
    results_.read_breakdown.sensing += slowest.sense;
    results_.read_breakdown.transfer += slowest.transfer;
    results_.read_breakdown.decode += slowest.decode;
    results_.read_breakdown.buffer += slowest.buffer;
    if (response > 0) {
      const auto total = static_cast<double>(response);
      results_.wait_share_hist.add(slowest.wait / total);
      results_.sensing_share_hist.add(slowest.sense / total);
      results_.transfer_share_hist.add(slowest.transfer / total);
      results_.decode_share_hist.add(slowest.decode / total);
    }
  }
  TenantStats& tstats = results_.tenant[tenant];
  if (is_write) {
    tstats.write_response.add(seconds);
  } else {
    tstats.read_response.add(seconds);
    tstats.read_latency_hist.add(seconds);
  }
  if (telemetry_) {
    if (!is_write) read_latency_us_hist_->add(seconds * 1e6);
    if (telemetry::SpanRecorder* tracer = telemetry_->tracer()) {
      tracer->record({.name = is_write ? "write" : "read",
                      .cat = "request",
                      .pid = telemetry_->pid,
                      .tid = telemetry::kHostTrack,
                      .start = arrival,
                      .dur = response,
                      .arg0_key = "lpn",
                      .arg0 = static_cast<double>(lpn),
                      .arg1_key = "pages",
                      .arg1 = static_cast<double>(pages)});
    }
  }
}

Duration SsdSimulator::service_request(const trace::Request& request,
                                       SimTime now) {
  if (qos_mode_) {
    service_request_qos(request, now);
    return 0;
  }
  const std::uint64_t logical = ftl_.logical_pages();
  Duration response = 0;
  // Pages of one request are served concurrently on their chips; the
  // request completes with its slowest page. The first slowest page (ties
  // broken by page order) supplies the read's latency decomposition.
  PageService slowest;
  for (std::uint32_t i = 0; i < request.pages; ++i) {
    const std::uint64_t lpn = (request.lpn + i) % logical;
    if (request.is_write) {
      response = std::max(response, service_write_page(lpn, now));
    } else {
      const PageService page = service_read_page(lpn, now);
      if (page.response > slowest.response) slowest = page;
    }
  }
  if (!request.is_write) response = slowest.response;
  record_request_stats(request.is_write, tenant_of(request), response,
                       slowest, now, request.lpn, request.pages);
  return response;
}

Duration SsdSimulator::service_external(const trace::Request& request,
                                        SimTime now) {
  FLEX_EXPECTS(external_kernel_ && !qos_mode_ && !crashed_);
  integrity_failed_lpns_.clear();
  return service_request(request, now);
}

void SsdSimulator::repair_page(std::uint64_t lpn, SimTime now) {
  FLEX_EXPECTS(integrity_mode_);
  const ftl::WriteResult result = ftl_.repair(lpn, now);
  // The rewrite (and any GC it triggered) occupies the chips as
  // background work, exactly like a buffer flush.
  scheduler_.submit_background(now, result, config_.latency);
}

bool SsdSimulator::page_verifies(std::uint64_t lpn) const {
  FLEX_EXPECTS(integrity_mode_);
  if (buffer_.contains(lpn)) return true;
  const auto info = ftl_.lookup(lpn);
  if (!info.has_value()) return true;
  const ftl::DataAudit audit = ftl_.audit_data(lpn, ftl_.data_version(lpn));
  return audit.seal_ok && audit.payload_ok;
}

void SsdSimulator::observe_read_access(std::uint64_t lpn, SimTime now) {
  const ResolvedRead read = resolve_read(lpn, now);
  if (read.source != ReadSource::kNand) return;
  // Pure access-statistics update: no scheduler occupancy, no disturb
  // stress (ftl_.record_read is skipped — the sibling never touched its
  // NAND), no uncorrectable/sensing-histogram accounting and no seal
  // verification. Migrations the policy decides here are real FTL work,
  // exactly as they would be had the read landed on this replica.
  policy_->on_read_complete(read.ctx);
}

std::uint64_t SsdSimulator::block_read_count(std::uint64_t lpn) const {
  const auto info = ftl_.lookup(lpn);
  return info.has_value() ? info->block_reads : 0;
}

void SsdSimulator::service_request_qos(const trace::Request& request,
                                       SimTime now) {
  const std::uint16_t tenant = tenant_of(request);
  if (config_.qos.admission_max_outstanding > 0 &&
      qos_outstanding_[tenant] >= config_.qos.admission_max_outstanding) {
    // Rejected before any FTL mutation: admission control is what bounds
    // both queue memory and drive-state divergence under overload.
    ++results_.tenant[tenant].admission_rejected;
    ++results_.admission_rejected;
    return;
  }
  std::uint64_t slot;
  if (!qos_free_slots_.empty()) {
    slot = qos_free_slots_.back();
    qos_free_slots_.pop_back();
  } else {
    slot = qos_requests_.size();
    qos_requests_.emplace_back();
  }
  qos_requests_[slot] = QosRequest{.arrival = now,
                                   .lpn = request.lpn,
                                   .pages = request.pages,
                                   .tenant = tenant,
                                   .is_write = request.is_write,
                                   .outstanding = 1};  // issue guard
  ++qos_outstanding_[tenant];
  qos_slots_high_water_ =
      std::max<std::uint64_t>(qos_slots_high_water_,
                              qos_requests_.size() - qos_free_slots_.size());

  const std::uint64_t logical = ftl_.logical_pages();
  for (std::uint32_t i = 0; i < request.pages; ++i) {
    const std::uint64_t lpn = (request.lpn + i) % logical;
    if (request.is_write) {
      issue_write_page_qos(lpn, slot, request.priority, now);
    } else {
      issue_read_page_qos(lpn, slot, request.priority, now);
    }
  }
  // Drop the issue guard; a request whose pages all resolved
  // synchronously (buffer hits, buffered writes) finalizes here.
  if (--qos_requests_[slot].outstanding == 0) finalize_qos(slot);
}

void SsdSimulator::issue_read_page_qos(std::uint64_t lpn, std::uint64_t slot,
                                       std::uint8_t priority, SimTime now) {
  QosRequest& st = qos_requests_[slot];
  const std::optional<ReadContext> ctx = begin_read(lpn, now);
  if (!ctx.has_value()) {
    const PageService page = dram_read();
    if (page.response > st.slowest.response) st.slowest = page;
    return;
  }
  // The whole read cost (progressive ladder, recovery re-read) is
  // computed at arrival and travels with the queued command; per-attempt
  // child spans are not recorded in QoS mode because the service start is
  // unknown until dispatch (the chip-level "read" span still is).
  const ReadCost cost = policy_->read_cost(*ctx);
  ++st.outstanding;
  scheduler_.submit_qos(scheduler_.chip_of(ctx->ppn), now,
                        ChipCommand{.channel = cost.channel,
                                    .die = cost.die,
                                    .controller = cost.controller},
                        QosClass::kRead, st.tenant, priority, slot, "read");
  // FTL state mutations stay synchronous at arrival (identical drive-state
  // trajectory under every scheduler configuration); a refresh scrub
  // triggered by this read queues its relocation train as throttleable
  // background work.
  const std::uint64_t before_moves = ftl_.stats().refresh_page_moves;
  const std::uint64_t before_runs = ftl_.stats().refresh_runs;
  ftl_.record_read(ctx->ppn);
  policy_->on_read_complete(*ctx);
  const std::uint64_t moves =
      ftl_.stats().refresh_page_moves - before_moves;
  const std::uint64_t erases = ftl_.stats().refresh_runs - before_runs;
  scheduler_.submit_maintenance(now, moves, erases, config_.latency);
}

void SsdSimulator::issue_write_page_qos(std::uint64_t lpn,
                                        std::uint64_t slot,
                                        std::uint8_t priority, SimTime now) {
  QosRequest& st = qos_requests_[slot];
  ++results_.writes_acked;
  // Write admission: past the dirty watermark (or always, under kFua) the
  // page programs through to NAND as a *queued* host command — the ack
  // waits for the program, which is the back-pressure that keeps the
  // dirty set bounded under sustained write overload.
  const bool write_through =
      config_.durability.policy == DurabilityPolicy::kFua ||
      (config_.qos.write_admission_dirty_watermark > 0 &&
       buffer_.dirty_pages() >= config_.qos.write_admission_dirty_watermark);
  if (write_through) {
    const ftl::WriteResult result =
        ftl_.write(lpn, policy_->write_mode(lpn), now);
    ++st.outstanding;
    scheduler_.submit_qos(scheduler_.chip_of(result.ppn), now,
                          ChipCommand{.die = config_.latency.program()},
                          QosClass::kWrite, st.tenant, priority, slot,
                          "program");
    const std::uint64_t moves =
        result.page_programs > 0 ? result.page_programs - 1 : 0;
    scheduler_.submit_maintenance(now, moves, result.erases,
                                  config_.latency);
    settle_write_through(lpn, now);
    return;
  }
  buffer_write(lpn, now);
  st.write_response =
      std::max(st.write_response, config_.latency.buffer_latency);
}

void SsdSimulator::on_qos_complete(const QosCompletion& done) {
  QosRequest& st = qos_requests_[done.tag];
  if (st.is_write) {
    // Buffer insertion precedes the program, as under kFua.
    st.write_response =
        std::max(st.write_response, done.completion - done.arrival +
                                        config_.latency.buffer_latency);
  } else {
    // Commands are queued at request arrival, so wait + occupancy spans
    // [arrival, completion] exactly and the breakdown identity holds.
    const PageService page{.response = done.completion - done.arrival,
                           .wait = done.start - done.arrival,
                           .sense = done.cmd.die,
                           .transfer = done.cmd.channel,
                           .decode = done.cmd.controller};
    if (page.response > st.slowest.response) st.slowest = page;
  }
  FLEX_ASSERT(st.outstanding > 0);
  if (--st.outstanding == 0) finalize_qos(done.tag);
}

void SsdSimulator::finalize_qos(std::uint64_t slot) {
  // Response latencies were measured per page as the commands completed.
  const QosRequest st = qos_requests_[slot];
  qos_free_slots_.push_back(slot);
  FLEX_ASSERT(qos_outstanding_[st.tenant] > 0);
  --qos_outstanding_[st.tenant];
  const Duration response =
      st.is_write ? st.write_response : st.slowest.response;
  record_request_stats(st.is_write, st.tenant, response, st.slowest,
                       st.arrival, st.lpn, st.pages);
}

void SsdSimulator::drain_events() {
  if (injector_ != nullptr && config_.faults.crash_enabled) {
    // Crash-armed dispatch: adjudicate power loss at every event-queue
    // boundary. The injector hashes (seed, ordinal, salt) statelessly —
    // no RNG is consumed, so a crash-off run of the same config stays
    // byte-identical. Event callbacks are atomic with respect to power
    // loss: a multi-page FTL sequence inside one event cannot be torn,
    // but everything still pending in the queue is lost.
    while (!events_.empty()) {
      if (injector_->crash_at(events_.fired())) {
        power_loss();
        break;
      }
      events_.run_next();
    }
  } else {
    events_.run_all();
  }
}

void SsdSimulator::run_segment(const std::vector<trace::Request>& requests) {
  // A crashed simulator refuses work until mount(): requests against a
  // powered-off drive would silently vanish.
  FLEX_EXPECTS(!external_kernel_);
  FLEX_EXPECTS(trace::sorted_by_arrival(requests));
  if (crashed_) return;
  // A segment is an open-loop source over the vector: arrivals stream one
  // at a time, and one stamped before the clock (a segment that starts
  // behind the previous one's completions) is clamped to it.
  trace::VectorSource source(requests);
  feed_.start(source, 0);
  drain_events();
  collect_results();
}

void SsdSimulator::on_arrival(const trace::Request& request, SimTime now) {
  service_request(request, now);
}

void SsdSimulator::run_open_loop(trace::RequestSource& source,
                                 std::uint64_t max_requests) {
  FLEX_EXPECTS(!external_kernel_);
  if (crashed_) return;
  // Exactly one arrival event is pending at any time: each arrival
  // schedules its successor when it fires, so the event queue holds the
  // in-flight completions plus a single arrival — open-loop pressure
  // without a materialised trace.
  feed_.start(source, max_requests);
  drain_events();
  collect_results();
}

void SsdSimulator::collect_results() {
  const ReadPolicyStats policy_stats = policy_->stats();
  results_.migrations_to_reduced = policy_stats.migrations_to_reduced;
  results_.migrations_to_normal = policy_stats.migrations_to_normal;
  results_.refresh_blocks = policy_stats.refresh_blocks;
  results_.refresh_page_moves = policy_stats.refresh_page_moves;
  results_.pool_pages = policy_stats.pool_pages;
  results_.pool_capacity_pages = policy_stats.pool_capacity_pages;
  results_.recovered_reads = policy_stats.recovered_reads;
  results_.data_loss_reads = policy_stats.data_loss_reads;
  results_.integrity_recovered_reads = policy_stats.integrity_recovered_reads;
  results_.integrity_unrecovered_reads =
      policy_stats.integrity_unrecovered_reads;
  results_.retired_blocks = ftl_.retired_block_count();
  results_.chip_stats = scheduler_.stats();
  // Report trace-phase FTL activity only.
  for (const auto& counter : ftl::kFtlStatsCounters) {
    const auto field = counter.second;
    results_.ftl.*field = ftl_.stats().*field - prefill_stats_.*field;
  }
  results_.qos_request_slots_high_water = qos_slots_high_water_;
  results_.qos_pending_high_water = scheduler_.qos_pending_high_water();
  results_.background_deferrals = scheduler_.qos_background_deferrals();
  results_.fairness_overrides = scheduler_.qos_fairness_overrides();
  // The crash path captured the gauge at the instant of power loss.
  if (!crashed_) results_.dirty_buffer_pages = buffer_.dirty_pages();
  if (telemetry_) {
    results_.metrics = telemetry_->metrics.snapshot();
    results_.spans = telemetry_->spans.spans();
  }
}

SsdResults SsdSimulator::run(const std::vector<trace::Request>& requests) {
  run_segment(requests);
  return results_;
}

StatusOr<std::unique_ptr<SsdSimulator>> SsdSimulator::Builder::Build() const {
  if (Status status = config_.Validate(); !status.ok()) return status;
  auto simulator = std::unique_ptr<SsdSimulator>(
      new SsdSimulator(config_, normal_, reduced_, kernel_));
  if (telemetry_ != nullptr) simulator->attach_telemetry(telemetry_);
  return simulator;
}

}  // namespace flex::ssd
