#include "host/array.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/assert.h"
#include "common/parallel.h"

namespace flex::host {
namespace {

/// Golden-ratio seed stride: drive d runs the template seed + d * phi, so
/// sibling drives draw independent prefill-age/preconditioning streams
/// while drive 0 keeps the template seed bit-for-bit (the 1-drive
/// identity).
constexpr std::uint64_t kSeedStride = 0x9E3779B97F4A7C15ULL;

StatusOr<std::vector<std::unique_ptr<ssd::SsdSimulator>>> build_drives(
    const ArrayConfig& config, const reliability::BerModel& normal,
    const reliability::BerModel& reduced, ssd::EventQueue& kernel) {
  std::vector<std::unique_ptr<ssd::SsdSimulator>> drives;
  drives.reserve(config.drives);
  for (std::uint32_t d = 0; d < config.drives; ++d) {
    ssd::SsdConfig cfg = config.drive;
    cfg.seed += d * kSeedStride;
    auto drive = ssd::SsdSimulator::Builder(normal, reduced)
                     .config(std::move(cfg))
                     .kernel(&kernel)
                     .Build();
    if (!drive.ok()) return drive.status();
    drives.push_back(std::move(drive).value());
  }
  return drives;
}

}  // namespace

Status ArrayConfig::Validate() const {
  if (drives < 1 || drives > 1024) {
    return Status::OutOfRange("array.drives must be in [1, 1024]");
  }
  if (replication_factor > drives) {
    return Status::InvalidArgument(
        "array.replication_factor exceeds the drive count: there are not "
        "enough drives to hold that many copies");
  }
  if (replication_factor < 1 || drives % replication_factor != 0) {
    return Status::InvalidArgument(
        "array.replication_factor must be >= 1 and divide array.drives "
        "(drives are partitioned into equal replica groups)");
  }
  if (stripe_pages < 1) {
    return Status::OutOfRange("array.stripe_pages must be >= 1");
  }
  if (tenants < 1 || tenants > 65'535) {
    return Status::OutOfRange("array.tenants must be in [1, 65535]");
  }
  if (replica_policy != ReplicaPolicy::kRoundRobin &&
      replication_factor == 1) {
    return Status::InvalidArgument(
        "array.replica_policy is set but replication_factor is 1: with a "
        "single copy there is nothing to steer — raise the replication "
        "factor or keep the round-robin default");
  }
  if (access_eval_scope == AccessEvalScope::kGlobal) {
    if (replication_factor == 1) {
      return Status::InvalidArgument(
          "array.access_eval_scope = kGlobal with replication_factor 1: "
          "there are no sibling replicas to feed — the global scope would "
          "be silently identical to per-drive");
    }
    if (drive.scheme != ssd::Scheme::kFlexLevel) {
      return Status::InvalidArgument(
          "array.access_eval_scope = kGlobal requires the FlexLevel "
          "scheme: no other scheme consumes AccessEval statistics");
    }
  }
  const QueuePairConfig& qp = queue_pair;
  if (qp.queue_pairs < 1 || qp.queue_pairs > 65'536) {
    return Status::OutOfRange(
        "array.queue_pair.queue_pairs must be in [1, 65536]");
  }
  if (qp.sq_depth < 1 || qp.cq_depth < 1) {
    return Status::OutOfRange(
        "array.queue_pair.sq_depth and cq_depth must be >= 1");
  }
  if (qp.doorbell_latency < 0 || qp.completion_latency < 0) {
    return Status::OutOfRange(
        "array.queue_pair doorbell/completion latencies must be >= 0");
  }
  if (interconnect.requesters < 1 || interconnect.requesters > 256) {
    return Status::OutOfRange(
        "array.interconnect.requesters must be in [1, 256]");
  }
  for (const auto& [name, link] :
       {std::pair{"requester_link", interconnect.requester_link},
        std::pair{"switch_fabric", interconnect.switch_fabric},
        std::pair{"drive_link", interconnect.drive_link}}) {
    if (link.latency < 0) {
      return Status::OutOfRange(std::string("array.interconnect.") + name +
                                ".latency must be >= 0");
    }
  }
  if (Status s = drive.Validate(); !s.ok()) return s;
  if (drive.qos.enabled) {
    return Status::InvalidArgument(
        "array.drive.qos.enabled is unsupported in an array: the host layer "
        "owns queueing above the drive (queue pairs + interconnect); "
        "drive-level QoS mode would double-queue every command");
  }
  if (drive.faults.crash_enabled) {
    return Status::InvalidArgument(
        "array.drive.faults.crash_enabled is unsupported in an array: the "
        "shared kernel's drain loop is owned by the host layer, not the "
        "drive's crash-armed loop");
  }
  // Host requests carry the volume lpn in 32 bits (trace::Request).
  const std::uint64_t drive_pages =
      ftl::PageMappingFtl::logical_pages_of(drive.ftl);
  if (drive_pages > trace::kLpnSpace / (drives / replication_factor)) {
    return Status::OutOfRange(
        "array volume capacity (drive logical pages * drives / "
        "replication_factor) must be <= 2^32 pages");
  }
  return Status::Ok();
}

ArraySimulator::ArraySimulator(
    const ArrayConfig& config, std::unique_ptr<ssd::EventQueue> kernel,
    std::vector<std::unique_ptr<ssd::SsdSimulator>> drives)
    : config_(config),
      kernel_(std::move(kernel)),
      feed_(*kernel_, *this),
      drives_(std::move(drives)),
      volume_({.drives = config_.drives,
               .replication_factor = config_.replication_factor,
               .stripe_pages = config_.stripe_pages,
               .drive_pages = drives_[0]->ftl().logical_pages()}),
      interconnect_(config_.interconnect, config_.drives),
      page_bytes_(config_.drive.ftl.spec.page_size_bytes) {
  qps_.reserve(config_.drives);
  for (std::uint32_t d = 0; d < config_.drives; ++d) {
    qps_.push_back(std::make_unique<QueuePairSet>(
        config_.queue_pair, *kernel_, static_cast<Transport&>(*this),
        static_cast<Dispatcher&>(*this)));
  }
  replica_rr_.assign(volume_.groups(), 0);
  replica_reads_.assign(config_.drives, 0);
  results_.tenant.assign(config_.tenants, ssd::TenantStats{});
  results_.qp.resize(config_.drives);
  results_.drive.resize(config_.drives);
  results_.requester_link.resize(config_.interconnect.requesters);
  results_.drive_link.resize(config_.drives);
  results_.replica_reads.assign(config_.drives, 0);
}

StatusOr<std::unique_ptr<ArraySimulator>> ArraySimulator::Builder::Build()
    const {
  if (Status status = config_.Validate(); !status.ok()) return status;
  auto kernel = std::make_unique<ssd::EventQueue>();
  auto drives = build_drives(config_, normal_, reduced_, *kernel);
  if (!drives.ok()) return drives.status();
  auto array = std::unique_ptr<ArraySimulator>(new ArraySimulator(
      config_, std::move(kernel), std::move(drives).value()));
  if (telemetry_ != nullptr) array->attach_telemetry(telemetry_);
  return array;
}

ArraySimulator::~ArraySimulator() {
  if (telemetry_) telemetry_->metrics.unbind(this);
}

void ArraySimulator::attach_telemetry(telemetry::Telemetry* telemetry) {
  kernel_->attach_telemetry(telemetry);
  if (telemetry_) telemetry_->metrics.unbind(this);
  telemetry_ = telemetry;
  if (!telemetry_) return;
  telemetry::MetricsRegistry& registry = telemetry_->metrics;
  registry.bind(this, "array.requests",
                [this] { return results_.all_response.count(); });
  registry.bind(this, "array.reads",
                [this] { return results_.read_response.count(); });
  registry.bind(this, "array.writes",
                [this] { return results_.write_response.count(); });
  registry.bind(this, "array.commands", [this] {
    std::uint64_t submitted = 0;
    for (const auto& qp : qps_) submitted += qp->stats().submitted;
    return submitted;
  });
  registry.bind(this, "array.observe_feeds",
                [this] { return observe_feeds_; });
  registry.bind(this, "array.integrity_failovers",
                [this] { return integrity_failovers_; });
  registry.bind(this, "array.read_repairs", [this] { return read_repairs_; });
}

void ArraySimulator::prefill(std::uint64_t host_pages) {
  FLEX_EXPECTS(host_pages <= volume_.logical_pages());
  // Batch the per-group page counts into one prefill call per drive,
  // then fill the drives in parallel: a drive's prefill is synchronous
  // FTL work on its own RNG stream — it schedules no shared-kernel
  // events and touches no sibling state — so the fan-out is
  // byte-identical to the sequential loop while an N-drive array fills
  // in ~1/N the wall-clock.
  std::vector<std::uint64_t> per_drive(drives(), 0);
  for (std::uint32_t g = 0; g < volume_.groups(); ++g) {
    const std::uint64_t pages = volume_.prefill_pages(g, host_pages);
    for (std::uint32_t r = 0; r < volume_.replicas(); ++r) {
      per_drive[volume_.drive_of(g, r)] = pages;
    }
  }
  parallel_for(drives(), /*jobs=*/0,
               [&](std::size_t d) { drives_[d]->prefill(per_drive[d]); });
}

std::uint32_t ArraySimulator::pick_replica(std::uint32_t group,
                                           std::uint64_t dlpn) {
  const std::uint32_t replicas = volume_.replicas();
  if (replicas == 1) return volume_.drive_of(group, 0);
  switch (config_.replica_policy) {
    case ReplicaPolicy::kRoundRobin: {
      const std::uint32_t r = replica_rr_[group]++ % replicas;
      return volume_.drive_of(group, r);
    }
    case ReplicaPolicy::kShortestQueue: {
      std::uint32_t best = volume_.drive_of(group, 0);
      for (std::uint32_t r = 1; r < replicas; ++r) {
        const std::uint32_t d = volume_.drive_of(group, r);
        if (qps_[d]->outstanding() < qps_[best]->outstanding()) best = d;
      }
      return best;
    }
    case ReplicaPolicy::kDisturbAware: {
      // Lowest disturb pressure on the backing block; ties fall back to
      // the shorter queue, then the lower index — all deterministic.
      std::uint32_t best = volume_.drive_of(group, 0);
      std::uint64_t best_reads = drives_[best]->block_read_count(dlpn);
      for (std::uint32_t r = 1; r < replicas; ++r) {
        const std::uint32_t d = volume_.drive_of(group, r);
        const std::uint64_t reads = drives_[d]->block_read_count(dlpn);
        if (reads < best_reads ||
            (reads == best_reads &&
             qps_[d]->outstanding() < qps_[best]->outstanding())) {
          best = d;
          best_reads = reads;
        }
      }
      return best;
    }
  }
  FLEX_ASSERT(false && "unreachable");
  return 0;
}

void ArraySimulator::submit_command(std::uint64_t slot, std::uint32_t drive,
                                    const VolumeMapper::Extent& extent,
                                    SimTime now) {
  const ArrayRequest& req = requests_[slot];
  const std::uint64_t payload =
      static_cast<std::uint64_t>(extent.pages) * page_bytes_;
  HostCommand cmd{
      .request_slot = slot,
      .drive = drive,
      .lpn = extent.dlpn,
      .pages = extent.pages,
      .is_write = req.is_write,
      .tenant = req.tenant,
      .priority = 0,
      .requester = req.requester,
      .qp = req.tenant % config_.queue_pair.queue_pairs,
      .submit_bytes = kCommandBytes + (req.is_write ? payload : 0),
      .complete_bytes = kCommandBytes + (req.is_write ? 0 : payload)};
  ++requests_[slot].outstanding;
  qps_[drive]->submit(cmd, now);
}

void ArraySimulator::submit_request(const trace::Request& request,
                                    SimTime now) {
  std::uint64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = requests_.size();
    requests_.emplace_back();
  }
  const auto tenant = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(request.tenant, config_.tenants - 1));
  requests_[slot] = ArrayRequest{
      .arrival = now,
      .lpn = request.lpn,
      .pages = request.pages,
      .tenant = tenant,
      .requester = static_cast<std::uint8_t>(
          request.requester % config_.interconnect.requesters),
      .is_write = request.is_write,
      .outstanding = 1};  // issue guard against same-time completion
  record_queue_.push_back(slot);

  volume_.split(request.lpn, request.pages, extent_scratch_);
  for (const VolumeMapper::Extent& extent : extent_scratch_) {
    if (request.is_write) {
      for (std::uint32_t r = 0; r < volume_.replicas(); ++r) {
        submit_command(slot, volume_.drive_of(extent.group, r), extent,
                       now);
      }
    } else {
      const std::uint32_t drive = pick_replica(extent.group, extent.dlpn);
      if (volume_.replicas() > 1) ++replica_reads_[drive];
      submit_command(slot, drive, extent, now);
    }
  }
  --requests_[slot].outstanding;  // release the issue guard
  drain_finalized();
}

SimTime ArraySimulator::deliver_command(const HostCommand& cmd,
                                        SimTime now) {
  return interconnect_.to_drive(cmd.requester, cmd.drive, cmd.submit_bytes,
                                now);
}

SimTime ArraySimulator::deliver_completion(const HostCommand& cmd,
                                           SimTime now) {
  return interconnect_.to_host(cmd.drive, cmd.requester, cmd.complete_bytes,
                               now);
}

Duration ArraySimulator::dispatch(const HostCommand& cmd, SimTime now) {
  const trace::Request req{.arrival = now,
                           .is_write = cmd.is_write,
                           .lpn = static_cast<std::uint32_t>(cmd.lpn),
                           .pages = cmd.pages,
                           .tenant = cmd.tenant,
                           .priority = cmd.priority,
                           .requester = cmd.requester};
  Duration service = drives_[cmd.drive]->service_external(req, now);
  if (!cmd.is_write && volume_.replicas() > 1 &&
      !drives_[cmd.drive]->integrity_failed_lpns().empty()) {
    repair_scratch_ = drives_[cmd.drive]->integrity_failed_lpns();
    service += recover_corrupt_pages(cmd, repair_scratch_, now);
  }
  if (!cmd.is_write &&
      config_.access_eval_scope == AccessEvalScope::kGlobal) {
    // Feed the replicated read's access statistics to the sibling copies:
    // every replica sees the array-wide pattern, not its 1/R sample.
    const std::uint32_t group = cmd.drive / volume_.replicas();
    for (std::uint32_t r = 0; r < volume_.replicas(); ++r) {
      const std::uint32_t sibling = volume_.drive_of(group, r);
      if (sibling == cmd.drive) continue;
      for (std::uint32_t i = 0; i < cmd.pages; ++i) {
        drives_[sibling]->observe_read_access(cmd.lpn + i, now);
        ++observe_feeds_;
      }
    }
  }
  return service;
}

Duration ArraySimulator::recover_corrupt_pages(
    const HostCommand& cmd, const std::vector<std::uint64_t>& lpns,
    SimTime now) {
  Duration extra = 0;
  const std::uint32_t group = cmd.drive / volume_.replicas();
  for (const std::uint64_t dlpn : lpns) {
    ++integrity_failovers_;
    const Duration before = extra;
    bool repaired = false;
    // Siblings in drive order — deterministic, like every other fan-out.
    for (std::uint32_t r = 0; r < volume_.replicas() && !repaired; ++r) {
      const std::uint32_t sibling = volume_.drive_of(group, r);
      if (sibling == cmd.drive) continue;
      const trace::Request retry{
          .arrival = now,
          .is_write = false,
          .lpn = static_cast<std::uint32_t>(dlpn),
          .pages = 1,
          .tenant = cmd.tenant,
          .priority = cmd.priority,
          .requester = cmd.requester};
      extra += drives_[sibling]->service_external(retry, now);
      // A sibling whose own copy is persistently corrupt cannot donate;
      // try the next one (transient mismatches were cured in-drive).
      if (!drives_[sibling]->integrity_failed_lpns().empty()) continue;
      drives_[cmd.drive]->repair_page(dlpn, now);
      ++read_repairs_;
      repaired = true;
      if (telemetry::SpanRecorder* tracer =
              telemetry_ ? telemetry_->tracer() : nullptr) {
        tracer->record({.name = "read_repair",
                        .cat = "array",
                        .pid = telemetry_->pid,
                        .tid = telemetry::kHostTrack,
                        .start = now,
                        .dur = extra - before,
                        .arg0_key = "lpn",
                        .arg0 = static_cast<double>(dlpn),
                        .arg1_key = "drive",
                        .arg1 = static_cast<double>(cmd.drive)});
      }
    }
  }
  return extra;
}

void ArraySimulator::complete(const HostCommand& cmd,
                              const CommandTiming& timing) {
  ArrayRequest& req = requests_[cmd.request_slot];
  const Duration response = timing.done - req.arrival;
  if (response > req.response || req.response == 0) {
    req.response = response;
    req.slowest =
        HostBreakdown{.submit = timing.doorbell - timing.submitted,
                      .queue = timing.fetched - timing.doorbell,
                      .drive = timing.service_end - timing.fetched,
                      .completion = timing.done - timing.service_end};
  }
  FLEX_ASSERT(req.outstanding > 0);
  if (--req.outstanding == 0) drain_finalized();
}

void ArraySimulator::drain_finalized() {
  while (!record_queue_.empty() &&
         requests_[record_queue_.front()].outstanding == 0) {
    finalize(record_queue_.front());
    record_queue_.pop_front();
  }
}

void ArraySimulator::finalize(std::uint64_t slot) {
  const ArrayRequest req = requests_[slot];
  free_slots_.push_back(slot);
  const double seconds = to_seconds(req.response);
  results_.all_response.add(seconds);
  ssd::TenantStats& tstats = results_.tenant[req.tenant];
  if (req.is_write) {
    results_.write_response.add(seconds);
    tstats.write_response.add(seconds);
  } else {
    results_.read_response.add(seconds);
    results_.read_latency_hist.add(seconds);
    results_.read_breakdown.submit += req.slowest.submit;
    results_.read_breakdown.queue += req.slowest.queue;
    results_.read_breakdown.drive += req.slowest.drive;
    results_.read_breakdown.completion += req.slowest.completion;
    tstats.read_response.add(seconds);
    tstats.read_latency_hist.add(seconds);
  }
  if (telemetry::SpanRecorder* tracer =
          telemetry_ ? telemetry_->tracer() : nullptr) {
    tracer->record({.name = req.is_write ? "write" : "read",
                    .cat = "array",
                    .pid = telemetry_->pid,
                    .tid = telemetry::kHostTrack,
                    .start = req.arrival,
                    .dur = req.response,
                    .arg0_key = "lpn",
                    .arg0 = static_cast<double>(req.lpn),
                    .arg1_key = "tenant",
                    .arg1 = static_cast<double>(req.tenant)});
  }
}

void ArraySimulator::run_segment(const std::vector<trace::Request>& requests) {
  FLEX_EXPECTS(trace::sorted_by_arrival(requests));
  trace::VectorSource source(requests);
  feed_.start(source, 0);
  kernel_->run_all();
  collect_results();
}

void ArraySimulator::run_open_loop(trace::RequestSource& source,
                                   std::uint64_t max_requests) {
  feed_.start(source, max_requests);
  kernel_->run_all();
  collect_results();
}

void ArraySimulator::on_arrival(const trace::Request& request, SimTime now) {
  submit_request(request, now);
}

void ArraySimulator::collect_results() {
  for (std::uint32_t d = 0; d < drives(); ++d) {
    drives_[d]->collect_results();
    results_.drive[d] = drives_[d]->results();
    results_.qp[d] = qps_[d]->stats();
    results_.drive_link[d] = interconnect_.drive_stats(d);
    results_.replica_reads[d] = replica_reads_[d];
  }
  for (std::uint32_t r = 0; r < config_.interconnect.requesters; ++r) {
    results_.requester_link[r] = interconnect_.requester_stats(r);
  }
  results_.switch_fabric = interconnect_.switch_stats();
  results_.observe_feeds = observe_feeds_;
  results_.integrity_failovers = integrity_failovers_;
  results_.read_repairs = read_repairs_;
  results_.window = kernel_->now() - window_start_;
}

void ArraySimulator::reset_measurements() {
  const std::vector<ssd::TenantStats> tenants(config_.tenants,
                                              ssd::TenantStats{});
  const std::vector<ssd::SsdResults> drive_results(drives());
  results_ = ArrayResults{};
  results_.tenant = tenants;
  results_.drive = drive_results;
  results_.qp.resize(drives());
  results_.requester_link.resize(config_.interconnect.requesters);
  results_.drive_link.resize(drives());
  results_.replica_reads.assign(drives(), 0);
  for (std::uint32_t d = 0; d < drives(); ++d) {
    drives_[d]->reset_measurements();
    qps_[d]->reset_stats();
  }
  interconnect_.reset_stats();
  std::fill(replica_reads_.begin(), replica_reads_.end(), 0);
  observe_feeds_ = 0;
  integrity_failovers_ = 0;
  read_repairs_ = 0;
  window_start_ = kernel_->now();
  if (telemetry_) {
    telemetry_->metrics.zero();
    telemetry_->spans.clear();
  }
}

}  // namespace flex::host
