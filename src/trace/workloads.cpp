#include "trace/workloads.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/assert.h"
#include "common/zipf.h"

namespace flex::trace {

WorkloadParams workload_params(Workload workload) {
  WorkloadParams p;
  switch (workload) {
    case Workload::kFin2:
      // UMass Financial2: OLTP, read-dominant, tiny requests, heavy skew.
      p = {.name = "fin-2",
           .read_fraction = 0.82,
           .zipf_theta = 1.10,
           .footprint_pages = 260'000,
           .mean_request_pages = 1.2,
           .max_request_pages = 16,
           .iops = 4'000.0,
           .requests = 600'000,
           .read_write_overlap = 0.25,
           .sequential_fraction = 0.05};
      break;
    case Workload::kWeb1:
      // Search-engine web server: nearly pure random reads.
      p = {.name = "web-1",
           .read_fraction = 0.99,
           .zipf_theta = 0.90,
           .footprint_pages = 240'000,
           .mean_request_pages = 2.0,
           .max_request_pages = 32,
           .iops = 3'000.0,
           .requests = 500'000,
           .read_write_overlap = 0.2,
           .sequential_fraction = 0.10};
      break;
    case Workload::kWeb2:
      p = {.name = "web-2",
           .read_fraction = 0.96,
           .zipf_theta = 0.80,
           .footprint_pages = 260'000,
           .mean_request_pages = 2.5,
           .max_request_pages = 32,
           .iops = 2'500.0,
           .requests = 500'000,
           .read_write_overlap = 0.2,
           .sequential_fraction = 0.15};
      break;
    case Workload::kPrj1:
      // MSR project server: the write-heavy member of the pair.
      p = {.name = "prj-1",
           .read_fraction = 0.42,
           .zipf_theta = 0.70,
           .footprint_pages = 260'000,
           .mean_request_pages = 3.0,
           .max_request_pages = 64,
           .iops = 800.0,
           .requests = 500'000,
           .read_write_overlap = 0.2,
           .sequential_fraction = 0.25};
      break;
    case Workload::kPrj2:
      p = {.name = "prj-2",
           .read_fraction = 0.70,
           .zipf_theta = 0.85,
           .footprint_pages = 260'000,
           .mean_request_pages = 2.5,
           .max_request_pages = 64,
           .iops = 1'500.0,
           .requests = 500'000,
           .read_write_overlap = 0.2,
           .sequential_fraction = 0.20};
      break;
    case Workload::kWin1:
      // Desktop PC: mixed, moderately skewed, bursty small I/O.
      p = {.name = "win-1",
           .read_fraction = 0.60,
           .zipf_theta = 0.95,
           .footprint_pages = 200'000,
           .mean_request_pages = 1.8,
           .max_request_pages = 32,
           .iops = 1'200.0,
           .requests = 500'000,
           .read_write_overlap = 0.2,
           .sequential_fraction = 0.15};
      break;
    case Workload::kWin2:
      p = {.name = "win-2",
           .read_fraction = 0.75,
           .zipf_theta = 0.85,
           .footprint_pages = 220'000,
           .mean_request_pages = 2.0,
           .max_request_pages = 32,
           .iops = 1'600.0,
           .requests = 500'000,
           .read_write_overlap = 0.2,
           .sequential_fraction = 0.15};
      break;
  }
  return p;
}

std::string workload_name(Workload workload) {
  return workload_params(workload).name;
}

namespace {

// Maps popularity ranks onto logical pages with a fixed multiplicative
// permutation so the hot set is scattered across the address space; `mult`
// must be coprime with the footprint.
std::uint64_t permute(std::uint64_t rank, std::uint64_t mult,
                      std::uint64_t offset, std::uint64_t footprint) {
  return (rank * mult + offset) % footprint;
}

std::uint64_t coprime_multiplier(std::uint64_t footprint,
                                 std::uint64_t candidate) {
  while (std::gcd(candidate, footprint) != 1) ++candidate;
  return candidate;
}

}  // namespace

std::vector<Request> generate(const WorkloadParams& params,
                              std::uint64_t seed) {
  FLEX_EXPECTS(params.footprint_pages >= 1024);
  FLEX_EXPECTS(params.footprint_pages <= kLpnSpace);
  FLEX_EXPECTS(params.read_fraction >= 0.0 && params.read_fraction <= 1.0);
  FLEX_EXPECTS(params.mean_request_pages >= 1.0);
  FLEX_EXPECTS(params.iops > 0.0);

  Rng rng(seed);
  // The footprint splits into a read region and a write-exclusive region:
  // block-trace studies show read and write working sets overlap only
  // partially, and data that is never rewritten is exactly the data whose
  // retention age keeps growing. `read_write_overlap` is the fraction of
  // writes that target the read region.
  const std::uint64_t read_span =
      std::max<std::uint64_t>(params.footprint_pages * 7 / 10, 1024);
  const std::uint64_t write_span = params.footprint_pages - read_span;
  const ZipfSampler read_zipf(read_span, params.zipf_theta);
  const ZipfSampler write_zipf(std::max<std::uint64_t>(write_span, 1),
                               params.zipf_theta);
  const std::uint64_t read_mult =
      coprime_multiplier(read_span, 2'654'435'761ULL);
  const std::uint64_t write_mult = coprime_multiplier(
      std::max<std::uint64_t>(write_span, 1), 40'503'551ULL);

  std::vector<Request> out;
  out.reserve(params.requests);
  double clock_ns = 0.0;
  const double mean_gap_ns = 1e9 / params.iops;
  const double geo_p = 1.0 / params.mean_request_pages;
  std::uint64_t last_read_end = 0;
  std::uint64_t last_write_end = 0;

  for (std::uint64_t i = 0; i < params.requests; ++i) {
    // Poisson arrivals.
    clock_ns += -mean_gap_ns * std::log(1.0 - rng.uniform());
    Request req;
    req.arrival = static_cast<SimTime>(clock_ns);
    req.is_write = !rng.chance(params.read_fraction);

    // Geometric request length.
    std::uint32_t pages = 1;
    while (pages < params.max_request_pages && !rng.chance(geo_p)) ++pages;
    req.pages = pages;

    std::uint64_t& last_end = req.is_write ? last_write_end : last_read_end;
    std::uint64_t lpn = 0;
    if (i > 0 && rng.chance(params.sequential_fraction)) {
      lpn = last_end % params.footprint_pages;
    } else if (!req.is_write ||
               (write_span == 0 || rng.chance(params.read_write_overlap))) {
      lpn = permute(read_zipf.sample(rng), read_mult, 0, read_span);
    } else {
      lpn = read_span + permute(write_zipf.sample(rng), write_mult, 0,
                                write_span);
    }
    // Clamp runs that would spill past the footprint.
    if (lpn + req.pages > params.footprint_pages) {
      lpn = params.footprint_pages - req.pages;
    }
    req.lpn = static_cast<std::uint32_t>(lpn);
    last_end = lpn + req.pages;
    out.push_back(req);
  }
  return out;
}

}  // namespace flex::trace
