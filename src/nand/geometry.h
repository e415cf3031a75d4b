// Chip geometry and operation timing (paper Table 6).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace flex::nand {

/// Specification of the simulated MLC NAND part. Defaults reproduce the
/// paper's Table 6; the SSD benches scale `blocks_per_chip` / chip count to
/// keep run times tractable (documented in EXPERIMENTS.md).
struct NandSpec {
  std::uint32_t page_size_bytes = 16 * 1024;    // 16 KB
  std::uint32_t pages_per_block = 64;           // 1 MB block / 16 KB page
  std::uint32_t blocks_per_chip = 4096;         // Table 6 block number
  std::uint32_t chips = 64;                     // 64 x 4 GB = 256 GB raw

  Duration program_latency = 1000 * kMicrosecond;
  Duration read_latency = 90 * kMicrosecond;
  Duration erase_latency = 3 * kMillisecond;

  /// ONFI-style bus transfer time for one full page (used for the soft-read
  /// extra-data transfer penalty); 16 KB at 400 MB/s.
  Duration page_transfer_latency = 40 * kMicrosecond;

  std::uint64_t pages_per_chip() const {
    return static_cast<std::uint64_t>(blocks_per_chip) * pages_per_block;
  }
  std::uint64_t total_pages() const { return pages_per_chip() * chips; }
  std::uint64_t total_bytes() const {
    return total_pages() * page_size_bytes;
  }
};

}  // namespace flex::nand
