// Deterministic synthetic page payloads for the end-to-end integrity
// layer.
//
// Carrying real page buffers through the simulator would cost
// page_size bytes per physical page for data whose only purpose is to
// be checksummed. Instead, every payload is a pure function of
// (model seed, lpn, version): a splitmix64-seeded word stream,
// serialized little-endian. A page's bytes are then fully determined
// by its logical identity, so the FTL stores only which identity a
// physical page *actually* holds (O(1) per page) while the CRC64 seal
// covers the exact bytes the generator would produce — byte-checkable
// without byte-storage. The crash harness and the array's read-repair
// regenerate expected bytes the same way and compare checksums.
#pragma once

#include <cstdint>
#include <vector>

#include "common/crc64.h"

namespace flex::ftl {

class PayloadModel {
 public:
  /// `words` 8-byte words of payload per page (the modeled page body).
  PayloadModel(std::uint64_t seed, std::uint32_t words)
      : seed_(seed), words_(words) {}

  std::uint32_t words() const { return words_; }

  /// The payload bytes of generation `version` of `lpn`, little-endian
  /// serialized (what a real host would have written).
  std::vector<std::uint8_t> generate(std::uint64_t lpn,
                                     std::uint64_t version) const;

  /// CRC64 of generate(lpn, version), computed without materialising the
  /// page: each generated word is folded straight into the CRC state
  /// (crc64_fold) — the hot-path form every seal and read-back
  /// verification uses.
  std::uint64_t crc(std::uint64_t lpn, std::uint64_t version) const;

 private:
  std::uint64_t seed_;
  std::uint32_t words_;
};

}  // namespace flex::ftl
