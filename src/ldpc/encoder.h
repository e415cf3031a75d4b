// Linear-time QC-LDPC encoder exploiting the dual-diagonal parity part.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldpc/qc_code.h"

namespace flex::ldpc {

class Encoder {
 public:
  explicit Encoder(const QcLdpcCode& code);

  /// Systematic encode: `message` has k() bits (one per byte); the returned
  /// codeword is [message | parity], n() bits.
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> message) const;

 private:
  const QcLdpcCode& code_;
};

}  // namespace flex::ldpc
