#include "ldpc/encoder.h"

#include "common/assert.h"

namespace flex::ldpc {

Encoder::Encoder(const QcLdpcCode& code) : code_(code) {}

std::vector<std::uint8_t> Encoder::encode(
    std::span<const std::uint8_t> message) const {
  FLEX_EXPECTS(static_cast<int>(message.size()) == code_.k());
  const int z = code_.z();
  const int mb = code_.rows_base();
  const int kb = code_.cols_base() - mb;
  const int first_parity = kb;

  // u[r] = sum over information columns of P^shift * s_col, per block row.
  std::vector<std::vector<std::uint8_t>> u(
      static_cast<std::size_t>(mb),
      std::vector<std::uint8_t>(static_cast<std::size_t>(z), 0));
  for (int r = 0; r < mb; ++r) {
    for (int c = 0; c < kb; ++c) {
      const int s = code_.shift_at(r, c);
      if (s < 0) continue;
      code_.accumulate_circulant(
          message.subspan(static_cast<std::size_t>(c * z),
                          static_cast<std::size_t>(z)),
          s, u[static_cast<std::size_t>(r)]);
    }
  }

  // p0 = sum of all u[r]: the dual-diagonal terms cancel pairwise and the
  // column-0 shifts {1, 0, 1} collapse to P^0.
  std::vector<std::uint8_t> p0(static_cast<std::size_t>(z), 0);
  for (const auto& ur : u) {
    for (int i = 0; i < z; ++i) {
      p0[static_cast<std::size_t>(i)] ^= ur[static_cast<std::size_t>(i)];
    }
  }

  std::vector<std::uint8_t> codeword(static_cast<std::size_t>(code_.n()), 0);
  std::copy(message.begin(), message.end(), codeword.begin());
  auto parity_block = [&](int j) {
    return std::span<std::uint8_t>(codeword).subspan(
        static_cast<std::size_t>((first_parity + j) * z),
        static_cast<std::size_t>(z));
  };
  std::copy(p0.begin(), p0.end(), parity_block(0).begin());

  // Forward substitution: row r gives p_{r+1} = u_r + [col0 at r] + p_r.
  std::vector<std::uint8_t> prev(static_cast<std::size_t>(z), 0);
  for (int r = 0; r + 1 < mb; ++r) {
    std::vector<std::uint8_t> next = u[static_cast<std::size_t>(r)];
    const int s0 = code_.shift_at(r, first_parity);
    if (s0 >= 0) {
      code_.accumulate_circulant(p0, s0, next);
    }
    if (r >= 1) {
      for (int i = 0; i < z; ++i) {
        next[static_cast<std::size_t>(i)] ^= prev[static_cast<std::size_t>(i)];
      }
    }
    std::copy(next.begin(), next.end(), parity_block(r + 1).begin());
    prev = std::move(next);
  }

  FLEX_ENSURES(code_.check(codeword));
  return codeword;
}

}  // namespace flex::ldpc
