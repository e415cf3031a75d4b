#include "ldpc/qc_code.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/assert.h"
#include "common/rng.h"

namespace flex::ldpc {

QcLdpcCode::QcLdpcCode(int rows_base, int cols_base, int z,
                       int info_column_weight, std::uint64_t seed)
    : rows_base_(rows_base), cols_base_(cols_base), z_(z) {
  FLEX_EXPECTS(rows_base >= 2);
  FLEX_EXPECTS(cols_base > rows_base);
  FLEX_EXPECTS(z >= 2);
  FLEX_EXPECTS(info_column_weight >= 2 && info_column_weight <= rows_base);
  base_shift_.assign(static_cast<std::size_t>(rows_base * cols_base), -1);
  build_info_part(info_column_weight, seed);
  build_parity_part();
  collect_entries();
}

QcLdpcCode QcLdpcCode::paper_code() {
  // rate (72-8)/72 = 8/9; k = 64*512 = 32768 bits = 4 KB.
  return QcLdpcCode(8, 72, 512, 4);
}

QcLdpcCode QcLdpcCode::test_code() { return QcLdpcCode(4, 12, 32, 3); }

int QcLdpcCode::shift_at(int base_row, int base_col) const {
  FLEX_EXPECTS(base_row >= 0 && base_row < rows_base_);
  FLEX_EXPECTS(base_col >= 0 && base_col < cols_base_);
  return base_shift_[static_cast<std::size_t>(base_row * cols_base_ +
                                              base_col)];
}

void QcLdpcCode::build_info_part(int info_column_weight, std::uint64_t seed) {
  Rng rng(seed);
  const int info_cols = cols_base_ - rows_base_;
  std::vector<int> rows_pool(static_cast<std::size_t>(rows_base_));
  std::iota(rows_pool.begin(), rows_pool.end(), 0);
  for (int c = 0; c < info_cols; ++c) {
    // Choose `info_column_weight` distinct rows by partial Fisher-Yates,
    // rotating the start so row weights stay balanced.
    for (int i = 0; i < info_column_weight; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.range(i, rows_base_ - 1));
      std::swap(rows_pool[static_cast<std::size_t>(i)], rows_pool[j]);
      const int r = rows_pool[static_cast<std::size_t>(i)];
      base_shift_[static_cast<std::size_t>(r * cols_base_ + c)] =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(z_)));
    }
  }

  // 4-cycle repair: for every column pair sharing two rows, the circulant
  // shifts must not satisfy s(r1,c1)-s(r2,c1) == s(r1,c2)-s(r2,c2) (mod Z).
  auto shift = [&](int r, int c) {
    return base_shift_[static_cast<std::size_t>(r * cols_base_ + c)];
  };
  for (int pass = 0; pass < 32; ++pass) {
    bool any = false;
    for (int c1 = 0; c1 < info_cols; ++c1) {
      for (int c2 = c1 + 1; c2 < info_cols; ++c2) {
        for (int r1 = 0; r1 < rows_base_; ++r1) {
          if (shift(r1, c1) < 0 || shift(r1, c2) < 0) continue;
          for (int r2 = r1 + 1; r2 < rows_base_; ++r2) {
            if (shift(r2, c1) < 0 || shift(r2, c2) < 0) continue;
            const int lhs =
                ((shift(r1, c1) - shift(r2, c1)) % z_ + z_) % z_;
            const int rhs =
                ((shift(r1, c2) - shift(r2, c2)) % z_ + z_) % z_;
            if (lhs == rhs) {
              base_shift_[static_cast<std::size_t>(r1 * cols_base_ + c2)] =
                  static_cast<int>(rng.below(static_cast<std::uint64_t>(z_)));
              any = true;
            }
          }
        }
      }
    }
    if (!any) break;
  }
}

void QcLdpcCode::build_parity_part() {
  const int first_parity = cols_base_ - rows_base_;
  const int special_row = rows_base_ / 2;
  // Column 0 of the parity part: shifts {1, ..., 0 at special_row, ..., 1}.
  // Summing all block rows then cancels everything except P^0 * p0, which
  // gives the linear-time encoder its starting point.
  auto set = [&](int r, int c, int s) {
    base_shift_[static_cast<std::size_t>(r * cols_base_ + c)] = s;
  };
  set(0, first_parity, 1 % z_);
  set(special_row, first_parity, 0);
  set(rows_base_ - 1, first_parity, 1 % z_);
  // Dual diagonal: parity column j (j >= 1) pairs rows j-1 and j, shift 0.
  for (int j = 1; j < rows_base_; ++j) {
    set(j - 1, first_parity + j, 0);
    set(j, first_parity + j, 0);
  }
}

void QcLdpcCode::collect_entries() {
  entries_.clear();
  for (int r = 0; r < rows_base_; ++r) {
    for (int c = 0; c < cols_base_; ++c) {
      const int s = base_shift_[static_cast<std::size_t>(r * cols_base_ + c)];
      if (s >= 0) entries_.push_back({.row = r, .col = c, .shift = s});
    }
  }
}

namespace {

// dst[i] ^= src[i] for i < len, eight bytes per step.
void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t len) {
  std::size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < len; ++i) dst[i] ^= src[i];
}

}  // namespace

void QcLdpcCode::accumulate_circulant(std::span<const std::uint8_t> block,
                                      int shift,
                                      std::span<std::uint8_t> acc) const {
  FLEX_EXPECTS(static_cast<int>(block.size()) == z_ &&
               static_cast<int>(acc.size()) == z_);
  FLEX_EXPECTS(shift >= 0 && shift < z_);
  // Rows [0, Z - shift) read bits [shift, Z); the rest wrap to [0, shift).
  const auto z = static_cast<std::size_t>(z_);
  const auto s = static_cast<std::size_t>(shift);
  xor_into(acc.data(), block.data() + s, z - s);
  xor_into(acc.data() + (z - s), block.data(), s);
}

bool QcLdpcCode::check(std::span<const std::uint8_t> word) const {
  FLEX_EXPECTS(static_cast<int>(word.size()) == n());
  const auto z = static_cast<std::size_t>(z_);
  // Per layer (base row): XOR every circulant's block, in check-row order,
  // into one Z-byte parity vector.
  std::vector<std::uint8_t> parity(z);
  auto e = entries_.begin();
  for (int r = 0; r < rows_base_; ++r) {
    std::fill(parity.begin(), parity.end(), 0);
    for (; e != entries_.end() && e->row == r; ++e) {
      accumulate_circulant(
          word.subspan(static_cast<std::size_t>(e->col) * z, z), e->shift,
          parity);
    }
    std::uint8_t odd = 0;
    for (const std::uint8_t p : parity) odd |= p;
    if (odd & 1) return false;
  }
  return true;
}

int QcLdpcCode::residual_four_cycles() const {
  auto shift = [&](int r, int c) {
    return base_shift_[static_cast<std::size_t>(r * cols_base_ + c)];
  };
  const int info_cols = cols_base_ - rows_base_;
  int count = 0;
  for (int c1 = 0; c1 < info_cols; ++c1) {
    for (int c2 = c1 + 1; c2 < info_cols; ++c2) {
      for (int r1 = 0; r1 < rows_base_; ++r1) {
        if (shift(r1, c1) < 0 || shift(r1, c2) < 0) continue;
        for (int r2 = r1 + 1; r2 < rows_base_; ++r2) {
          if (shift(r2, c1) < 0 || shift(r2, c2) < 0) continue;
          const int lhs = ((shift(r1, c1) - shift(r2, c1)) % z_ + z_) % z_;
          const int rhs = ((shift(r1, c2) - shift(r2, c2)) % z_ + z_) % z_;
          if (lhs == rhs) ++count;
        }
      }
    }
  }
  return count;
}

}  // namespace flex::ldpc
