#include "ldpc/qc_code.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace flex::ldpc {
namespace {

// The expanded parity-check rows, each a sorted column list, built from
// the circulants by the expansion rule base_entries() documents.
std::vector<std::vector<int>> expanded_rows(const QcLdpcCode& code) {
  std::vector<std::vector<int>> rows(static_cast<std::size_t>(code.m()));
  const int z = code.z();
  for (const auto& e : code.base_entries()) {
    for (int i = 0; i < z; ++i) {
      rows[static_cast<std::size_t>(e.row * z + i)].push_back(
          e.col * z + (i + e.shift) % z);
    }
  }
  for (auto& row : rows) std::sort(row.begin(), row.end());
  return rows;
}

TEST(QcCodeTest, TestCodeDimensions) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  EXPECT_EQ(code.n(), 384);
  EXPECT_EQ(code.k(), 256);
  EXPECT_EQ(code.m(), 128);
  EXPECT_NEAR(code.rate(), 2.0 / 3.0, 1e-12);
}

TEST(QcCodeTest, PaperCodeIsRate89Over4KB) {
  const QcLdpcCode code = QcLdpcCode::paper_code();
  EXPECT_EQ(code.k(), 4 * 1024 * 8);  // one 4 KB block
  EXPECT_EQ(code.n(), 36864);
  EXPECT_NEAR(code.rate(), 8.0 / 9.0, 1e-12);
}

TEST(QcCodeTest, NoResidualFourCycles) {
  EXPECT_EQ(QcLdpcCode::test_code().residual_four_cycles(), 0);
  EXPECT_EQ(QcLdpcCode::paper_code().residual_four_cycles(), 0);
}

TEST(QcCodeTest, RowAdjacencyCoversAllChecks) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  const auto rows = expanded_rows(code);
  ASSERT_EQ(static_cast<int>(rows.size()), code.m());
  for (const auto& row : rows) {
    EXPECT_GE(row.size(), 2u);  // every check touches at least two bits
    for (const auto col : row) {
      EXPECT_GE(col, 0);
      EXPECT_LT(col, code.n());
    }
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end());
  }
}

TEST(QcCodeTest, InfoColumnWeightAsConfigured) {
  const QcLdpcCode code(4, 12, 16, 3, /*seed=*/99);
  std::vector<int> column_weight(static_cast<std::size_t>(code.n()), 0);
  for (const auto& row : expanded_rows(code)) {
    for (const auto col : row) ++column_weight[static_cast<std::size_t>(col)];
  }
  for (int c = 0; c < code.k(); ++c) {
    EXPECT_EQ(column_weight[static_cast<std::size_t>(c)], 3) << "col " << c;
  }
}

TEST(QcCodeTest, ZeroWordIsCodeword) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  const std::vector<std::uint8_t> zero(static_cast<std::size_t>(code.n()), 0);
  EXPECT_TRUE(code.check(zero));
}

TEST(QcCodeTest, RandomWordAlmostNeverCodeword) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  std::vector<std::uint8_t> word(static_cast<std::size_t>(code.n()), 0);
  word[3] = 1;  // single one violates the checks covering column 3
  EXPECT_FALSE(code.check(word));
}

TEST(QcCodeTest, DifferentSeedsDifferentCodes) {
  const QcLdpcCode a(4, 12, 16, 3, 1);
  const QcLdpcCode b(4, 12, 16, 3, 2);
  bool any_difference = false;
  for (int r = 0; r < 4 && !any_difference; ++r) {
    for (int c = 0; c < 8 && !any_difference; ++c) {
      if (a.shift_at(r, c) != b.shift_at(r, c)) any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(QcCodeTest, SameSeedReproducible) {
  const QcLdpcCode a(4, 12, 16, 3, 7);
  const QcLdpcCode b(4, 12, 16, 3, 7);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 12; ++c) {
      EXPECT_EQ(a.shift_at(r, c), b.shift_at(r, c));
    }
  }
}

TEST(QcCodeTest, ParityPartIsDualDiagonal) {
  const QcLdpcCode code = QcLdpcCode::test_code();
  const int kb = code.cols_base() - code.rows_base();
  for (int j = 1; j < code.rows_base(); ++j) {
    EXPECT_EQ(code.shift_at(j - 1, kb + j), 0);
    EXPECT_EQ(code.shift_at(j, kb + j), 0);
  }
  // First parity column: entries at rows {0, mid, last}.
  EXPECT_GE(code.shift_at(0, kb), 0);
  EXPECT_EQ(code.shift_at(code.rows_base() / 2, kb), 0);
  EXPECT_GE(code.shift_at(code.rows_base() - 1, kb), 0);
}

}  // namespace
}  // namespace flex::ldpc
