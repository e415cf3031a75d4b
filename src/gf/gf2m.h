// Finite field GF(2^m) arithmetic via log/antilog tables.
//
// The BCH codec it served is gone (the paper evaluates only the QC-LDPC
// code); the field stays for now with its tests, and nothing else links
// it. Elements are represented as their polynomial-basis bit patterns in
// [0, 2^m).
#pragma once

#include <cstdint>
#include <vector>

namespace flex::gf {

/// A GF(2^m) field, 2 <= m <= 16, built over a standard primitive
/// polynomial. Construction is O(2^m); all operations are O(1).
class Field {
 public:
  using Element = std::uint32_t;

  explicit Field(int m);

  int m() const { return m_; }
  /// Field size 2^m.
  std::uint32_t size() const { return size_; }
  /// Multiplicative group order 2^m - 1.
  std::uint32_t order() const { return size_ - 1; }
  /// The primitive polynomial used, as a bit pattern including the x^m term.
  std::uint32_t primitive_poly() const { return prim_poly_; }

  static Element add(Element a, Element b) { return a ^ b; }

  Element mul(Element a, Element b) const;
  /// Multiplicative inverse; requires a != 0.
  Element inverse(Element a) const;
  Element div(Element a, Element b) const;
  /// a^k for any integer k (negative exponents use the inverse); 0^0 == 1.
  Element pow(Element a, std::int64_t k) const;
  /// alpha^k where alpha is the primitive element.
  Element alpha_pow(std::int64_t k) const;
  /// Discrete log base alpha; requires a != 0.
  std::uint32_t log(Element a) const;

 private:
  int m_;
  std::uint32_t size_;
  std::uint32_t prim_poly_;
  std::vector<Element> exp_;        // exp_[i] = alpha^i, doubled to skip mod
  std::vector<std::uint32_t> log_;  // log_[a] = i with alpha^i == a
};

}  // namespace flex::gf
