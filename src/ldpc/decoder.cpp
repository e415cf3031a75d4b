#include "ldpc/decoder.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "common/assert.h"

namespace flex::ldpc {
namespace {

// Four-lane vectors in the GCC/Clang `vector_size` extension: plain IEEE
// single-precision lanes (no intrinsics, no -march), so every lane computes
// exactly what the scalar expression would on any target.
constexpr std::size_t kLanes = 4;
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));

F4 load(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, F4 v) { std::memcpy(p, &v, sizeof v); }

I4 bits_of(F4 v) { return std::bit_cast<I4>(v); }
F4 float_of(I4 v) { return std::bit_cast<F4>(v); }

// Lane-wise `mask ? a : b` for all-ones / all-zero mask lanes.
I4 select(I4 mask, I4 a, I4 b) { return (mask & a) | (~mask & b); }
F4 select(I4 mask, F4 a, F4 b) {
  return float_of(select(mask, bits_of(a), bits_of(b)));
}

constexpr std::int32_t kSignBit = std::numeric_limits<std::int32_t>::min();

// Circulant P^shift connects check row i of its layer to bit
// (i + shift) mod Z of its block column (QcLdpcCode's expansion rule), so a
// block read in row order is two contiguous ranges.
void load_rotated(const float* block, std::size_t z, std::size_t shift,
                  float* rows) {
  std::memcpy(rows, block + shift, (z - shift) * sizeof(float));
  std::memcpy(rows + (z - shift), block, shift * sizeof(float));
}

void store_rotated(const float* rows, std::size_t z, std::size_t shift,
                   float* block) {
  std::memcpy(block + shift, rows, (z - shift) * sizeof(float));
  std::memcpy(block, rows + (z - shift), shift * sizeof(float));
}

}  // namespace

Decoder::Decoder(const QcLdpcCode& code) : Decoder(code, Options{}) {}

Decoder::Decoder(const QcLdpcCode& code, Options options)
    : code_(code), options_(options) {
  FLEX_EXPECTS(options_.max_iterations >= 1);
  FLEX_EXPECTS(options_.normalization > 0.0f && options_.normalization <= 1.0f);
  FLEX_EXPECTS(code_.z() % static_cast<int>(kLanes) == 0);
  // base_entries() is row-major, so each layer is one contiguous run.
  const auto& entries = code_.base_entries();
  layer_begin_.push_back(0);
  for (int r = 0; r < code_.rows_base(); ++r) {
    std::size_t end = layer_begin_.back();
    while (end < entries.size() && entries[end].row == r) ++end;
    max_layer_degree_ = std::max(max_layer_degree_, end - layer_begin_.back());
    layer_begin_.push_back(end);
  }
  FLEX_ENSURES(layer_begin_.back() == entries.size());
}

DecodeResult Decoder::decode(std::span<const float> llr) const {
  FLEX_EXPECTS(static_cast<int>(llr.size()) == code_.n());
  const auto n = static_cast<std::size_t>(code_.n());
  const auto z = static_cast<std::size_t>(code_.z());
  const auto& entries = code_.base_entries();

  std::vector<float> posterior(llr.begin(), llr.end());
  // One Z-float check-message block per circulant, indexed like entries.
  std::vector<float> check_msg(entries.size() * z, 0.0f);
  // The current layer's posteriors in check-row order, one Z block per
  // circulant: extrinsics after the first pass, posteriors after the second.
  std::vector<float> layer(max_layer_degree_ * z);
  // Per-check-row state of the current layer, kLanes rows per element:
  // min-sum's two smallest magnitudes, the first minimum's edge and the
  // sign parity; sum-product's phi sums and sign parities.
  const std::size_t groups = z / kLanes;
  std::vector<F4> min1(groups);
  std::vector<F4> min2(groups);
  std::vector<I4> min1_edge(groups);
  std::vector<I4> parity(groups);
  std::vector<float> phi_sum(z);
  std::vector<std::uint8_t> sign_bits(z);

  DecodeResult result;
  result.bits.assign(n, 0);
  auto satisfied = [&]() {
    for (std::size_t i = 0; i < n; ++i) {
      result.bits[i] = posterior[i] < 0.0f ? 1 : 0;
    }
    return code_.check(result.bits);
  };

  // phi(x) = -log(tanh(x/2)), its own inverse; the numerically robust form
  // of the sum-product check update. Inputs are clamped away from 0 and
  // infinity so the transform stays finite.
  const auto phi = [](float x) {
    const float clamped = std::clamp(x, 1e-6f, 30.0f);
    return -std::log(std::tanh(clamped * 0.5f));
  };

  const F4 normalization = F4{} + options_.normalization;
  const I4 sign_bit = I4{} + kSignBit;

  int iter = 0;
  bool ok = satisfied();
  while (!ok && iter < options_.max_iterations) {
    ++iter;
    // Layered schedule: each layer consumes the freshest posteriors, which
    // roughly halves the iterations flooding would need. Within a layer,
    // edge j of every check row is circulant j, in column order.
    for (std::size_t l = 0; l + 1 < layer_begin_.size(); ++l) {
      const std::size_t first = layer_begin_[l];
      const std::size_t degree = layer_begin_[l + 1] - first;
      for (std::size_t j = 0; j < degree; ++j) {
        const BaseEntry& e = entries[first + j];
        load_rotated(posterior.data() + static_cast<std::size_t>(e.col) * z,
                     z, static_cast<std::size_t>(e.shift),
                     layer.data() + j * z);
      }
      float* const msg = check_msg.data() + first * z;

      if (options_.algorithm == Algorithm::kSumProduct) {
        // Exact belief propagation via the phi transform: the outgoing
        // magnitude is phi(sum of phi over the other edges).
        std::fill(phi_sum.begin(), phi_sum.end(), 0.0f);
        std::fill(sign_bits.begin(), sign_bits.end(), 0);
        for (std::size_t j = 0; j < degree; ++j) {
          for (std::size_t i = 0; i < z; ++i) {
            const std::size_t k = j * z + i;
            const float extrinsic = layer[k] - msg[k];
            layer[k] = extrinsic;
            if (extrinsic < 0.0f) sign_bits[i] ^= 1u;
            phi_sum[i] += phi(std::fabs(extrinsic));
          }
        }
        for (std::size_t j = 0; j < degree; ++j) {
          for (std::size_t i = 0; i < z; ++i) {
            const std::size_t k = j * z + i;
            const float extrinsic = layer[k];
            const float mag = phi(phi_sum[i] - phi(std::fabs(extrinsic)));
            const bool negative =
                ((sign_bits[i] ^ (extrinsic < 0.0f ? 1u : 0u)) & 1u) != 0;
            const float m = negative ? -mag : mag;
            msg[k] = m;
            layer[k] = extrinsic + m;
          }
        }
      } else {
        // Normalized min-sum, kLanes check rows per vector. Each pass walks
        // the layer circulant by circulant, so every stream is contiguous.
        std::fill(min1.begin(), min1.end(),
                  F4{} + std::numeric_limits<float>::max());
        std::fill(min2.begin(), min2.end(),
                  F4{} + std::numeric_limits<float>::max());
        std::fill(min1_edge.begin(), min1_edge.end(), I4{});
        std::fill(parity.begin(), parity.end(), I4{});
        for (std::size_t j = 0; j < degree; ++j) {
          const I4 edge = I4{} + static_cast<std::int32_t>(j);
          for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t k = j * z + g * kLanes;
            const F4 extrinsic = load(&layer[k]) - load(&msg[k]);
            store(&layer[k], extrinsic);
            const F4 mag = float_of(bits_of(extrinsic) & ~sign_bit);
            parity[g] ^= extrinsic < F4{};
            // Strict `<` keeps the first of equal minima, as a scalar
            // row walk would.
            const I4 below1 = mag < min1[g];
            const I4 below2 = mag < min2[g];
            min2[g] = select(below1, min1[g], select(below2, mag, min2[g]));
            min1[g] = select(below1, mag, min1[g]);
            min1_edge[g] = select(below1, edge, min1_edge[g]);
          }
        }
        for (std::size_t j = 0; j < degree; ++j) {
          const I4 edge = I4{} + static_cast<std::int32_t>(j);
          for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t k = j * z + g * kLanes;
            const F4 extrinsic = load(&layer[k]);
            const F4 mag = select(min1_edge[g] == edge, min2[g], min1[g]);
            const I4 negative = parity[g] ^ (extrinsic < F4{});
            // Negation is a sign-bit flip, bit-exact with `-mag`.
            const F4 m =
                normalization * float_of(bits_of(mag) ^ (negative & sign_bit));
            store(&msg[k], m);
            store(&layer[k], extrinsic + m);
          }
        }
      }

      for (std::size_t j = 0; j < degree; ++j) {
        const BaseEntry& e = entries[first + j];
        store_rotated(layer.data() + j * z, z,
                      static_cast<std::size_t>(e.shift),
                      posterior.data() + static_cast<std::size_t>(e.col) * z);
      }
    }
    ok = satisfied();
  }

  result.success = ok;
  result.iterations = iter;
  result.posterior = std::move(posterior);
  return result;
}

}  // namespace flex::ldpc
