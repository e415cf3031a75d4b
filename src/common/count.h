// The digits-only count rule behind every numeric command-line argument of
// the benches and examples.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <system_error>

namespace flex {

/// Parses a count: decimal digits only, at most `max`. Returns nullopt for
/// anything else (empty, signs, spaces, trailing text, overflow).
inline std::optional<std::uint64_t> parse_count_value(
    const char* text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  // from_chars into an unsigned type takes digits only: no sign, space or
  // base prefix.
  const char* const end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || value > max) return std::nullopt;
  return value;
}

}  // namespace flex
