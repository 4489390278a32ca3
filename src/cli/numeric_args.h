// Strict parsing of numeric command-line values, shared by the tools:
// the whole string must parse, counts take no sign, and rates must be
// finite and in [0, 1].  std::stoull would wrap "-1" to 2^64 - 1 and
// std::stod would stop at "1e-3junk"; these throw
// std::invalid_argument instead, which the tools report as a usage
// error.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace qpf::cli {

/// Decimal digits only: no sign, no spaces, no trailing text, within
/// 64 bits.
[[nodiscard]] inline std::uint64_t parse_count(std::string_view text) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last) {
    throw std::invalid_argument("not a count: '" + std::string(text) + "'");
  }
  return value;
}

/// A probability: the whole string is one number in [0, 1] (NaN and
/// infinities fail the range test).
[[nodiscard]] inline double parse_rate(std::string_view text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || !(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument("not a rate in [0, 1]: '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace qpf::cli
