// Strict parsing of command-line values, shared by every tool: the
// whole string must parse, counts take no sign, rates must be in
// [0, 1] and reals finite.  std::stoull would wrap "-1" to 2^64 - 1 and
// read "0x10" as 0, and std::stod would stop at "1e-3junk"; these throw
// std::invalid_argument instead, which the tools report as a usage
// error (exit 2 with the usage text).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace qpf::cli {

/// True when `argument` is `prefix` followed by a value, which is then
/// stored in `value` ("--seed=" + "7").
inline bool consume_prefix(std::string_view argument, std::string_view prefix,
                           std::string& value) {
  if (argument.substr(0, prefix.size()) != prefix) {
    return false;
  }
  value = argument.substr(prefix.size());
  return true;
}

/// The largest thread count a flag may ask for: every --jobs, qpf_serve
/// --threads and qpf_serve_load --sessions (one thread per session).
/// It equals qpf_serve's default --max-sessions.  Parsing rejects a
/// larger count before any pool, server or connection exists.
inline constexpr std::uint64_t kMaxThreads = 1024;

/// Decimal digits only: no sign, no spaces, no trailing text, at most
/// `max` (a port passes 65535, a thread count kMaxThreads).
[[nodiscard]] inline std::uint64_t parse_count(
    std::string_view text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || value > max) {
    throw std::invalid_argument(
        (max == std::numeric_limits<std::uint64_t>::max()
             ? std::string("not a count")
             : "not a count up to " + std::to_string(max)) +
        ": '" + std::string(text) + "'");
  }
  return value;
}

/// A finite real number: the whole string is one number, neither NaN
/// nor infinite.
[[nodiscard]] inline double parse_real(std::string_view text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || !std::isfinite(value)) {
    throw std::invalid_argument("not a finite number: '" + std::string(text) +
                                "'");
  }
  return value;
}

/// A probability: a finite real in [0, 1].
[[nodiscard]] inline double parse_rate(std::string_view text) {
  const double value = parse_real(text);
  if (!(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument("not a rate in [0, 1]: '" +
                                std::string(text) + "'");
  }
  return value;
}

}  // namespace qpf::cli
