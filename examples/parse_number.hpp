#pragma once
// Strict numeric command-line values, shared by the example programs.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>

namespace multihit::cli {

/// `text` as one whole base-10 integer in [lo, hi]: no sign the type cannot
/// hold, no surrounding space, no trailing characters. Anything else prints
/// "<flag>: expected an integer in [lo, hi], got '<text>'" to stderr and
/// returns nullopt, so the caller can exit as a usage error before any work.
template <typename T>
std::optional<T> parse_number(std::string_view flag, std::string_view text,
                              T lo = std::numeric_limits<T>::min(),
                              T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc() && end == last && value >= lo && value <= hi) return value;
  std::cerr << flag << ": expected an integer in [" << lo << ", " << hi << "], got '" << text
            << "'\n";
  return std::nullopt;
}

/// `text` as one whole finite decimal number (std::from_chars: no '+', no
/// surrounding space, no trailing characters, no inf or nan) in [lo, hi],
/// or in (lo, hi] when `open_lo`. Anything else prints
/// "<flag>: expected a number in [lo, hi], got '<text>'" to stderr and
/// returns nullopt.
inline std::optional<double> parse_real(std::string_view flag, std::string_view text,
                                        double lo, bool open_lo = false,
                                        double hi = std::numeric_limits<double>::infinity()) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc() && end == last && std::isfinite(value) &&
      (open_lo ? value > lo : value >= lo) && value <= hi) {
    return value;
  }
  std::cerr << flag << ": expected a number in " << (open_lo ? '(' : '[') << lo << ", " << hi
            << (std::isinf(hi) ? ')' : ']') << ", got '" << text << "'\n";
  return std::nullopt;
}

}  // namespace multihit::cli
