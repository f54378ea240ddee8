// Numeric flag values for the command-line tools. A value is read whole:
// "5x", "abc", "" and out-of-range numbers are rejected rather than read as
// a prefix or as 0, so a typo cannot silently turn a gate off.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace rabit::tools {

/// The value of numeric flag `flag`: all of `text` must parse as a T in
/// [lo, hi] (finite, for a floating-point T). Anything else prints the flag
/// and exits 2, the tools' usage-error status.
template <typename T>
T number_flag(const std::string& flag, std::string_view text,
              T lo = std::numeric_limits<T>::lowest(), T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  auto [stop, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && stop == end && value >= lo && value <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "error: %s: invalid value '%.*s'\n", flag.c_str(),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

}  // namespace rabit::tools
