// Saturating float-to-integer conversion.
//
// Converting a double outside an integer type's range is undefined
// behaviour (x86 yields the type's minimum), so counts derived from
// floating-point quotients, which grow without bound as a divisor nears
// zero, go through saturating_ceil: a count too large for the type reads as
// its maximum, "too many", never as a wrapped or negative count.
#pragma once

#include <cmath>
#include <limits>

namespace cynthia::util {

/// ceil(x) as an `Int`, saturating at the type's limits; NaN reads as the
/// maximum.
template <class Int>
[[nodiscard]] Int saturating_ceil(double x) {
  constexpr Int kMax = std::numeric_limits<Int>::max();
  constexpr Int kMin = std::numeric_limits<Int>::min();
  const double c = std::ceil(x);
  if (!(c < static_cast<double>(kMax))) return kMax;
  return c > static_cast<double>(kMin) ? static_cast<Int>(c) : kMin;
}

}  // namespace cynthia::util
