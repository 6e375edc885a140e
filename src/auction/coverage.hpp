// The single-task family's one coverage predicate (DESIGN.md §8): "does this
// user set meet the PoS requirement?" decided on exact integers.
//
// A contribution q = -ln(1 - p) becomes an Amount, floor(q · 2^F) with
// F = 40, and a requirement Q becomes the threshold
//     T = ceil((Q - 1e-9·max(1, Q)) · 2^F), at least 1.
// A set covers the task iff its saturating Amount sum reaches T. For a <= Q,
// common::approx_ge(a, Q) is exactly a >= Q - 1e-9·max(1, Q), so applying the
// tolerance once, to the threshold, keeps the double predicate: exact-math
// boundaries (two PoS-0.5 users against a 0.75 requirement) stay covered, and
// only sums within n·2^-F of the tolerance edge can decide differently. The
// floor of one unit keeps the empty set from covering a positive requirement.
//
// Integer sums are associative, so every solver, every summation order, and
// every probe of the critical-bid search sees the same total for the same
// set — no solver needs an error band to agree with another. Rounding down is
// monotone, so "wins" stays monotone in the declared contribution (Lemma 1).
//
// Overflow: a finite q is at most -ln(2^-53) < 37, i.e. < 2^46 units, and
// T < 2^46 too. Sums saturate at kSaturated < 2^62 instead of wrapping, so
// any n is safe; a saturated sum is far above every threshold, which keeps
// saturation from ever turning a cover into a non-cover. A declared PoS of 1
// (q = +inf) quantizes to kSaturated.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/math.hpp"

namespace mcs::auction::coverage {

/// A contribution in fixed point: units of 2^-kFractionBits.
using Amount = std::int64_t;

inline constexpr int kFractionBits = 40;
/// Amounts and their sums saturate here. Two saturated values still add
/// without overflow (2·kSaturated < 2^63), so add() needs no branch.
inline constexpr Amount kSaturated = (Amount{1} << 62) - 1;

namespace detail {
/// A whole number of units as an Amount, saturating. NaN (only an invalid,
/// unvalidated PoS produces one) maps to 0 rather than to undefined behaviour.
inline Amount saturate(double units) {
  if (std::isnan(units)) {
    return 0;
  }
  return units >= static_cast<double>(kSaturated) ? kSaturated : static_cast<Amount>(units);
}
}  // namespace detail

/// floor(q · 2^F) for q >= 0, saturating (q = +inf included).
inline Amount quantize(double q) {
  return detail::saturate(std::floor(std::ldexp(q, kFractionBits)));
}

/// Saturating sum of two amounts in [0, kSaturated]. On that range it is
/// min(a + b, kSaturated), which is associative and commutative.
inline Amount add(Amount a, Amount b) { return std::min(a + b, kSaturated); }

/// The integer requirement T for a requirement contribution Q > 0
/// (saturated for Q = +inf: only a certain user covers a certain task).
inline Amount threshold(double requirement) {
  if (std::isinf(requirement)) {
    return kSaturated;
  }
  const double tolerant = requirement - common::kDefaultEps * std::max(1.0, requirement);
  return std::max<Amount>(1, detail::saturate(std::ceil(std::ldexp(tolerant, kFractionBits))));
}

}  // namespace mcs::auction::coverage
