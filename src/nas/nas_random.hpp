// The NAS pseudo-random number generator: the 48-bit linear congruential
// scheme  x_{k+1} = a * x_k mod 2^46  used by every NPB kernel, with the
// log-time seed-advance that lets each rank jump straight to its slice of
// the stream.
//
// Seeds and multipliers are integers below 2^46 carried in doubles (the NPB
// interface).  The product is formed exactly in 64-bit unsigned arithmetic:
// the wrap-around multiply keeps the low 64 bits, and the mask keeps the low
// 46 -- the same residue the classic split-double emulation computes.
#pragma once

#include <cstdint>

namespace nas {

inline constexpr double kR46 = 1.0 / 70368744177664.0;     // 2^-46
inline constexpr double kDefaultA = 1220703125.0;          // 5^13

namespace detail {

inline constexpr std::uint64_t kMask46 = (std::uint64_t{1} << 46) - 1;

// Both conversions go through int64_t: every value is below 2^46, and the
// signed conversions are single instructions on x86-64.
inline std::uint64_t to_u46(double v) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}
inline double from_u46(std::uint64_t v) {
  return static_cast<double>(static_cast<std::int64_t>(v));
}
inline std::uint64_t mul46(std::uint64_t x, std::uint64_t a) {
  return (x * a) & kMask46;
}

}  // namespace detail

/// One step: returns a uniform deviate in (0,1) and advances *x.
inline double randlc(double* x, double a) {
  *x = detail::from_u46(detail::mul46(detail::to_u46(*x), detail::to_u46(a)));
  return kR46 * (*x);
}

/// Fills y[0..n) with deviates, advancing *x.
inline void vranlc(int n, double* x, double a, double* y) {
  for (int i = 0; i < n; ++i) y[i] = randlc(x, a);
}

/// Computes a^exp mod 2^46 seed-advance: returns the seed after `exp`
/// applications of randlc with multiplier a, starting from s.
inline double advance_seed(double s, double a, std::int64_t exp) {
  // Square-and-multiply on the multiplier.
  std::uint64_t b = detail::to_u46(s);
  std::uint64_t t = detail::to_u46(a);
  while (exp > 0) {
    if (exp & 1) b = detail::mul46(b, t);
    t = detail::mul46(t, t);
    exp >>= 1;
  }
  return detail::from_u46(b);
}

}  // namespace nas
