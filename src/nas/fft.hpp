// FT's one-dimensional transforms and its round-trip error reduction,
// declared here so the test suite can hold them against the forms they
// replaced.
#pragma once

#include <complex>
#include <cstddef>

namespace nas {

/// The longest FFT axis of any class (B's nx).
inline constexpr int kMaxFftLen = 128;

/// In-place iterative radix-2 FFT of length n (power of two, at most
/// kMaxFftLen).  sign = -1 forward, +1 inverse (unnormalized).
void fft1d(std::complex<double>* a, int n, int sign);

/// fft1d on `lanes` interleaved lines at once: element j of line l is
/// a[j * lanes + l], so a z-plane's y lines are its x lanes.  Each line
/// gets exactly fft1d's operations in fft1d's order.
void fft1d_lanes(std::complex<double>* a, int n, int lanes, int sign);

/// The largest std::abs(a[i] - b[i]) over i < n, bit for bit, calling
/// std::abs only where a point's squared norm could raise the maximum.
double max_abs_diff(const std::complex<double>* a,
                    const std::complex<double>* b, std::size_t n);

}  // namespace nas
