// FT's one-dimensional transform, declared here so the test suite can hold
// it against the inline-twiddle form it replaced.
#pragma once

#include <complex>

namespace nas {

/// The longest FFT axis of any class (B's nx).
inline constexpr int kMaxFftLen = 128;

/// In-place iterative radix-2 FFT of length n (power of two, at most
/// kMaxFftLen).  sign = -1 forward, +1 inverse (unnormalized).
void fft1d(std::complex<double>* a, int n, int sign);

}  // namespace nas
