// EP's slice tally, declared here so the test suite can hold it against the
// one-pair-at-a-time loop it replaced.
#pragma once

#include <array>
#include <cstdint>

namespace nas {

/// Sums of the Gaussian deviates and their counts in the ten square annuli.
struct EpTally {
  double sx = 0, sy = 0;
  std::array<double, 10> q{};
};

/// Tallies `count` pairs of EP's stream, starting `first` pairs into it.
EpTally ep_slice(std::int64_t first, std::int64_t count);

}  // namespace nas
