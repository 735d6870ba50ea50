// IS's sizes and its bucket-owner map, declared here so the test suite can
// hold the map against the division it replaced.
#pragma once

#include <algorithm>
#include <cstdint>

#include "nas/nas.hpp"

namespace nas {

struct IsConfig {
  std::int64_t total_keys;
  int max_key;  // keys are in [0, max_key)
  int iterations;
};

IsConfig is_config(Class c);

/// The rank whose bucket holds `key`: min(key / (max_key / p), p - 1).
/// The division by d = max_key / p is a multiply by floor(2^40 / d) + 1 and
/// a shift, exact while key * d < 2^40 (every class's keys are below 2^16).
class BucketOwner {
 public:
  BucketOwner(int max_key, int p)
      : mul_((std::uint64_t{1} << kShift) /
                 static_cast<std::uint64_t>(max_key / p) +
             1),
        last_(p - 1) {}

  int operator()(int key) const {
    return std::min(
        static_cast<int>((static_cast<std::uint64_t>(key) * mul_) >> kShift),
        last_);
  }

 private:
  static constexpr int kShift = 40;
  std::uint64_t mul_;
  int last_;
};

}  // namespace nas
