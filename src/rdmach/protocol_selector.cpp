#include "rdmach/protocol_selector.hpp"

#include <bit>

#include "rdmach/channel.hpp"

namespace rdmach {

int ProtocolSelector::bucket(std::size_t len) {
  const int b = len == 0 ? 0 : std::bit_width(len) - 1;
  return b < kBuckets ? b : kBuckets - 1;
}

ProtocolSelector::Proto ProtocolSelector::best(const Bucket& b,
                                               std::size_t len) const {
  // With both arms sampled and one clearly ahead the EWMA decides;
  // one-sided data, empty data, or a within-margin race falls back to the
  // static boundary (probing is what fills the missing arm).
  if (b.write.n > 0 && b.read.n > 0) {
    if (b.write.mbps > b.read.mbps * kHysteresis) return Proto::kWrite;
    if (b.read.mbps > b.write.mbps * kHysteresis) return Proto::kRead;
  }
  return len >= cfg_.read_min ? Proto::kRead : Proto::kWrite;
}

ProtocolSelector::Proto ProtocolSelector::choose(std::size_t len) {
  if (len < cfg_.eager_max) return Proto::kEager;
  Bucket& b = buckets_[static_cast<std::size_t>(bucket(len))];
  ++b.decisions;
  if (cfg_.probe_interval > 0 &&
      b.decisions % static_cast<std::uint64_t>(cfg_.probe_interval) == 0) {
    // Deterministic exploration: measure the protocol with fewer samples.
    return b.write.n <= b.read.n ? Proto::kWrite : Proto::kRead;
  }
  return best(b, len);
}

ProtocolSelector::Proto ProtocolSelector::decision(std::size_t len) const {
  if (len < cfg_.eager_max) return Proto::kEager;
  return best(buckets_[static_cast<std::size_t>(bucket(len))], len);
}

void ProtocolSelector::record(Proto p, std::size_t len, std::uint64_t bytes,
                              double elapsed_usec, unsigned concurrency) {
  if (p == Proto::kEager || elapsed_usec <= 0.0) return;
  Arm& a = p == Proto::kWrite
               ? buckets_[static_cast<std::size_t>(bucket(len))].write
               : buckets_[static_cast<std::size_t>(bucket(len))].read;
  const double service =
      elapsed_usec / static_cast<double>(concurrency == 0 ? 1 : concurrency);
  const double mbps = static_cast<double>(bytes) / service;  // B/us==MB/s
  a.mbps = a.n == 0 ? mbps
                    : (1.0 - kSelectorAlpha) * a.mbps + kSelectorAlpha * mbps;
  ++a.n;
}

std::size_t ProtocolSelector::write_read_crossover() const {
  for (std::size_t sz = cfg_.eager_max ? cfg_.eager_max : 1; sz != 0;
       sz <<= 1) {
    if (decision(sz) == Proto::kRead) return sz;
    if (sz > (std::size_t{1} << 40)) break;  // beyond any real message
  }
  return std::size_t{1} << 40;  // write wins everywhere measured
}

void ProtocolSelector::record_rail(int rail, std::uint64_t bytes,
                                   double elapsed_usec) {
  if (rail < 0 || elapsed_usec <= 0.0) return;
  if (static_cast<std::size_t>(rail) >= rails_.size()) {
    rails_.resize(static_cast<std::size_t>(rail) + 1);
  }
  Arm& a = rails_[static_cast<std::size_t>(rail)];
  const double mbps = static_cast<double>(bytes) / elapsed_usec;  // B/us==MB/s
  a.mbps = a.n == 0 ? mbps
                    : (1.0 - kSelectorAlpha) * a.mbps + kSelectorAlpha * mbps;
  ++a.n;
}

double ProtocolSelector::rail_mbps(int rail) const {
  if (rail < 0 || static_cast<std::size_t>(rail) >= rails_.size()) return 0.0;
  const Arm& a = rails_[static_cast<std::size_t>(rail)];
  return a.n > 0 ? a.mbps : 0.0;
}

double ProtocolSelector::rail_weight(int rail) const {
  const double own = rail_mbps(rail);
  if (own > 0.0) return own;
  double best = 0.0;
  for (const Arm& a : rails_) {
    if (a.n > 0 && a.mbps > best) best = a.mbps;
  }
  return best > 0.0 ? best : 1.0;
}

double ProtocolSelector::peak_mbps(Proto p) const {
  double best = 0.0;
  for (const Bucket& b : buckets_) {
    const Arm& a = p == Proto::kWrite ? b.write : b.read;
    if (a.n > 0 && a.mbps > best) best = a.mbps;
  }
  return best;
}

}  // namespace rdmach
