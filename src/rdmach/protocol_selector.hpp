// Online rendezvous-protocol selector for the adaptive channel.
//
// The engine starts from static size thresholds (eager below the zero-copy
// threshold, RDMA-write rendezvous in the mid band, chunked RDMA-read
// pipeline above rndv_read_threshold) and then tunes the write/read
// crossover from observed goodput: every completed rendezvous reports
// (protocol, message length, elapsed virtual time), which feeds a per-
// protocol EWMA in log2 size buckets.  choose() picks the protocol whose
// EWMA goodput leads in the message's bucket, with a deterministic probe of
// the under-sampled protocol every Nth rendezvous so a protocol that fell
// behind keeps getting fresh measurements.  Everything is integer/EWMA
// state -- no wall clock, no randomness -- so decisions are reproducible in
// the deterministic simulation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rdmach {

class ProtocolSelector {
 public:
  enum class Proto { kEager, kWrite, kRead };

  struct Config {
    std::size_t eager_max = 32 * 1024;      // below: eager
    std::size_t read_min = 64 * 1024;       // static write/read boundary
    int probe_interval = 32;                // 0 = never probe
  };

  explicit ProtocolSelector(const Config& cfg) : cfg_(cfg) {}

  /// Decides the protocol for a `len`-byte message and counts the decision
  /// toward the bucket's probe cadence.
  Proto choose(std::size_t len);

  /// Same decision without mutating probe state (for inspection/tests).
  Proto decision(std::size_t len) const;

  /// Reports a completed rendezvous: `bytes` moved in `elapsed_usec` of
  /// virtual time (RTS posted to ack received).  `concurrency` is how many
  /// rendezvous were in flight when this one started (itself included):
  /// under pipelining the raw elapsed time is mostly queueing behind the
  /// others, so the sample is normalized to elapsed/concurrency -- an
  /// estimate of the per-message service time -- before entering the EWMA.
  void record(Proto p, std::size_t len, std::uint64_t bytes,
              double elapsed_usec, unsigned concurrency = 1);

  /// Smallest message size at which decision() currently says kRead; sizes
  /// below it (and >= eager_max) go to the write path.  This is the learned
  /// crossover surfaced in ChannelStats.
  std::size_t write_read_crossover() const;

  /// Best EWMA goodput of `p` across all size buckets (0 when unsampled);
  /// the representative per-protocol figure surfaced in ChannelStats.
  double peak_mbps(Proto p) const;
  std::size_t eager_max() const noexcept { return cfg_.eager_max; }

  // ---- per-rail goodput (multi-rail striping) -----------------------------
  /// Reports one completed stripe chunk on `rail`: `bytes` moved in
  /// `elapsed_usec` of virtual time (chunk issued to chunk retired).  Only
  /// relative accuracy matters -- the weights steer the stripe split, they
  /// are not a bandwidth figure.
  void record_rail(int rail, std::uint64_t bytes, double elapsed_usec);
  /// EWMA goodput of `rail` (0 when unsampled).
  double rail_mbps(int rail) const;
  /// Stripe weight for deficit scheduling.  Sampled rails use their EWMA;
  /// an unsampled rail borrows the best sampled weight (optimistic, so new
  /// or recovered rails get probed with real chunks), and with nothing
  /// sampled anywhere every rail weighs 1.0 (pure equal split).
  double rail_weight(int rail) const;

 private:
  // log2 buckets up to 2^47; bucket(len) groups [2^k, 2^(k+1)).
  static constexpr int kBuckets = 48;
  /// A learned decision overrides the static boundary only when the leading
  /// arm's EWMA beats the other by this factor.  Concurrency-normalized
  /// samples still carry scheduling noise; without a margin the decision
  /// flip-flops between protocols message to message, and the mixed
  /// schedule costs more than either pure one.
  static constexpr double kHysteresis = 1.15;
  static int bucket(std::size_t len);

  struct Arm {
    double mbps = 0.0;      // EWMA goodput
    std::uint64_t n = 0;    // samples
  };
  struct Bucket {
    Arm write;
    Arm read;
    std::uint64_t decisions = 0;
  };

  Proto best(const Bucket& b, std::size_t len) const;

  Config cfg_;
  std::array<Bucket, kBuckets> buckets_{};
  std::vector<Arm> rails_;  // grown on first record_rail for a rail index
};

}  // namespace rdmach
