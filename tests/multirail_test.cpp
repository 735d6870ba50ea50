// Multi-rail fabric: striping, failure domains, and stripe-policy tests.
//
// A Node may own several HCAs with several ports each (ib::FabricConfig
// num_hcas / ports_per_hca); each (hca, port) pair is one *rail* with its
// own modeled link, CQ, and failure domain.  The adaptive channel stripes
// large rendezvous chunks (and assigns whole write rounds) over the rails
// while the small-message ring stays on rail 0.  This suite pins:
//
//   * aggregate scaling: two equal rails must beat one by >= 1.7x at the
//     >= 1MB rendezvous plateau (wire-bound -> node-bus-bound);
//   * failure domains: a rail dying mid-rendezvous moves its in-flight
//     chunks to the survivors through the journal/NACK machinery, the
//     delivered stream still matches the ShmChannel oracle byte-for-byte,
//     and the rail_failovers / retransmits counters are pinned;
//   * every-rail-dead is the only way to a ChannelError;
//   * stripe policy: on an asymmetric (fast + slow) fabric the learned
//     weighted split beats naive strict round-robin and puts more bytes on
//     the fast rail.
//
// Carries the `multirail` ctest label (wired into the asan-fault /
// asan-chaos presets next to their own labels).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "channel_test_util.hpp"
#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace {

using rdmach::testutil::FaultPlan;
using rdmach::testutil::Traffic;

constexpr sim::Tick kDeadline = sim::usec(5'000'000);  // 5 virtual seconds

ib::FabricConfig rails(int num_hcas, int ports_per_hca) {
  ib::FabricConfig f;
  f.num_hcas = num_hcas;
  f.ports_per_hca = ports_per_hca;
  return f;
}

struct RunResult {
  std::vector<std::byte> received;
  bool send_done = false;
  bool recv_done = false;
  bool send_error = false;
  bool recv_error = false;
  rdmach::ChannelError::Kind send_kind = rdmach::ChannelError::kDead;
  rdmach::ChannelError::Kind recv_kind = rdmach::ChannelError::kDead;
  sim::Tick finished = 0;  // virtual time when both ranks were done
  rdmach::ChannelStats stats;  // both ranks, summed
};

/// Streams `traffic` rank0 -> rank1 on a `fcfg` fabric, then a one-byte
/// token back (same deadline-bounded shape as the chaos harness), and sums
/// both ranks' rail statistics.
RunResult run_stream(const ib::FabricConfig& fcfg, const Traffic& traffic,
                     FaultPlan* plan, rdmach::ChannelConfig cfg,
                     int recovery_max_attempts = 8) {
  RunResult rr;
  sim::Simulator sim;
  ib::Fabric fabric{sim, fcfg};
  if (plan != nullptr) fabric.attach_faults(&plan->schedule);
  pmi::Job job{fabric, 2};
  cfg.design = rdmach::Design::kAdaptive;
  cfg.recovery_max_attempts = recovery_max_attempts;
  std::unique_ptr<rdmach::Channel> ch[2];
  rr.received.resize(traffic.total());
  int done_ranks = 0;

  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    ch[ctx.rank] = rdmach::Channel::create(ctx, cfg);
    rdmach::Channel& c = *ch[ctx.rank];
    co_await c.init();
    rdmach::Connection& conn = c.connection(1 - ctx.rank);
    if (ctx.rank == 0) {
      try {
        std::size_t off = 0;
        for (const std::size_t sz : traffic.sizes) {
          co_await rdmach::testutil::send_all(c, conn,
                                              traffic.bytes.data() + off, sz);
          off += sz;
        }
        std::byte token{};
        co_await rdmach::testutil::recv_all(c, conn, &token, 1);
        rr.send_done = true;
        if (++done_ranks == 2) rr.finished = ctx.sim().now();
        co_await c.finalize();
      } catch (const rdmach::ChannelError& e) {
        rr.send_error = true;
        rr.send_kind = e.kind();
      }
    } else {
      try {
        co_await rdmach::testutil::recv_all(c, conn, rr.received.data(),
                                            rr.received.size());
        const std::byte token{0x1};
        co_await rdmach::testutil::send_all(c, conn, &token, 1);
        rr.recv_done = true;
        if (++done_ranks == 2) rr.finished = ctx.sim().now();
        co_await c.finalize();
      } catch (const rdmach::ChannelError& e) {
        rr.recv_error = true;
        rr.recv_kind = e.kind();
      }
    }
  });
  sim.run_until(kDeadline);
  for (int r = 0; r < 2; ++r) {
    if (ch[r] == nullptr) continue;
    rr.stats += ch[r]->stats();
  }
  return rr;
}

// ---------------------------------------------------------------------------
// Aggregate scaling: two equal rails vs one at the rendezvous plateau.
// ---------------------------------------------------------------------------

TEST(MultiRail, TwoEqualRailsScaleBandwidthAtLeast1_7x) {
  const mpi::RuntimeConfig cfg =
      benchutil::design_config(rdmach::Design::kAdaptive);
  for (const std::size_t msg : {1u << 20, 4u << 20}) {
    const double one =
        benchutil::mpi_bandwidth_mbps(cfg, msg, 32u << 20, 16, rails(1, 1));
    const double two =
        benchutil::mpi_bandwidth_mbps(cfg, msg, 32u << 20, 16, rails(2, 1));
    EXPECT_GE(two, 1.7 * one) << "msg=" << msg << " one-rail=" << one
                              << " two-rail=" << two;
  }
}

TEST(MultiRail, RailTrafficIsStripedAcrossBothRails) {
  Traffic t = Traffic::make(/*seed=*/7, /*messages=*/6, /*min_len=*/1u << 20,
                            /*max_len=*/2u << 20);
  const RunResult rr = run_stream(rails(1, 2), t, nullptr, {});
  ASSERT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  ASSERT_EQ(rr.stats.rails.size(), 2u);
  // Equal rails, weighted policy: both carry real traffic, roughly evenly.
  EXPECT_GT(rr.stats.rails[0].bytes, 0u);
  EXPECT_GT(rr.stats.rails[1].bytes, 0u);
  EXPECT_GT(rr.stats.rails[0].stripes, 0u);
  EXPECT_GT(rr.stats.rails[1].stripes, 0u);
  const double hi = static_cast<double>(
      std::max(rr.stats.rails[0].bytes, rr.stats.rails[1].bytes));
  const double lo = static_cast<double>(
      std::min(rr.stats.rails[0].bytes, rr.stats.rails[1].bytes));
  EXPECT_LT(hi, 2.0 * lo) << "stripe badly skewed on equal rails";
  EXPECT_EQ(rr.stats.rail_failovers, 0u);
}

// ---------------------------------------------------------------------------
// Failure domains.
// ---------------------------------------------------------------------------

TEST(MultiRail, RailDeathMidRendezvousFailsOverAndMatchesOracle) {
  Traffic t = Traffic::make(/*seed=*/11, /*messages=*/8,
                            /*min_len=*/512u << 10, /*max_len=*/2u << 20);
  // The receiver (rank 1) initiates the chunk reads; kill its rail 1 at
  // the 3rd WQE that rail carries -- mid-stripe of an early rendezvous.
  FaultPlan plan;
  plan.rail_down(/*rank=*/1, /*rail=*/1, /*from=*/2);
  const RunResult rr = run_stream(rails(2, 1), t, &plan, {});
  ASSERT_TRUE(rr.send_done) << "sender did not finish";
  ASSERT_TRUE(rr.recv_done) << "receiver did not finish";
  EXPECT_FALSE(rr.send_error);
  EXPECT_FALSE(rr.recv_error);
  // Byte-for-byte against the oracle stream (the ShmChannel contract).
  ASSERT_EQ(rr.received.size(), t.bytes.size());
  EXPECT_TRUE(std::memcmp(rr.received.data(), t.bytes.data(),
                          t.bytes.size()) == 0);
  // Counters pinned: exactly one (connection, rail) failover -- rank 1's
  // connection abandoning its rail 1 -- and a bounded, non-zero number of
  // chunk retransmits through the journal/replay machinery.
  EXPECT_EQ(rr.stats.rail_failovers, 1u);
  EXPECT_GE(rr.stats.recoveries, 1u);
  EXPECT_GE(rr.stats.retransmits, 1u);
  EXPECT_LE(rr.stats.retransmits, 16u);
  // Surviving rail 0 carried the bulk of the stream.
  ASSERT_EQ(rr.stats.rails.size(), 2u);
  EXPECT_GT(rr.stats.rails[0].bytes, rr.stats.rails[1].bytes);
  EXPECT_EQ(rr.stats.rails[1].failovers, 1u);

  // Determinism: the same schedule reproduces the same counters exactly.
  FaultPlan plan2;
  plan2.rail_down(1, 1, 2);
  const RunResult rr2 = run_stream(rails(2, 1), t, &plan2, {});
  EXPECT_EQ(rr2.stats.retransmits, rr.stats.retransmits);
  EXPECT_EQ(rr2.stats.recoveries, rr.stats.recoveries);
  EXPECT_EQ(rr2.stats.rail_failovers, rr.stats.rail_failovers);
}

TEST(MultiRail, SenderRailDeathFailsOverWriteAndRingTraffic) {
  // Mid-band messages take the RDMA-write rendezvous; small ones the ring.
  // Killing the *sender's* rail 0 (which carries the ring AND is a stripe
  // target) must fail everything over to rail 1.
  Traffic t = Traffic::make(/*seed=*/23, /*messages=*/12,
                            /*min_len=*/16u << 10, /*max_len=*/128u << 10);
  FaultPlan plan;
  plan.rail_down(/*rank=*/0, /*rail=*/0, /*from=*/6);
  const RunResult rr = run_stream(rails(2, 1), t, &plan, {});
  ASSERT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_FALSE(rr.send_error);
  EXPECT_FALSE(rr.recv_error);
  ASSERT_EQ(rr.received.size(), t.bytes.size());
  EXPECT_TRUE(std::memcmp(rr.received.data(), t.bytes.data(),
                          t.bytes.size()) == 0);
  EXPECT_GE(rr.stats.rail_failovers, 1u);
  EXPECT_GE(rr.stats.recoveries, 1u);
}

TEST(MultiRail, AllRailsDeadRaisesChannelErrorDead) {
  Traffic t = Traffic::make(/*seed=*/31, /*messages=*/4,
                            /*min_len=*/256u << 10, /*max_len=*/1u << 20);
  // Kill the *receiver's* rails: the chunk reads are receiver-initiated,
  // so its rails are the data plane (the sender's rails only carry ring
  // control; killing those alone is survivable, as the failover tests
  // show).
  FaultPlan plan;
  plan.rail_down(/*rank=*/1, /*rail=*/0, /*from=*/4);
  plan.rail_down(/*rank=*/1, /*rail=*/1, /*from=*/0);
  const RunResult rr =
      run_stream(rails(2, 1), t, &plan, {}, /*recovery_max_attempts=*/3);
  // With every rail dead nothing can be delivered; the retry budget must
  // surface a kDead ChannelError rather than hang past the deadline.
  EXPECT_TRUE(rr.send_error || rr.recv_error);
  if (rr.send_error) {
    EXPECT_EQ(rr.send_kind, rdmach::ChannelError::kDead);
  }
  if (rr.recv_error) {
    EXPECT_EQ(rr.recv_kind, rdmach::ChannelError::kDead);
  }
  EXPECT_FALSE(rr.recv_done);
}

// ---------------------------------------------------------------------------
// Stripe policy: learned weights vs naive round-robin on asymmetric rails.
// ---------------------------------------------------------------------------

TEST(MultiRail, WeightedSplitBeatsNaiveRoundRobinOnAsymmetricRails) {
  // One fast rail at the calibrated 870 MB/s, one at a third of it.  The
  // naive strict rotation gates every other chunk on the slow rail; the
  // weighted policy converges to a goodput-proportional split.
  ib::FabricConfig fcfg = rails(1, 2);
  fcfg.rail_link_mbps = {870.0, 290.0};
  Traffic t = Traffic::make(/*seed=*/43, /*messages=*/16,
                            /*min_len=*/1u << 20, /*max_len=*/1u << 20);

  rdmach::ChannelConfig weighted;
  weighted.rail_policy = rdmach::RailPolicy::kWeighted;
  const RunResult w = run_stream(fcfg, t, nullptr, weighted);
  ASSERT_TRUE(w.send_done);
  ASSERT_TRUE(w.recv_done);

  rdmach::ChannelConfig naive;
  naive.rail_policy = rdmach::RailPolicy::kRoundRobin;
  const RunResult n = run_stream(fcfg, t, nullptr, naive);
  ASSERT_TRUE(n.send_done);
  ASSERT_TRUE(n.recv_done);

  // Same oracle stream either way...
  EXPECT_TRUE(std::memcmp(w.received.data(), t.bytes.data(),
                          t.bytes.size()) == 0);
  EXPECT_TRUE(std::memcmp(n.received.data(), t.bytes.data(),
                          t.bytes.size()) == 0);
  // ...but the weighted split finishes measurably sooner (>= 15% here;
  // the gap widens with rail asymmetry).
  ASSERT_GT(w.finished, 0);
  ASSERT_GT(n.finished, 0);
  EXPECT_LT(static_cast<double>(w.finished) * 1.15,
            static_cast<double>(n.finished))
      << "weighted=" << w.finished << " naive=" << n.finished;
  // And the split converged: the fast rail carried clearly more bytes,
  // while naive rotation forced a near-even chunk count.
  ASSERT_EQ(w.stats.rails.size(), 2u);
  EXPECT_GT(static_cast<double>(w.stats.rails[0].bytes),
            1.5 * static_cast<double>(w.stats.rails[1].bytes));
}

}  // namespace
