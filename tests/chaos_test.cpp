// Chaos soak harness: end-to-end data integrity + resource exhaustion.
//
// Every test streams randomized traffic through a channel design while the
// fault schedule corrupts payloads in flight (delivered as successes),
// denies memory registrations, drops CQEs into the overrun buffer, or
// withholds ring credit -- then differentially checks the delivered byte
// stream against the concatenated input (the ShmChannel oracle contract
// from fault_test): no reorder, no duplication, no silent corruption.  The
// `integrity_check` knob is ON here; a dedicated test pins the documented
// silent-corruption behavior with it off.  The suite carries the `chaos`
// ctest label so `ctest -L chaos` (and the asan-chaos preset) can soak the
// degradation paths alone.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "channel_test_util.hpp"
#include "ch3/ch3.hpp"
#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "rdmach/multi_method_channel.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using rdmach::testutil::FaultPlan;
using rdmach::testutil::Traffic;

constexpr sim::Tick kDeadline = sim::usec(5'000'000);  // 5 virtual seconds

struct RunResult {
  std::vector<std::byte> received;
  bool send_done = false;
  bool recv_done = false;
  bool send_error = false;
  bool recv_error = false;
  rdmach::ChannelError::Kind send_kind = rdmach::ChannelError::kDead;
  rdmach::ChannelError::Kind recv_kind = rdmach::ChannelError::kDead;
  std::uint64_t faults = 0;
  rdmach::ChannelStats stats;  // both ranks' counters, summed
};

/// Streams `traffic` rank0 -> rank1 under `plan`, then a one-byte token
/// rank1 -> rank0 (keeps the sender's progress engine turning until the
/// receiver drained everything).  Same deadline-bounded shape as
/// fault_test's harness, plus ChannelError-kind capture and the summed
/// hardening counters.
RunResult run_stream(rdmach::Design design, const Traffic& traffic,
                     FaultPlan* plan, rdmach::ChannelConfig base = {},
                     int recovery_max_attempts = 8) {
  RunResult rr;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  if (plan != nullptr) fabric.attach_faults(&plan->schedule);
  pmi::Job job{fabric, 2};
  rdmach::ChannelConfig cfg = base;
  cfg.design = design;
  cfg.recovery_max_attempts = recovery_max_attempts;
  std::unique_ptr<rdmach::Channel> ch[2];
  rr.received.resize(traffic.total());

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
  if (plan != nullptr) rr.faults = plan->schedule.killed();
  return rr;
}

rdmach::ChannelConfig integrity_on() {
  rdmach::ChannelConfig cfg;
  cfg.integrity_check = true;
  return cfg;
}

class ChaosDesignTest : public ::testing::TestWithParam<rdmach::Design> {};

INSTANTIATE_TEST_SUITE_P(AllRdmaDesigns, ChaosDesignTest,
                         ::testing::Values(rdmach::Design::kBasic,
                                           rdmach::Design::kPiggyback,
                                           rdmach::Design::kPipeline,
                                           rdmach::Design::kZeroCopy,
                                           rdmach::Design::kMultiMethod,
                                           rdmach::Design::kAdaptive),
                         [](const auto& info) {
                           std::string n = rdmach::to_string(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Silent corruption healed by the integrity option
// ---------------------------------------------------------------------------

TEST_P(ChaosDesignTest, CorruptedTrafficHealsAndDeliversOracle) {
  const Traffic traffic = Traffic::make(/*seed=*/121, /*messages=*/40,
                                        /*min_len=*/1, /*max_len=*/3000);
  FaultPlan plan;
  plan.corrupt(0, 5).corrupt(0, 25).corrupt(1, 3);
  RunResult rr = run_stream(GetParam(), traffic, &plan, integrity_on());
  EXPECT_GE(rr.faults, 1u);
  EXPECT_FALSE(rr.send_error);
  EXPECT_FALSE(rr.recv_error);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  // The CRC machinery must have both caught the damage and repaired it.
  EXPECT_GE(rr.stats.crc_failures, 1u);
  EXPECT_GE(rr.stats.retransmits, 1u);
}

TEST(ChaosIntegrity, CorruptionIsSilentWithIntegrityOff) {
  // Pins the `integrity_check = false` default contract: a corrupted data
  // write is delivered as a success and nothing downstream notices -- the
  // stream completes but differs from the oracle.  (Basic design: rank0's
  // WQEs alternate data, head, data, head..., so op 4 is the third put's
  // data write and the flip lands in payload, not a pointer.)
  const Traffic traffic = Traffic::make(/*seed=*/122, /*messages=*/20,
                                        /*min_len=*/100, /*max_len=*/1000);
  FaultPlan plan;
  plan.corrupt(0, 4);
  RunResult rr = run_stream(rdmach::Design::kBasic, traffic, &plan);
  EXPECT_EQ(rr.faults, 1u);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_NE(rr.received, traffic.bytes);  // silently corrupted
  EXPECT_EQ(rr.stats.crc_failures, 0u);
  EXPECT_EQ(rr.stats.recoveries, 0u);
}

TEST(ChaosIntegrity, CorruptFloodRaisesIntegrityErrorNotHang) {
  // Every WQE rank0's HCA processes is corrupted: each replay rewrites
  // damaged bytes, the receiver NACKs forever, and after the recovery
  // budget drains with no verified progress the failure must surface as
  // ChannelError::kIntegrity on the receiver (the side that proved the
  // corruption) -- never as a hang or as silently wrong bytes.
  const Traffic traffic = Traffic::make(/*seed=*/123, /*messages=*/10,
                                        /*min_len=*/100, /*max_len=*/1000);
  FaultPlan plan;
  for (std::uint64_t i = 0; i < 400; ++i) plan.corrupt(0, i);
  RunResult rr = run_stream(rdmach::Design::kPiggyback, traffic, &plan,
                            integrity_on(), /*recovery_max_attempts=*/3);
  EXPECT_GE(rr.faults, 1u);
  EXPECT_FALSE(rr.recv_done);
  EXPECT_FALSE(rr.send_done);
  ASSERT_TRUE(rr.recv_error);
  EXPECT_EQ(rr.recv_kind, rdmach::ChannelError::kIntegrity);
  EXPECT_TRUE(rr.send_error);  // peer learns through the dead marker
  EXPECT_GE(rr.stats.crc_failures, 1u);
}

// ---------------------------------------------------------------------------
// Resource exhaustion: graceful degradation paths
// ---------------------------------------------------------------------------

TEST(ChaosExhaustion, ZeroCopyRegistrationDenialFallsBackToCopyPath) {
  // One rendezvous-sized message; rank0's init pins exactly three regions
  // (ring, staging, ctrl), so its op-3 registration is the zero-copy
  // source acquire.  Deny a window covering it: the put must degrade to
  // the pipelined copy path and still deliver the oracle stream, with no
  // recovery epoch spent.
  const Traffic traffic =
      Traffic::make(/*seed=*/124, /*messages=*/1, /*min_len=*/262144,
                    /*max_len=*/262144);
  FaultPlan plan;
  plan.exhaust_reg(0, /*from=*/3, /*n=*/10);
  RunResult rr =
      run_stream(rdmach::Design::kZeroCopy, traffic, &plan, integrity_on());
  EXPECT_GE(rr.faults, 1u);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  EXPECT_GE(rr.stats.reg_fallbacks, 1u);
  EXPECT_EQ(rr.stats.recoveries, 0u);
}

TEST(ChaosExhaustion, AdaptiveRegistrationDenialFallsBackAndRecoversLater) {
  // Adaptive init pins five regions (ring, staging, ctrl, FIN flags, FIN
  // sources); deny a window starting at its first data-phase acquire.  The
  // first rendezvous degrades to the copy path (teaching the selector the
  // penalty); once the window passes, later rendezvous run normally.
  const Traffic traffic =
      Traffic::make(/*seed=*/125, /*messages=*/4, /*min_len=*/262144,
                    /*max_len=*/262144);
  FaultPlan plan;
  plan.exhaust_reg(0, /*from=*/5, /*n=*/1);
  RunResult rr =
      run_stream(rdmach::Design::kAdaptive, traffic, &plan, integrity_on());
  EXPECT_GE(rr.faults, 1u);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  EXPECT_GE(rr.stats.reg_fallbacks, 1u);
}

TEST(ChaosExhaustion, CqOverrunDrainsAndRearms) {
  // Drop two of rank0's delivered CQEs into the overrun buffer.  The basic
  // design waits on every data/head completion, so the lost CQEs must
  // resurface as flush errors through drain-and-rearm and replay must
  // rewrite the affected region -- delivery still matches the oracle.
  const Traffic traffic = Traffic::make(/*seed=*/126, /*messages=*/20,
                                        /*min_len=*/100, /*max_len=*/2000);
  FaultPlan plan;
  plan.exhaust_cq(0, /*from=*/1, /*n=*/2);
  RunResult rr =
      run_stream(rdmach::Design::kBasic, traffic, &plan, integrity_on());
  EXPECT_GE(rr.faults, 1u);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  EXPECT_GE(rr.stats.cq_overruns, 1u);
  EXPECT_GE(rr.stats.recoveries, 1u);
}

TEST(ChaosExhaustion, CreditDenialBackpressuresWithoutRecovery) {
  // Withhold rank0's first five ring-credit grants: each denied put
  // returns 0 and schedules its own wakeup, so the sender retries under
  // backpressure instead of deadlocking in wait_for_activity.  No QP ever
  // fails, so the recovery machinery must stay cold.
  const Traffic traffic = Traffic::make(/*seed=*/127, /*messages=*/20,
                                        /*min_len=*/100, /*max_len=*/2000);
  FaultPlan plan;
  plan.exhaust_credit(0, /*from=*/0, /*n=*/5);
  RunResult rr =
      run_stream(rdmach::Design::kPipeline, traffic, &plan, integrity_on());
  EXPECT_GE(rr.faults, 5u);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  EXPECT_GE(rr.stats.credit_stalls, 5u);
  EXPECT_EQ(rr.stats.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Seeded randomized chaos soak
// ---------------------------------------------------------------------------

TEST_P(ChaosDesignTest, SeededChaosSoakDeliversOracleByteStream) {
  // Hundreds of messages per design under a seeded random mix of kills,
  // corruptions, CQ drops, and credit denials on both ranks (registration
  // denial has its own targeted tests: its op index is design-specific and
  // a denial inside bootstrap would be a setup error, not a degradation).
  // The schedule is deterministic -- same seed, same faults, same virtual
  // timeline -- so a failure here reproduces exactly.
  const Traffic traffic = Traffic::make(/*seed=*/200, /*messages=*/800,
                                        /*min_len=*/1, /*max_len=*/30'000);
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  FaultPlan plan;
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < 5; ++i) {
      plan.corrupt(r, rng.below(2000));
    }
    for (int i = 0; i < 3; ++i) {
      plan.kill(r, rng.below(2000));
    }
    plan.exhaust_cq(r, rng.below(500), 2);
    plan.exhaust_credit(r, rng.below(200), 3);
  }
  RunResult rr = run_stream(GetParam(), traffic, &plan, integrity_on());
  EXPECT_GE(rr.faults, 4u);
  EXPECT_FALSE(rr.send_error);
  EXPECT_FALSE(rr.recv_error);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  // The oracle contract: the FIFO byte stream, bit-exact, no silent loss.
  EXPECT_EQ(rr.received, traffic.bytes);
  // Bounded self-healing: retries happened but did not run away.
  EXPECT_LE(rr.stats.recoveries, 64u);
  EXPECT_LE(rr.stats.retransmits, 100'000u);
}

TEST(ChaosSoak, FaultFreeIntegrityRunKeepsHardeningCountersAtZero) {
  // With integrity on but no faults injected, the checksums must all
  // verify silently: no NACKs, no retransmits, no fallbacks, no stalls.
  const Traffic traffic = Traffic::make(/*seed=*/201, /*messages=*/60,
                                        /*min_len=*/1, /*max_len=*/30'000);
  RunResult rr = run_stream(rdmach::Design::kAdaptive, traffic,
                            /*plan=*/nullptr, integrity_on());
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  EXPECT_EQ(rr.stats.crc_failures, 0u);
  EXPECT_EQ(rr.stats.retransmits, 0u);
  EXPECT_EQ(rr.stats.reg_fallbacks, 0u);
  EXPECT_EQ(rr.stats.cq_overruns, 0u);
  EXPECT_EQ(rr.stats.credit_stalls, 0u);
  EXPECT_EQ(rr.stats.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// CH3 exposure of the hardening counters
// ---------------------------------------------------------------------------

TEST(ChaosMpi, HardeningCountersSurfaceThroughCh3Adapter) {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  FaultPlan plan;
  plan.corrupt(0, 5).corrupt(0, 9);
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 2};
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = rdmach::Design::kPipeline;
  cfg.stack.channel.integrity_check = true;
  constexpr int kN = 20'000;  // several ring slots' worth
  std::vector<int> got(kN, -1);
  rdmach::ChannelStats st[2];
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    if (ctx.rank == 0) {
      std::vector<int> data(kN);
      std::iota(data.begin(), data.end(), 0);
      co_await rt.world().send(data.data(), kN, mpi::Datatype::kInt, 1, 7);
    } else {
      co_await rt.world().recv(got.data(), kN, mpi::Datatype::kInt, 0, 7);
    }
    // Read counters after finalize: the sender's send() can return with
    // all bytes accepted into the ring before the receiver's NACK forces
    // the replay, so the retransmit may land during the shutdown drain.
    co_await rt.finalize();
    st[ctx.rank] = rt.engine().channel().channel_stats();
  });
  sim.run();  // completes: detection + retransmit are invisible to MPI
  EXPECT_GE(plan.schedule.killed(), 1u);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "at index " << i;
  }
  // The receiver proved the corruption; the sender paid the retransmit;
  // both movements must be visible through the CH3 stats surface.
  st[0] += st[1];
  EXPECT_GE(st[0].crc_failures, 1u);
  EXPECT_GE(st[0].retransmits, 1u);
}

}  // namespace
