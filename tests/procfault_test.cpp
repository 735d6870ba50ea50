// Process-fault suite (`procfault` ctest label): permanent rank death and
// the ULFM-style recovery stack on top of it.
//
// Five layers, mirroring the detection -> propagation -> recovery pipeline:
//   * Obituary propagation: exactly one rank burns a retry budget convicting
//     a dead peer; everyone else reads the board and fails fast.
//   * Revocation: a revoked communicator interrupts members *blocked inside*
//     a collective, on every channel design -- nobody waits out the harness
//     deadline.
//   * Agreement: agree() terminates and stays consistent with a member dying
//     at every step of the protocol (before contributing, after
//     contributing, as the decision leader, already convicted).
//   * Shrink: the survivor communicator is re-ranked densely and actually
//     works -- its collectives are checked against locally computed oracles.
//   * Uniform error + continuation: a real mid-job death surfaces as
//     ProcFailedError on every survivor (no hang, no mixed success), and
//     revoke/agree/shrink then carry the survivors to a working 3-rank
//     communicator, on every channel design.
//   * Bit-identity: with no faults scheduled, arming the detector changes
//     nothing observable -- virtual finish times, event counts, and channel
//     byte counters are identical to the unarmed run.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "channel_test_util.hpp"
#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "rdmach/multi_method_channel.hpp"
#include "sim/simulator.hpp"

namespace {

using rdmach::testutil::FaultPlan;
using rdmach::testutil::recv_all;
using rdmach::testutil::send_all;

constexpr sim::Tick kDeadline = sim::usec(30'000'000);  // 30 virtual seconds

/// Two rails so the multi-method design has its full method set available.
ib::FabricConfig two_rails() {
  ib::FabricConfig f;
  f.ports_per_hca = 2;
  return f;
}

mpi::RuntimeConfig ft_config(rdmach::Design design) {
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = design;
  cfg.stack.channel.ft_detector = true;
  return cfg;
}

class ProcFaultDesignTest : public ::testing::TestWithParam<rdmach::Design> {};

INSTANTIATE_TEST_SUITE_P(AllRdmaDesigns, ProcFaultDesignTest,
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
// Obituary propagation: one conviction job-wide, everyone else fails fast
// ---------------------------------------------------------------------------

/// Rank 3 dies right after init.  Rank 0 walks into the corpse first and
/// pays the full conviction cost (lazy-connect attempts until the budget
/// convicts).  Ranks 1 and 2 deliberately wait for the obituary to appear
/// on the board, then try to talk to the dead rank themselves: they must
/// fail fast on the board entry -- zero recovery attempts, zero budget
/// burned -- so job-wide exactly one budget was spent on the corpse.
void check_obituary_propagation(rdmach::Design design) {
  FaultPlan plan;
  rdmach::ChannelConfig cfg;
  cfg.design = design;
  cfg.lazy_connect = true;
  cfg.recovery_max_attempts = 3;
  cfg.ft_detector = true;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 4};
  std::unique_ptr<rdmach::Channel> ch[4];
  bool errored[4] = {false, false, false, false};
  std::string whats[4];
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    ch[ctx.rank] = rdmach::Channel::create(ctx, cfg);
    rdmach::Channel& c = *ch[ctx.rank];
    co_await c.init();
    if (ctx.rank == 3) {
      // Process death: the network dies with the rank, and the rank-main
      // stops executing.
      plan.schedule.rank_down(FaultPlan::scope_of(3));
      co_return;
    }
    if (ctx.rank != 0) {
      // Late senders: only approach the corpse once the obituary is
      // published, so any budget they burn would be a propagation bug.
      const pmi::Record* posted = co_await ctx.kvs->get("ft:dead:3");
      (void)posted;
    }
    try {
      const std::byte probe{0x5a};
      co_await send_all(c, c.connection(3), &probe, 1);
    } catch (const rdmach::ChannelError& e) {
      errored[ctx.rank] = true;
      whats[ctx.rank] = e.to_string();
    }
  });
  sim.run_until(kDeadline);

  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(errored[r]) << "rank " << r << " hung against the dead rank";
  }
  std::uint64_t obits = 0, fast_fails = 0;
  for (int r = 0; r < 3; ++r) obits += ch[r]->stats().obits_posted;
  EXPECT_EQ(obits, 1u) << "exactly one rank may convict";
  EXPECT_EQ(ch[0]->stats().obits_posted, 1u);
  for (int r = 1; r < 3; ++r) {
    const rdmach::ChannelStats st = ch[r]->stats();
    fast_fails += st.obit_fast_fails;
    EXPECT_EQ(st.recoveries, 0u)
        << "rank " << r << " burned a retry budget despite the obituary";
    EXPECT_NE(whats[r].find("obituary"), std::string::npos) << whats[r];
  }
  EXPECT_GE(fast_fails, 2u);
  if (design == rdmach::Design::kMultiMethod) {
    // One rank per node: every peer is served by the net member, so the
    // facade must report exactly the member's counters -- any field that
    // ChannelStats::operator+= forgets to merge shows up here.
    for (int r = 0; r < 3; ++r) {
      const auto& mm = static_cast<const rdmach::MultiMethodChannel&>(*ch[r]);
      EXPECT_TRUE(mm.stats() == mm.net()->stats()) << "rank " << r;
    }
  }
}

TEST(ProcFault, ObituaryPropagationBurnsOneRetryBudgetJobWide) {
  check_obituary_propagation(rdmach::Design::kBasic);
}

TEST(ProcFault, ObituaryPropagationThroughMultiMethodFacade) {
  check_obituary_propagation(rdmach::Design::kMultiMethod);
}

// ---------------------------------------------------------------------------
// Revoke: interrupts members blocked inside a collective, on every design
// ---------------------------------------------------------------------------

TEST_P(ProcFaultDesignTest, RevokeInterruptsBlockedCollective) {
  // Ranks 1..3 enter an allreduce that can never complete (rank 0 never
  // joins).  One virtual millisecond later rank 0 revokes the communicator:
  // every blocked member must come out with RevokedError -- promptly, not
  // at the harness deadline -- and rank 0's own next collective must be
  // refused at entry.
  const mpi::RuntimeConfig cfg = ft_config(GetParam());
  sim::Simulator sim;
  ib::Fabric fabric{sim, two_rails()};
  pmi::Job job{fabric, 4};
  bool revoked_out[4] = {false, false, false, false};
  sim::Tick out_at[4] = {0, 0, 0, 0};
  sim::Tick revoke_at = 0;
  // Runtimes owned outside the rank bodies: these scenarios end without the
  // collective finalize, so per-rank teardown must wait until the whole
  // simulation has drained (a peer may still have WQEs in flight against
  // this rank's rings).
  std::vector<std::unique_ptr<mpi::Runtime>> rts(4);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[ctx.rank] = std::make_unique<mpi::Runtime>(ctx, cfg);
    mpi::Runtime& rt = *rts[ctx.rank];
    co_await rt.init();
    if (ctx.rank == 0) {
      co_await ctx.sim().delay(sim::usec(1'000));
      revoke_at = ctx.sim().now();
      EXPECT_FALSE(rt.world().revoked());
      rt.world().revoke();
      EXPECT_TRUE(rt.world().revoked());
      try {
        co_await rt.world().barrier();
      } catch (const mpi::RevokedError&) {
        revoked_out[0] = true;
        out_at[0] = ctx.sim().now();
      }
      co_return;  // a revoked world cannot finalize collectively
    }
    int in = ctx.rank, out = 0;
    try {
      co_await rt.world().allreduce(&in, &out, 1, mpi::Datatype::kInt,
                                    mpi::Op::kSum);
    } catch (const mpi::RevokedError&) {
      revoked_out[ctx.rank] = true;
      out_at[ctx.rank] = ctx.sim().now();
      EXPECT_TRUE(rt.world().revoked());
    }
  });
  sim.run_until(kDeadline);

  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(revoked_out[r]) << "rank " << r << " not interrupted";
  }
  // The blocked members were genuinely parked inside the collective when
  // the revocation landed, and came out promptly.
  for (int r = 1; r < 4; ++r) {
    EXPECT_GE(out_at[r], revoke_at) << "rank " << r;
    EXPECT_LT(out_at[r], revoke_at + sim::usec(100'000)) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Agree: terminates with a member dying at every protocol step
// ---------------------------------------------------------------------------

enum class AgreeDeath {
  kSilentFromStart,          // dies before contributing
  kContributedThenSilent,    // contributes, then dies before the decision
  kLeaderContributedThenSilent,  // the decision leader dies mid-protocol
  kPreConvicted,             // already on the obituary board at entry
};

struct AgreeOutcome {
  bool done[4] = {false, false, false, false};
  int value[4] = {-1, -1, -1, -1};
};

AgreeOutcome run_agree_death(AgreeDeath death) {
  const mpi::RuntimeConfig cfg = ft_config(rdmach::Design::kBasic);
  const int victim =
      death == AgreeDeath::kLeaderContributedThenSilent ? 0 : 3;
  AgreeOutcome out;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 4};
  std::vector<std::unique_ptr<mpi::Runtime>> rts(4);
  job.launch([&, victim, death](pmi::Context& ctx) -> sim::Task<void> {
    rts[ctx.rank] = std::make_unique<mpi::Runtime>(ctx, cfg);
    mpi::Runtime& rt = *rts[ctx.rank];
    co_await rt.init();
    if (ctx.rank == victim) {
      if (death == AgreeDeath::kContributedThenSilent ||
          death == AgreeDeath::kLeaderContributedThenSilent) {
        // Whitebox: the member got as far as publishing its contribution
        // (world context 0, first agree -> sequence 1) and then died.
        ctx.kvs->put("agr:0:1:c:" + std::to_string(ctx.rank), {5});
      }
      co_return;  // silent forever after
    }
    if (death == AgreeDeath::kPreConvicted && ctx.rank == 0) {
      if (ctx.kvs->post_obit(victim)) pmi::wake_all_ranks(ctx);
    }
    const int got = co_await rt.world().agree(7);
    out.value[ctx.rank] = got;
    out.done[ctx.rank] = true;
  });
  sim.run_until(kDeadline);
  return out;
}

TEST(ProcFault, AgreeTerminatesWithDeathAtEveryProtocolStep) {
  struct Case {
    AgreeDeath death;
    int expect;
    const char* name;
  };
  // A member that dies *after* contributing is indistinguishable from a
  // slow one that made it: its value is folded in and no failure is
  // flagged.  Every other death step must both exclude the corpse and set
  // the kAgreeFlagDead bit.
  const Case cases[] = {
      {AgreeDeath::kSilentFromStart,
       7 | mpi::Communicator::kAgreeFlagDead, "silent-from-start"},
      {AgreeDeath::kContributedThenSilent, 7 & 5, "contributed-then-silent"},
      {AgreeDeath::kLeaderContributedThenSilent,
       (7 & 5) | mpi::Communicator::kAgreeFlagDead, "leader-died"},
      {AgreeDeath::kPreConvicted,
       7 | mpi::Communicator::kAgreeFlagDead, "pre-convicted"},
  };
  for (const Case& c : cases) {
    const int victim =
        c.death == AgreeDeath::kLeaderContributedThenSilent ? 0 : 3;
    const AgreeOutcome out = run_agree_death(c.death);
    for (int r = 0; r < 4; ++r) {
      if (r == victim) continue;
      ASSERT_TRUE(out.done[r]) << c.name << ": rank " << r << " hung";
      EXPECT_EQ(out.value[r], c.expect) << c.name << ": rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// Shrink: the survivor communicator is re-ranked and actually works
// ---------------------------------------------------------------------------

TEST(ProcFault, ShrinkProducesWorkingReRankedCommunicator) {
  // Rank 1 dies after init.  The survivors agree (which convicts the silent
  // member), shrink, and then drive the new 3-rank communicator through
  // barrier / allreduce / bcast, each checked against a locally computed
  // oracle over the surviving world ranks {0, 2, 3}.
  const mpi::RuntimeConfig cfg = ft_config(rdmach::Design::kBasic);
  constexpr int kVictim = 1;
  constexpr int kVec = 8;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 4};
  bool done[4] = {false, false, false, false};
  std::vector<std::unique_ptr<mpi::Runtime>> rts(4);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[ctx.rank] = std::make_unique<mpi::Runtime>(ctx, cfg);
    mpi::Runtime& rt = *rts[ctx.rank];
    co_await rt.init();
    if (ctx.rank == kVictim) co_return;

    const int flag = co_await rt.world().agree(0);
    EXPECT_NE(flag & mpi::Communicator::kAgreeFlagDead, 0)
        << "agree did not notice the death";
    const std::vector<int> failed = rt.world().failed_ranks();
    EXPECT_EQ(failed.size(), 1u);
    EXPECT_EQ(failed.empty() ? -1 : failed[0], kVictim);

    mpi::Communicator* sc = co_await rt.world().shrink();
    EXPECT_NE(sc, nullptr);
    if (sc == nullptr) co_return;
    EXPECT_EQ(sc->size(), 3);
    if (sc->size() != 3) co_return;
    // Dense re-rank in old relative order: world {0, 2, 3} -> {0, 1, 2}.
    const int expect_rank = ctx.rank == 0 ? 0 : ctx.rank - 1;
    EXPECT_EQ(sc->rank(), expect_rank);
    EXPECT_EQ(sc->world_rank(sc->rank()), ctx.rank);

    co_await sc->barrier();

    int v[kVec], sum[kVec];
    for (int i = 0; i < kVec; ++i) v[i] = ctx.rank * 1000 + i;
    co_await sc->allreduce(v, sum, kVec, mpi::Datatype::kInt, mpi::Op::kSum);
    for (int i = 0; i < kVec; ++i) {
      EXPECT_EQ(sum[i], (0 + 2 + 3) * 1000 + 3 * i) << "element " << i;
    }

    int root_word = sc->rank() == 0 ? 4242 : -1;
    co_await sc->bcast(&root_word, 1, mpi::Datatype::kInt, 0);
    EXPECT_EQ(root_word, 4242);

    done[ctx.rank] = true;
  });
  sim.run_until(kDeadline);
  for (int r = 0; r < 4; ++r) {
    if (r == kVictim) continue;
    EXPECT_TRUE(done[r]) << "survivor " << r << " hung";
  }
}

// ---------------------------------------------------------------------------
// Uniform error + shrink-and-continue, end to end, on every design
// ---------------------------------------------------------------------------

TEST_P(ProcFaultDesignTest, DeadMemberUniformErrorThenShrinkContinues) {
  // Rank 3 dies for real (its node's QPs fail every WQE) after init.  Rank
  // 0 discovers it the hard way -- a send whose retry budget convicts --
  // and ranks 1..2 at the collective entry check once the obituary lands.
  // Differential uniformity: every survivor must surface ProcFailedError
  // (never a hang, never a silent success), and the standard
  // revoke/agree/shrink sequence must then deliver a working 3-rank
  // communicator on which an allreduce matches the oracle.
  mpi::RuntimeConfig cfg = ft_config(GetParam());
  cfg.stack.channel.recovery_max_attempts = 4;
  FaultPlan plan;
  sim::Simulator sim;
  ib::Fabric fabric{sim, two_rails()};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 4};
  bool proc_failed[4] = {false, false, false, false};
  bool collective_succeeded[4] = {false, false, false, false};
  bool continued[4] = {false, false, false, false};
  std::vector<std::unique_ptr<mpi::Runtime>> rts(4);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[ctx.rank] = std::make_unique<mpi::Runtime>(ctx, cfg);
    mpi::Runtime& rt = *rts[ctx.rank];
    co_await rt.init();
    if (ctx.rank == 3) {
      plan.schedule.rank_down(FaultPlan::scope_of(3));
      co_return;
    }
    mpi::Communicator& world = rt.world();
    try {
      if (ctx.rank == 0) {
        // Rendezvous-sized so the send needs the corpse's half of the
        // handshake on every design -- a tiny eager send can complete
        // locally before the failure has anywhere to surface.
        std::vector<int> big(64 * 1024, 99);
        co_await world.send(big.data(), static_cast<int>(big.size()),
                            mpi::Datatype::kInt, 3, 7);
      } else {
        // Enter only once the obituary is on the board, so the error comes
        // from the uniform entry check, not a second conviction.
        const pmi::Record* posted = co_await ctx.kvs->get("ft:dead:3");
        (void)posted;
        int in = ctx.rank, out = 0;
        co_await world.allreduce(&in, &out, 1, mpi::Datatype::kInt,
                                 mpi::Op::kSum);
      }
      collective_succeeded[ctx.rank] = true;
    } catch (const mpi::ProcFailedError& e) {
      proc_failed[ctx.rank] = true;
      EXPECT_EQ(e.world_rank(), 3);
    }
    if (!proc_failed[ctx.rank]) co_return;

    // Survivors rendezvous on the board before anyone revokes, so the error
    // each one observed above is the entry check's ProcFailedError -- never
    // a racing peer's RevokedError.
    ctx.kvs->put("uerr:" + std::to_string(ctx.rank), {});
    for (int r = 0; r < 3; ++r) {
      const pmi::Record* seen =
          co_await ctx.kvs->get("uerr:" + std::to_string(r));
      (void)seen;
    }

    // The ULFM recovery idiom.
    world.revoke();
    const int flag = co_await world.agree(0);
    EXPECT_NE(flag & mpi::Communicator::kAgreeFlagDead, 0);
    mpi::Communicator* sc = co_await world.shrink();
    EXPECT_NE(sc, nullptr);
    if (sc == nullptr) co_return;
    EXPECT_EQ(sc->size(), 3);
    if (sc->size() != 3) co_return;
    int in = ctx.rank, out = 0;
    co_await sc->allreduce(&in, &out, 1, mpi::Datatype::kInt, mpi::Op::kSum);
    EXPECT_EQ(out, 0 + 1 + 2);  // surviving world ranks
    continued[ctx.rank] = true;
  });
  sim.run_until(kDeadline);

  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(proc_failed[r]) << "survivor " << r << " saw no error";
    EXPECT_FALSE(collective_succeeded[r])
        << "survivor " << r << " succeeded against a dead member";
    EXPECT_TRUE(continued[r]) << "survivor " << r << " failed to continue";
  }
}

// ---------------------------------------------------------------------------
// Bit-identity: arming the detector costs nothing on a fault-free run
// ---------------------------------------------------------------------------

struct TraceDigest {
  sim::Tick finish[4] = {0, 0, 0, 0};
  std::uint64_t events = 0;
  std::uint64_t eager_ops = 0, eager_bytes = 0;
  std::uint64_t rndv_ops = 0, rndv_bytes = 0;
  std::uint64_t obits = 0;
  long long sums = 0;
};

TraceDigest run_trace(bool armed) {
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = rdmach::Design::kPiggyback;
  cfg.stack.channel.ft_detector = armed;
  TraceDigest d;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 4};
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<int> block(4096);
    for (std::size_t i = 0; i < block.size(); ++i) {
      block[i] = ctx.rank * 7 + static_cast<int>(i);
    }
    std::vector<int> echo(block.size());
    for (int round = 0; round < 3; ++round) {
      int in = ctx.rank + round, out = 0;
      co_await world.allreduce(&in, &out, 1, mpi::Datatype::kInt,
                               mpi::Op::kSum);
      d.sums += out;
      const int next = (ctx.rank + 1) % 4;
      const int prev = (ctx.rank + 3) % 4;
      co_await world.sendrecv(block.data(), static_cast<int>(block.size()),
                              mpi::Datatype::kInt, next, round, echo.data(),
                              static_cast<int>(echo.size()),
                              mpi::Datatype::kInt, prev, round);
      d.sums += echo[1];
      co_await world.barrier();
    }
    const rdmach::ChannelStats st = rt.engine().channel().channel_stats();
    d.eager_ops += st.eager.ops;
    d.eager_bytes += st.eager.bytes;
    d.rndv_ops += st.rndv_write.ops + st.rndv_read.ops;
    d.rndv_bytes += st.rndv_write.bytes + st.rndv_read.bytes;
    d.obits += st.obits_posted + st.obit_fast_fails;
    d.finish[ctx.rank] = ctx.sim().now();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  d.events = sim.stats().events_dispatched;
  return d;
}

TEST(ProcFault, FaultFreeTraceBitIdenticalWithDetectorArmed) {
  const TraceDigest off = run_trace(false);
  const TraceDigest on = run_trace(true);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(off.finish[r], on.finish[r]) << "rank " << r << " finish time";
    EXPECT_GT(off.finish[r], 0) << "rank " << r << " never finished";
  }
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.eager_ops, on.eager_ops);
  EXPECT_EQ(off.eager_bytes, on.eager_bytes);
  EXPECT_EQ(off.rndv_ops, on.rndv_ops);
  EXPECT_EQ(off.rndv_bytes, on.rndv_bytes);
  EXPECT_EQ(off.sums, on.sums);
  EXPECT_EQ(on.obits, 0u);
}

}  // namespace
