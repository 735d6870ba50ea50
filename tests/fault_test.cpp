// Fault-injection and recovery tests.
//
// Three levels, mirroring the stack:
//   * verbs     -- RC error semantics: flush order on an errored QP,
//                  close/quiesce/reset lifecycle, and the documented
//                  retry-storm timing of the random injector.
//   * channel   -- the differential harness: randomized put/get traffic
//                  through every design with transport errors killed
//                  mid-stream, asserting the delivered byte stream is
//                  bit-identical to the ShmChannel oracle's, plus
//                  retry-budget exhaustion surfacing as ChannelError on
//                  both ranks instead of a hang.
//   * MPI       -- recovery is invisible to send/recv; budget exhaustion
//                  propagates as a clean process failure (VcError), not a
//                  deadlock.
// Plus unit tests for sim::FaultSchedule and the registration cache's
// eviction/invalidation behavior under pin-down pressure.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "channel_test_util.hpp"
#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/mr.hpp"
#include "ib/node.hpp"
#include "ib/qp.hpp"
#include "ib/types.hpp"
#include "mpi/runtime.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "rdmach/multi_method_channel.hpp"
#include "rdmach/reg_cache.hpp"
#include "rdmach/verbs_base.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace {

using rdmach::testutil::FaultPlan;
using rdmach::testutil::Traffic;

// ---------------------------------------------------------------------------
// sim::FaultSchedule
// ---------------------------------------------------------------------------

TEST(FaultSchedule, CountsOperationsAndDeliversScheduledKills) {
  sim::FaultSchedule s;
  s.kill("x", 2);
  s.kill_from("x", 5);
  EXPECT_FALSE(s.check("x").has_value());  // 0
  EXPECT_FALSE(s.check("x").has_value());  // 1
  EXPECT_TRUE(s.check("x").has_value());   // 2: the scheduled kill
  EXPECT_FALSE(s.check("x").has_value());  // 3
  EXPECT_FALSE(s.check("x").has_value());  // 4
  EXPECT_TRUE(s.check("x").has_value());   // 5: kill_from
  EXPECT_TRUE(s.check("x").has_value());   // 6: kill_from
  EXPECT_EQ(s.observed("x"), 7u);
  EXPECT_EQ(s.observed("y"), 0u);
  EXPECT_EQ(s.killed(), 3u);
}

TEST(FaultSchedule, ScopesAreIndependentAndKillKindIsCarried) {
  using Kind = sim::FaultSchedule::Fault::Kind;
  sim::FaultSchedule s;
  s.kill("a", 0);
  s.kill("b", 1);
  const auto fa = s.check("a");
  ASSERT_TRUE(fa.has_value());
  EXPECT_EQ(fa->kind, Kind::kKill);
  EXPECT_FALSE(s.check("b").has_value());  // b's own counter: op 0
  const auto fb = s.check("b");            // b op 1: its kill
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->kind, Kind::kKill);
  EXPECT_FALSE(s.check("a").has_value());
  EXPECT_EQ(s.observed("a"), 2u);
  EXPECT_EQ(s.observed("b"), 2u);
  EXPECT_EQ(s.killed(), 2u);
}

TEST(FaultSchedule, CorruptAndExhaustCarryTheirKindAndAreNonFatal) {
  using Kind = sim::FaultSchedule::Fault::Kind;
  sim::FaultSchedule s;
  s.corrupt("x", 1);
  s.exhaust("x.reg", 3, /*n=*/2);
  EXPECT_FALSE(s.check("x").has_value());  // 0
  const auto fc = s.check("x");            // 1: the corruption
  ASSERT_TRUE(fc.has_value());
  EXPECT_EQ(fc->kind, Kind::kCorrupt);
  EXPECT_FALSE(s.check("x").has_value());  // 2
  // Resource sub-scopes count independently of the WQE scope.
  EXPECT_FALSE(s.check("x.reg").has_value());  // 0
  EXPECT_FALSE(s.check("x.reg").has_value());  // 1
  EXPECT_FALSE(s.check("x.reg").has_value());  // 2
  for (int i = 0; i < 2; ++i) {
    const auto fe = s.check("x.reg");  // 3, 4: the denial window
    ASSERT_TRUE(fe.has_value());
    EXPECT_EQ(fe->kind, Kind::kExhaust);
  }
  EXPECT_FALSE(s.check("x.reg").has_value());  // 5: window closed
  EXPECT_EQ(s.observed("x"), 3u);
  EXPECT_EQ(s.observed("x.reg"), 6u);
  EXPECT_EQ(s.killed(), 3u);  // every delivered fault counts, any kind
}

// ---------------------------------------------------------------------------
// Verbs-level RC error semantics
// ---------------------------------------------------------------------------

/// Connected QP pair, same shape as ib_test's rig.
struct Pair {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  ib::Node* a = nullptr;
  ib::Node* b = nullptr;
  ib::ProtectionDomain* pda = nullptr;
  ib::ProtectionDomain* pdb = nullptr;
  ib::CompletionQueue* cqa = nullptr;
  ib::CompletionQueue* cqb = nullptr;
  ib::QueuePair* qpa = nullptr;
  ib::QueuePair* qpb = nullptr;

  explicit Pair(ib::FabricConfig cfg = {}) : fabric(sim, cfg) {
    a = &fabric.add_node("a");
    b = &fabric.add_node("b");
    pda = &a->hca().alloc_pd();
    pdb = &b->hca().alloc_pd();
    cqa = &a->hca().create_cq("cqa");
    cqb = &b->hca().create_cq("cqb");
    qpa = &a->hca().create_qp(*pda, *cqa, *cqa);
    qpb = &b->hca().create_qp(*pdb, *cqb, *cqb);
    qpa->connect(*qpb);
  }
};

TEST(FlushSemantics, ErrorQpFlushesSubsequentWqesInPostOrder) {
  Pair p;
  sim::FaultSchedule faults;
  faults.kill("a", 0);  // first WQE dies -> QP enters error state
  p.fabric.attach_faults(&faults);
  alignas(8) static std::byte buf[64];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        // The victim never reaches SGE validation (the fault fires first),
        // so no registration is needed.
        pr.qpa->post_send(ib::SendWr{1, ib::Opcode::kRdmaWrite,
                                     {ib::Sge{buf, 8, 0}}, 0, 0, true});
        const ib::Wc victim = co_await pr.cqa->next();
        EXPECT_EQ(victim.wr_id, 1u);
        EXPECT_EQ(victim.status, ib::WcStatus::kTransportError);
        EXPECT_TRUE(pr.qpa->in_error());
        // Everything posted to the errored QP completes kFlushError, in
        // exactly the order posted (RC error semantics).
        for (std::uint64_t id = 10; id < 15; ++id) {
          pr.qpa->post_send(ib::SendWr{id, ib::Opcode::kRdmaWrite,
                                       {ib::Sge{buf, 8, 0}}, 0, 0, true});
        }
        for (std::uint64_t id = 10; id < 15; ++id) {
          const ib::Wc wc = co_await pr.cqa->next();
          EXPECT_EQ(wc.wr_id, id);
          EXPECT_EQ(wc.status, ib::WcStatus::kFlushError);
        }
      }(p),
      "flush_order");
  p.sim.run();
  EXPECT_EQ(faults.killed(), 1u);
}

TEST(FlushSemantics, ResetAfterQuiesceReturnsErroredQpToService) {
  Pair p;
  sim::FaultSchedule faults;
  faults.kill("a", 0);
  p.fabric.attach_faults(&faults);
  alignas(8) static std::byte src[64];
  alignas(8) static std::byte dst[64];
  std::memset(src, 0x5c, sizeof(src));
  std::memset(dst, 0, sizeof(dst));
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        ib::MemoryRegion* ms = co_await pr.pda->register_memory(src, 64);
        ib::MemoryRegion* md = co_await pr.pdb->register_memory(dst, 64);
        pr.qpa->post_send(ib::SendWr{1, ib::Opcode::kRdmaWrite,
                                     {ib::Sge{src, 64, ms->lkey()}},
                                     reinterpret_cast<std::uint64_t>(dst),
                                     md->rkey(), true});
        const ib::Wc victim = co_await pr.cqa->next();
        EXPECT_EQ(victim.status, ib::WcStatus::kTransportError);
        EXPECT_TRUE(pr.qpa->in_error());
        // Recovery lifecycle: close (already errored), drain, reset.
        pr.qpa->close();
        co_await pr.qpa->quiesce();
        pr.qpa->reset();
        EXPECT_FALSE(pr.qpa->in_error());
        // The reset QP carries traffic again.
        pr.qpa->post_send(ib::SendWr{2, ib::Opcode::kRdmaWrite,
                                     {ib::Sge{src, 64, ms->lkey()}},
                                     reinterpret_cast<std::uint64_t>(dst),
                                     md->rkey(), true});
        const ib::Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.wr_id, 2u);
        EXPECT_EQ(wc.status, ib::WcStatus::kSuccess);
        EXPECT_EQ(dst[0], std::byte{0x5c});
      }(p),
      "reset");
  p.sim.run();
}

TEST(FlushSemantics, ResetBeforeQuiesceThrows) {
  Pair p;
  alignas(8) static std::byte buf[8];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        // A queued WQE makes the QP non-quiescent; close() will flush it,
        // but reset() must refuse until the drain has actually happened.
        pr.qpa->post_send(ib::SendWr{1, ib::Opcode::kRdmaWrite,
                                     {ib::Sge{buf, 8, 0}}, 0, 0, true});
        pr.qpa->close();
        EXPECT_THROW(pr.qpa->reset(), ib::VerbsError);
        co_await pr.qpa->quiesce();
        pr.qpa->reset();  // fine once drained
        EXPECT_FALSE(pr.qpa->in_error());
        co_return;
      }(p),
      "early_reset");
  p.sim.run();
}

TEST(Inject, RetryStormTimingMatchesDoc) {
  // Pins the timing documented on FabricConfig::inject_error_rate: with
  // rate 1.0 and retry_count 3, a WQE spends wqe_overhead, then 3 failed
  // retransmissions (one retry_delay each), and the kTransportError CQE
  // lags the final attempt by the NAK round trip (2 * wire_latency).
  ib::FabricConfig cfg;
  cfg.inject_error_rate = 1.0;
  cfg.retry_count = 3;
  Pair p(cfg);
  sim::TraceSink sink;
  p.fabric.attach_tracer(&sink);
  alignas(8) static std::byte src[8];
  p.sim.spawn(
      [](Pair& pr, sim::TraceSink& sk) -> sim::Task<void> {
        ib::MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        const sim::Tick t0 = pr.sim.now();
        pr.qpa->post_send(ib::SendWr{1, ib::Opcode::kRdmaWrite,
                                     {ib::Sge{src, 8, ms->lkey()}},
                                     reinterpret_cast<std::uint64_t>(src),
                                     ms->rkey(), true});
        const ib::Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, ib::WcStatus::kTransportError);
        const ib::FabricConfig& c = pr.fabric.cfg();
        EXPECT_EQ(pr.sim.now(), t0 + c.wqe_overhead + 3 * c.retry_delay +
                                    2 * c.wire_latency);
        EXPECT_EQ(sk.count("retransmit"), 3u);
      }(p, sink),
      "storm");
  p.sim.run();
}

// ---------------------------------------------------------------------------
// Differential fault harness (channel level)
// ---------------------------------------------------------------------------

constexpr sim::Tick kDeadline = sim::usec(5'000'000);  // 5 virtual seconds

struct RunResult {
  std::vector<std::byte> received;
  bool send_done = false;
  bool recv_done = false;
  bool send_error = false;
  bool recv_error = false;
  std::uint64_t recoveries = 0;
  std::uint64_t kills = 0;
};

std::uint64_t recoveries_of(rdmach::Channel* ch) {
  if (auto* mm = dynamic_cast<rdmach::MultiMethodChannel*>(ch)) {
    ch = mm->net();
  }
  auto* vb = dynamic_cast<rdmach::VerbsChannelBase*>(ch);
  return vb != nullptr ? vb->recoveries() : 0;
}

/// Streams `traffic` rank0 -> rank1 under `plan`'s fault schedule, then a
/// one-byte completion token rank1 -> rank0 (which keeps the sender's
/// progress engine turning until the receiver has drained everything --
/// unsignaled slot-write failures are only discovered at the next put/get
/// entry).  Runs under a virtual-time deadline, never sim.run(), so a
/// recovery bug shows up as unmet flags rather than a hung test binary.
RunResult run_stream(rdmach::Design design, const Traffic& traffic,
                     FaultPlan* plan, int recovery_max_attempts = 8,
                     rdmach::ChannelConfig base = {}) {
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
      } catch (const rdmach::ChannelError&) {
        rr.send_error = true;
      }
    } else {
      try {
        co_await rdmach::testutil::recv_all(c, conn, rr.received.data(),
                                            rr.received.size());
        const std::byte token{0x1};
        co_await rdmach::testutil::send_all(c, conn, &token, 1);
        rr.recv_done = true;
        co_await c.finalize();
      } catch (const rdmach::ChannelError&) {
        rr.recv_error = true;
      }
    }
  });
  sim.run_until(kDeadline);
  for (int r = 0; r < 2; ++r) rr.recoveries += recoveries_of(ch[r].get());
  if (plan != nullptr) rr.kills = plan->schedule.killed();
  return rr;
}

class FaultDesignTest : public ::testing::TestWithParam<rdmach::Design> {};

INSTANTIATE_TEST_SUITE_P(AllRdmaDesigns, FaultDesignTest,
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

TEST_P(FaultDesignTest, DeliversOracleByteStreamAcrossMidStreamFaults) {
  const Traffic traffic = Traffic::make(/*seed=*/21, /*messages=*/40,
                                        /*min_len=*/1, /*max_len=*/3000);
  // The oracle: the same traffic through the literally-shared-memory
  // channel, fault-free.  By the FIFO-pipe contract its output must equal
  // the concatenated input stream.
  const RunResult oracle =
      run_stream(rdmach::Design::kShm, traffic, /*plan=*/nullptr);
  ASSERT_TRUE(oracle.recv_done);
  ASSERT_TRUE(oracle.send_done);
  ASSERT_EQ(oracle.received, traffic.bytes);

  // Same traffic, transport errors killed mid-stream on both sides.
  FaultPlan plan;
  plan.kill(0, 5).kill(0, 25).kill(1, 3);
  RunResult rr = run_stream(GetParam(), traffic, &plan);
  EXPECT_GE(rr.kills, 1u);
  EXPECT_GE(rr.recoveries, 1u);
  EXPECT_FALSE(rr.send_error);
  EXPECT_FALSE(rr.recv_error);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, oracle.received);
}

TEST(ZeroCopyFault, RendezvousRdmaReadRestartsAfterTransportError) {
  // One message large enough for the zero-copy rendezvous path; the
  // receiver's very first WQE is the RDMA read -- kill it.  Recovery must
  // re-issue the read on the replacement QP (re-registering the
  // destination) and the sender must re-deliver the control slot.
  const Traffic traffic =
      Traffic::make(/*seed=*/7, /*messages=*/1, /*min_len=*/262144,
                    /*max_len=*/262144);
  FaultPlan plan;
  plan.kill(1, 0);
  RunResult rr = run_stream(rdmach::Design::kZeroCopy, traffic, &plan);
  EXPECT_EQ(rr.kills, 1u);
  EXPECT_GE(rr.recoveries, 2u);  // both sides re-handshake
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
}

TEST(ZeroCopyFault, BidirectionalStreamsRecoverIndependently) {
  // Both directions carry traffic and both nodes lose a QP; each side's
  // recovery replays its own outbound ring over the shared re-handshake.
  const Traffic t0 = Traffic::make(101, 3, 1500, 2500);
  const Traffic t1 = Traffic::make(202, 3, 1500, 2500);
  FaultPlan plan;
  plan.kill(0, 2).kill(1, 1);

  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 2};
  rdmach::ChannelConfig cfg;
  cfg.design = rdmach::Design::kZeroCopy;
  std::unique_ptr<rdmach::Channel> ch[2];
  std::vector<std::byte> got0(t1.total());
  std::vector<std::byte> got1(t0.total());
  bool done[2] = {false, false};

  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    ch[ctx.rank] = rdmach::Channel::create(ctx, cfg);
    rdmach::Channel& c = *ch[ctx.rank];
    co_await c.init();
    rdmach::Connection& conn = c.connection(1 - ctx.rank);
    const Traffic& out = ctx.rank == 0 ? t0 : t1;
    std::vector<std::byte>& in = ctx.rank == 0 ? got0 : got1;
    // Both streams fit in the ring, so send-then-receive cannot deadlock.
    std::size_t off = 0;
    for (const std::size_t sz : out.sizes) {
      co_await rdmach::testutil::send_all(c, conn, out.bytes.data() + off, sz);
      off += sz;
    }
    co_await rdmach::testutil::recv_all(c, conn, in.data(), in.size());
    done[ctx.rank] = true;
    co_await c.finalize();
  });
  sim.run_until(kDeadline);

  EXPECT_TRUE(done[0]);
  EXPECT_TRUE(done[1]);
  EXPECT_EQ(got0, t1.bytes);
  EXPECT_EQ(got1, t0.bytes);
  EXPECT_GE(plan.schedule.killed(), 2u);
  EXPECT_GE(recoveries_of(ch[0].get()) + recoveries_of(ch[1].get()), 2u);
}

TEST(AdaptiveFault, ChunkedReadPipelineRecoversAfterAuxQpError) {
  // One read-path rendezvous (256K = two 128K chunk reads on aux QPs); the
  // receiver's very first WQE is the first chunk read -- kill it.  The aux
  // QP errors, the main-QP epoch recovery runs, and replay must reset the
  // aux QP in place and re-pull the failed chunk with a fresh destination
  // registration.
  const Traffic traffic =
      Traffic::make(/*seed=*/8, /*messages=*/1, /*min_len=*/262144,
                    /*max_len=*/262144);
  FaultPlan plan;
  plan.kill(1, 0);
  RunResult rr = run_stream(rdmach::Design::kAdaptive, traffic, &plan);
  EXPECT_EQ(rr.kills, 1u);
  EXPECT_GE(rr.recoveries, 2u);  // both sides re-handshake
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
}

TEST(AdaptiveFault, WriteRendezvousRecoversMidRound) {
  // Force every rendezvous onto the write path (read threshold beyond any
  // message) and kill the sender's data write.  The unsignaled data and FIN
  // writes die with the QP; replay must re-post the whole open CTS round --
  // data then FIN -- from the loaned source bytes.
  rdmach::ChannelConfig base;
  base.rndv_read_threshold = std::size_t{1} << 30;
  const Traffic traffic =
      Traffic::make(/*seed=*/9, /*messages=*/1, /*min_len=*/200000,
                    /*max_len=*/200000);
  FaultPlan plan;
  plan.kill(0, 1);  // op 0 is the RTS slot write, op 1 the rendezvous data
  RunResult rr = run_stream(rdmach::Design::kAdaptive, traffic, &plan,
                            /*recovery_max_attempts=*/8, base);
  EXPECT_EQ(rr.kills, 1u);
  EXPECT_GE(rr.recoveries, 2u);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
}

TEST(AdaptiveFault, MixedRendezvousDifferentialAcrossFaults) {
  // Rendezvous-heavy differential against the shared-memory oracle: message
  // sizes span the eager, write, and read bands, with transport errors
  // killed on both sides mid-stream.
  const Traffic traffic = Traffic::make(/*seed=*/10, /*messages=*/12,
                                        /*min_len=*/20'000,
                                        /*max_len=*/300'000);
  const RunResult oracle =
      run_stream(rdmach::Design::kShm, traffic, /*plan=*/nullptr);
  ASSERT_TRUE(oracle.recv_done);
  ASSERT_EQ(oracle.received, traffic.bytes);

  FaultPlan plan;
  plan.kill(0, 5).kill(0, 40).kill(1, 2).kill(1, 30);
  RunResult rr = run_stream(rdmach::Design::kAdaptive, traffic, &plan);
  EXPECT_GE(rr.kills, 2u);
  EXPECT_GE(rr.recoveries, 2u);
  EXPECT_FALSE(rr.send_error);
  EXPECT_FALSE(rr.recv_error);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, oracle.received);
}

// ---------------------------------------------------------------------------
// RC error model: one failure path for every exhausted WQE
// ---------------------------------------------------------------------------

TEST(RcErrorModel, LossExhaustionKeepsStreamExact) {
  // Census over every RDMA design, both ranks and every WQE index of a
  // clean run: an op-wide window of total gray loss exhausts exactly that
  // WQE's retry budget.  Exhaustion must error the QP like a kill, or the
  // WQE behind the victim -- a ring flag, a head-pointer write, a FIN --
  // lands and publishes bytes that never arrived.  A point passes when it
  // delivers the oracle's stream or raises a clean ChannelError; wrong
  // bytes and hangs never pass.
  const Traffic traffic = Traffic::make(/*seed=*/7, /*messages=*/10,
                                        /*min_len=*/1, /*max_len=*/300000);
  const RunResult oracle =
      run_stream(rdmach::Design::kShm, traffic, /*plan=*/nullptr);
  ASSERT_TRUE(oracle.recv_done);
  ASSERT_EQ(oracle.received, traffic.bytes);
  sim::FaultSchedule::DegradeSpec lossy;
  lossy.drop_prob = 1.0;
  for (const rdmach::Design design :
       {rdmach::Design::kBasic, rdmach::Design::kPiggyback,
        rdmach::Design::kPipeline, rdmach::Design::kZeroCopy,
        rdmach::Design::kMultiMethod, rdmach::Design::kAdaptive}) {
    FaultPlan clean;
    const RunResult base = run_stream(design, traffic, &clean);
    ASSERT_EQ(base.received, oracle.received) << rdmach::to_string(design);
    std::uint64_t recovered = 0;
    for (int rank = 0; rank < 2; ++rank) {
      const std::uint64_t ops =
          clean.schedule.observed(FaultPlan::scope_of(rank));
      EXPECT_GT(ops, 0u);
      for (std::uint64_t k = 0; k < ops; ++k) {
        FaultPlan plan;
        plan.degrade(rank, lossy, k, k + 1);
        const RunResult rr = run_stream(design, traffic, &plan);
        const bool wrong = rr.recv_done && rr.received != oracle.received;
        const bool settled =
            (rr.send_done && rr.recv_done) || rr.send_error || rr.recv_error;
        EXPECT_TRUE(settled && !wrong)
            << rdmach::to_string(design) << " rank " << rank << " op " << k
            << (wrong ? ": wrong bytes" : ": hang");
        recovered += rr.recoveries > 0 ? 1 : 0;
      }
    }
    EXPECT_GT(recovered, 0u) << rdmach::to_string(design)
                             << ": no exhaustion was ever recovered";
  }
}

TEST(MultiMethodFault, LastWriteKilledBeforeFinalizeIsRedelivered) {
  // One of the receiver's last WQEs -- those that carry its completion
  // token -- dies just before both ranks finalize.  The verbs member's
  // recovery-aware drain must run before the shm member's blocking barrier
  // parks the rank, or the token is never replayed and the sender waits
  // for it forever.
  const Traffic traffic = Traffic::make(/*seed=*/7, /*messages=*/10,
                                        /*min_len=*/1, /*max_len=*/300000);
  for (const std::uint64_t victim : {19u, 20u}) {
    FaultPlan plan;
    plan.kill(1, victim);
    const RunResult rr =
        run_stream(rdmach::Design::kMultiMethod, traffic, &plan);
    EXPECT_EQ(rr.kills, 1u) << "op " << victim;
    EXPECT_TRUE(rr.send_done) << "op " << victim;
    EXPECT_TRUE(rr.recv_done) << "op " << victim;
    EXPECT_EQ(rr.received, traffic.bytes) << "op " << victim;
  }
}

TEST(RecoveryBudget, ExhaustionSurfacesChannelErrorOnBothRanksWithoutHang) {
  // node0's HCA never completes another WQE: every recovery epoch replays
  // into the same wall.  After recovery_max_attempts consecutive attempts
  // with no watermark progress the sender must declare the connection dead
  // and raise ChannelError; the peer learns of it through the published
  // dead marker and raises too.  Neither side may hang.
  const Traffic traffic = Traffic::make(/*seed=*/33, /*messages=*/10,
                                        /*min_len=*/100, /*max_len=*/1000);
  FaultPlan plan;
  plan.kill_from(0, 0);
  const RunResult rr = run_stream(rdmach::Design::kPiggyback, traffic, &plan,
                                  /*recovery_max_attempts=*/3);
  EXPECT_TRUE(rr.send_error);
  EXPECT_TRUE(rr.recv_error);
  EXPECT_FALSE(rr.send_done);
  EXPECT_FALSE(rr.recv_done);
  EXPECT_GE(rr.kills, 1u);
}

TEST(RecoveryBudget, FaultFreeTrafficPerformsNoRecoveries) {
  // The recovery machinery must be invisible when nothing fails.
  const Traffic traffic = Traffic::make(5, 10, 1, 2000);
  const RunResult rr =
      run_stream(rdmach::Design::kZeroCopy, traffic, /*plan=*/nullptr);
  EXPECT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  EXPECT_EQ(rr.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// MPI-level behavior
// ---------------------------------------------------------------------------

TEST(MpiFault, SendRecvCompletesAcrossTransportErrors) {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  sim::FaultSchedule faults;
  faults.kill("node0", 0);
  faults.kill("node0", 3);
  faults.kill("node1", 0);
  fabric.attach_faults(&faults);
  pmi::Job job{fabric, 2};
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = rdmach::Design::kPipeline;
  constexpr int kN = 20'000;  // several ring slots' worth
  std::vector<int> got(kN, -1);
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
    co_await rt.finalize();
  });
  sim.run();  // completes: recovery is invisible at the MPI layer
  EXPECT_GE(faults.killed(), 2u);
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)], i) << "at index " << i;
  }
}

TEST(MpiFault, RecoveryBudgetExhaustionFailsTheProcessCleanly) {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  sim::FaultSchedule faults;
  faults.kill_from("node0", 0);
  fabric.attach_faults(&faults);
  pmi::Job job{fabric, 2};
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = rdmach::Design::kPiggyback;
  cfg.stack.channel.recovery_max_attempts = 2;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    int v = 42;
    if (ctx.rank == 0) {
      co_await rt.world().send(&v, 1, mpi::Datatype::kInt, 1, 0);
    } else {
      co_await rt.world().recv(&v, 1, mpi::Datatype::kInt, 0, 0);
    }
    co_await rt.finalize();
  });
  // The dead connection surfaces as ch3::VcError out of the rank body,
  // which the simulator reports as a failed process -- not a deadlock.
  EXPECT_THROW(sim.run(), sim::ProcessError);
  EXPECT_GE(faults.killed(), 1u);
}

// ---------------------------------------------------------------------------
// Registration cache under pin-down pressure
// ---------------------------------------------------------------------------

struct CacheRig {
  sim::Simulator sim;
  ib::Fabric fabric;
  ib::Node* node = nullptr;
  ib::ProtectionDomain* pd = nullptr;

  explicit CacheRig(ib::FabricConfig cfg = {}) : fabric(sim, cfg) {
    node = &fabric.add_node("n");
    pd = &node->hca().alloc_pd();
  }
};

TEST(RegCache, EvictsUnpinnedEntriesWhenTheHcaRefusesToRegister) {
  ib::FabricConfig fcfg;
  fcfg.max_registered_bytes = 8192;  // room for exactly two pages
  CacheRig rig(fcfg);
  rdmach::RegCache cache(*rig.pd, /*capacity_bytes=*/1u << 20,
                         /*enabled=*/true);
  std::vector<std::byte> a(4096), b(4096), c(4096), d(4096);
  rig.sim.spawn(
      [](CacheRig& r, rdmach::RegCache& cc, std::vector<std::byte>& ba,
         std::vector<std::byte>& bb, std::vector<std::byte>& bc,
         std::vector<std::byte>& bd) -> sim::Task<void> {
        ib::MemoryRegion* ma = co_await cc.acquire(ba.data(), ba.size());
        co_await cc.release(ma);  // cached, unpinned
        ib::MemoryRegion* mb = co_await cc.acquire(bb.data(), bb.size());
        EXPECT_EQ(r.pd->registered_bytes(), 8192);
        // Third page: the HCA refuses; the cache must evict the unpinned
        // entry and retry rather than surface the failure.
        ib::MemoryRegion* mc = co_await cc.acquire(bc.data(), bc.size());
        EXPECT_NE(mc, nullptr);
        EXPECT_EQ(cc.evictions(), 1u);
        EXPECT_EQ(r.pd->registered_bytes(), 8192);
        // Fourth page with everything pinned: nothing evictable, so the
        // RegistrationError propagates to the caller.
        bool threw = false;
        try {
          co_await cc.acquire(bd.data(), bd.size());
        } catch (const ib::RegistrationError&) {
          threw = true;
        }
        EXPECT_TRUE(threw);
        co_await cc.release(mb);
        co_await cc.release(mc);
        co_await cc.flush();
        EXPECT_EQ(r.pd->registered_bytes(), 0);
      }(rig, cache, a, b, c, d),
      "evict");
  rig.sim.run();
}

TEST(RegCache, InvalidateRemovesTheEntryEvenWhilePinned) {
  CacheRig rig;
  rdmach::RegCache cache(*rig.pd, 1u << 20, /*enabled=*/true);
  std::vector<std::byte> buf(8192);
  rig.sim.spawn(
      [](CacheRig& r, rdmach::RegCache& cc,
         std::vector<std::byte>& b) -> sim::Task<void> {
        ib::MemoryRegion* mr = co_await cc.acquire(b.data(), b.size());
        EXPECT_EQ(cc.misses(), 1u);
        EXPECT_EQ(cc.entry_count(), 1u);
        // Recovery path: the registration is involved in a torn-down
        // transfer; it must go away even though it is still pinned.
        co_await cc.invalidate(mr);
        EXPECT_EQ(cc.entry_count(), 0u);
        EXPECT_EQ(cc.cached_bytes(), 0u);
        EXPECT_EQ(r.pd->registered_bytes(), 0);
        // Reuse is a fresh miss, not a stale hit.
        ib::MemoryRegion* again = co_await cc.acquire(b.data(), b.size());
        EXPECT_EQ(cc.misses(), 2u);
        EXPECT_EQ(cc.hits(), 0u);
        co_await cc.release(again);
        co_await cc.flush();
      }(rig, cache, buf),
      "invalidate");
  rig.sim.run();
}

TEST(RegCache, CountersStayConsistentUnderRandomChurn) {
  CacheRig rig;
  // Small capacity so LRU eviction runs constantly.
  rdmach::RegCache cache(*rig.pd, 3 * 4096, /*enabled=*/true);
  constexpr std::size_t kBufs = 8;
  std::vector<std::vector<std::byte>> bufs(kBufs,
                                           std::vector<std::byte>(4096));
  rig.sim.spawn(
      [](CacheRig& r, rdmach::RegCache& cc,
         std::vector<std::vector<std::byte>>& bs) -> sim::Task<void> {
        sim::Rng rng(77);
        std::vector<ib::MemoryRegion*> pinned(bs.size(), nullptr);
        std::uint64_t acquires = 0;
        for (int i = 0; i < 200; ++i) {
          const std::size_t k =
              static_cast<std::size_t>(rng.below(bs.size()));
          if (pinned[k] != nullptr) {
            co_await cc.release(pinned[k]);
            pinned[k] = nullptr;
          } else {
            pinned[k] = co_await cc.acquire(bs[k].data(), bs[k].size());
            ++acquires;
          }
          // Invariants at every step: the counters partition the acquire
          // stream and byte accounting matches the entry table.
          EXPECT_EQ(cc.hits() + cc.misses(), acquires);
          EXPECT_EQ(cc.cached_bytes(), cc.entry_count() * 4096);
          EXPECT_LE(cc.evictions(), cc.misses());
        }
        for (std::size_t k = 0; k < bs.size(); ++k) {
          if (pinned[k] != nullptr) co_await cc.release(pinned[k]);
        }
        co_await cc.flush();
        EXPECT_EQ(cc.entry_count(), 0u);
        EXPECT_EQ(cc.cached_bytes(), 0u);
        EXPECT_EQ(r.pd->registered_bytes(), 0);
      }(rig, cache, bufs),
      "churn");
  rig.sim.run();
}

}  // namespace
