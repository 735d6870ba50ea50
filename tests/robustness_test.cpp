// Edge-case and robustness tests across layers: the bandwidth calendar's
// gap-filling, slot-generation wraparound in the ring protocol, zero-length
// transfers, incast fairness on the RX link, deep churn runs, and the
// gray-failure stack (degraded-link injection, accrual suspicion, rail
// quarantine) under differential oracle checks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel_test_util.hpp"
#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/mr.hpp"
#include "ib/qp.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "sim/fault.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"

namespace {

using rdmach::testutil::FaultPlan;
using rdmach::testutil::recv_all;
using rdmach::testutil::send_all;
using rdmach::testutil::Traffic;

// ---------------------------------------------------------------------------
// Bandwidth calendar.
// ---------------------------------------------------------------------------

TEST(Calendar, LocalRequestFillsGapBeforeFutureBooking) {
  sim::Simulator sim;
  sim::BandwidthResource bus(sim, "bus", 1000.0);  // 1 byte/ns
  // A future booking leaves [now, 10us) idle.
  const sim::Tick far = bus.reserve_from(sim::usec(10.0), 1000);
  EXPECT_EQ(far, sim::usec(11.0));
  // A small immediate request must slot into the gap, not queue behind.
  const sim::Tick nearby = bus.reserve(2000);
  EXPECT_EQ(nearby, sim::usec(2.0));
  // A request too large for the gap goes after the future booking.
  const sim::Tick big = bus.reserve(9000);
  EXPECT_EQ(big, sim::usec(20.0));
}

TEST(Calendar, CoalescingKeepsCalendarSmallUnderChurn) {
  sim::Simulator sim;
  sim::BandwidthResource bus(sim, "bus", 1000.0);
  // Back-to-back bookings coalesce into one interval; total time is exact.
  sim::Tick last = 0;
  for (int i = 0; i < 10'000; ++i) last = bus.reserve(100);
  EXPECT_EQ(last, sim::usec(1000.0));
  EXPECT_EQ(bus.total_bytes(), 1'000'000);
}

TEST(Calendar, RandomizedBookingsNeverOverlap) {
  // Property: completion times returned for a fixed arrival instant are
  // distinct and each request takes at least its serialization time.
  sim::Simulator sim;
  sim::BandwidthResource bus(sim, "bus", 1600.0);
  sim::Rng rng(555);
  std::vector<std::pair<sim::Tick, sim::Tick>> spans;  // (done, bytes-time)
  for (int i = 0; i < 300; ++i) {
    const std::int64_t bytes = 1 + static_cast<std::int64_t>(rng.below(8192));
    const sim::Tick earliest = static_cast<sim::Tick>(rng.below(sim::usec(50)));
    const sim::Tick done = bus.reserve_from(earliest, bytes);
    const sim::Tick dur = sim::transfer_time(bytes, 1600.0);
    EXPECT_GE(done, earliest + dur);
    spans.emplace_back(done, dur);
  }
  // Total busy time equals the sum of durations (no double booking).
  sim::Tick total = 0;
  for (auto& [done, dur] : spans) total += dur;
  EXPECT_EQ(bus.busy_ticks(), total);
}

// ---------------------------------------------------------------------------
// Ring protocol wraparound.
// ---------------------------------------------------------------------------

TEST(SlotRing, GenerationFlagsSurviveThousandsOfWraps) {
  // 8 slots per ring: 4000 messages wrap the ring 500 times; generation
  // stamps must keep stale flags from ever matching.
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 2);
  rdmach::ChannelConfig cfg;
  cfg.design = rdmach::Design::kPiggyback;
  std::unique_ptr<rdmach::Channel> chans[2];
  int checked = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = rdmach::Channel::create(ctx, cfg);
    auto& ch = *chans[ctx.rank];
    co_await ch.init();
    auto& conn = ch.connection(1 - ctx.rank);
    constexpr int kMsgs = 4000;
    if (ctx.rank == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        co_await send_all(ch, conn, &i, sizeof(i));
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        co_await recv_all(ch, conn, &v, sizeof(v));
        if (v == i) ++checked;
      }
    }
    co_await ch.finalize();
  });
  sim.run();
  EXPECT_EQ(checked, 4000);
}

TEST(Channels, ZeroLengthPutGetAreSafeNoOps) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 2);
  rdmach::ChannelConfig cfg;  // zero-copy default
  std::unique_ptr<rdmach::Channel> chans[2];
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = rdmach::Channel::create(ctx, cfg);
    auto& ch = *chans[ctx.rank];
    co_await ch.init();
    auto& conn = ch.connection(1 - ctx.rank);
    std::byte b{};
    const std::size_t p = co_await ch.put(conn, &b, 0);
    EXPECT_EQ(p, 0u);
    const std::size_t g = co_await ch.get(conn, &b, 0);
    EXPECT_EQ(g, 0u);
    // A real byte still flows afterwards.
    if (ctx.rank == 0) {
      b = std::byte{0x7e};
      co_await send_all(ch, conn, &b, 1);
    } else {
      co_await recv_all(ch, conn, &b, 1);
      EXPECT_EQ(b, std::byte{0x7e});
    }
    co_await ch.finalize();
  });
  sim.run();
}

// ---------------------------------------------------------------------------
// Incast: several senders share one receiver's RX link fairly enough.
// ---------------------------------------------------------------------------

TEST(Incast, SevenSendersShareTheReceiverLink) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  constexpr int kSenders = 7;
  constexpr std::size_t kMsg = 1 << 20;
  ib::Node& rx = fabric.add_node("rx");
  ib::ProtectionDomain& rx_pd = rx.hca().alloc_pd();
  static std::vector<std::vector<std::byte>> dst(
      kSenders, std::vector<std::byte>(kMsg));
  static std::vector<std::byte> src(kMsg, std::byte{1});
  std::vector<sim::Tick> done(kSenders, 0);

  for (int s = 0; s < kSenders; ++s) {
    ib::Node& tx = fabric.add_node("tx" + std::to_string(s));
    ib::ProtectionDomain& pd = tx.hca().alloc_pd();
    ib::CompletionQueue& cq = tx.hca().create_cq("cq" + std::to_string(s));
    ib::CompletionQueue& rcq = rx.hca().create_cq("rcq" + std::to_string(s));
    ib::QueuePair& qp = tx.hca().create_qp(pd, cq, cq);
    ib::QueuePair& rqp = rx.hca().create_qp(rx_pd, rcq, rcq);
    qp.connect(rqp);
    sim.spawn(
        [](ib::ProtectionDomain& spd, ib::ProtectionDomain& dpd,
           ib::QueuePair& q, ib::CompletionQueue& c, int idx,
           sim::Tick& out) -> sim::Task<void> {
          ib::MemoryRegion* ms = co_await spd.register_memory(src.data(), kMsg);
          ib::MemoryRegion* md = co_await dpd.register_memory(
              dst[static_cast<std::size_t>(idx)].data(), kMsg);
          q.post_send(ib::SendWr{
              1, ib::Opcode::kRdmaWrite, {ib::Sge{src.data(), kMsg, ms->lkey()}},
              reinterpret_cast<std::uint64_t>(
                  dst[static_cast<std::size_t>(idx)].data()),
              md->rkey(), true});
          (void)co_await c.next();
          out = q.hca().fabric().sim().now();
        }(pd, rx_pd, qp, cq, s, done[static_cast<std::size_t>(s)]),
        "sender" + std::to_string(s));
  }
  sim.run();
  // All seven 1 MB writes funnel through one 870 MB/s RX link: aggregate
  // time ~= 7 MB / 870 MB/s ~= 8.4 ms, and completion times are spread
  // (fair-ish interleaving), not one-at-a-time serial.
  sim::Tick min_done = done[0], max_done = done[0];
  for (sim::Tick t : done) {
    min_done = std::min(min_done, t);
    max_done = std::max(max_done, t);
  }
  EXPECT_NEAR(sim::to_usec(max_done), 7.0 * kMsg / 870.0, 600.0);
  // Chunk-level interleaving: the first completion cannot be a single
  // un-contended transfer (that would be ~1.2 ms).
  EXPECT_GT(sim::to_usec(min_done), 2.0 * kMsg / 870.0);
}

// ---------------------------------------------------------------------------
// Gray failures: degraded links, suspicion, quarantine (ctest label: gray).
// ---------------------------------------------------------------------------

constexpr sim::Tick kGrayDeadline = sim::usec(5'000'000);

struct GrayResult {
  std::vector<std::byte> received;
  bool send_done = false;
  bool recv_done = false;
  int errors = 0;  // ranks that surfaced a ChannelError
  sim::Tick finished = 0;
  rdmach::ChannelStats stats;  // both ranks, summed
};

/// Same deadline-bounded rank0 -> rank1 stream shape as the chaos and
/// multirail harnesses, for an arbitrary design and fabric, summing the
/// gray-failure counters.
GrayResult run_gray(rdmach::Design design, const ib::FabricConfig& fcfg,
                    const rdmach::testutil::Traffic& traffic, FaultPlan* plan,
                    rdmach::ChannelConfig cfg) {
  GrayResult rr;
  sim::Simulator sim;
  ib::Fabric fabric{sim, fcfg};
  if (plan != nullptr) fabric.attach_faults(&plan->schedule);
  pmi::Job job{fabric, 2};
  cfg.design = design;
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
          co_await send_all(c, conn, traffic.bytes.data() + off, sz);
          off += sz;
        }
        std::byte token{};
        co_await recv_all(c, conn, &token, 1);
        rr.send_done = true;
        if (++done_ranks == 2) rr.finished = ctx.sim().now();
        co_await c.finalize();
      } catch (const rdmach::ChannelError&) {
        ++rr.errors;
      }
    } else {
      try {
        co_await recv_all(c, conn, rr.received.data(), rr.received.size());
        const std::byte token{0x1};
        co_await send_all(c, conn, &token, 1);
        rr.recv_done = true;
        if (++done_ranks == 2) rr.finished = ctx.sim().now();
        co_await c.finalize();
      } catch (const rdmach::ChannelError&) {
        ++rr.errors;
      }
    }
  });
  sim.run_until(kGrayDeadline);
  for (int r = 0; r < 2; ++r) {
    if (ch[r] == nullptr) continue;
    rr.stats += ch[r]->stats();
  }
  return rr;
}

ib::FabricConfig gray_rails(int ports) {
  ib::FabricConfig f;
  f.ports_per_hca = ports;
  return f;
}

TEST(GrayFailure, DegradeOnlyChaosStaysOracleEqualAcrossDesigns) {
  // Differential: a seeded degrade-only mix (stacked latency/bandwidth
  // windows, an extra-latency window, a lossy-but-retried window) must be
  // invisible to correctness on EVERY design -- same oracle byte stream,
  // zero ChannelErrors, zero recovery episodes.  Gray is slow, never
  // fail-stop.
  const Traffic traffic = Traffic::make(/*seed=*/301, /*messages=*/100,
                                        /*min_len=*/1, /*max_len=*/16'000);
  const rdmach::Design designs[] = {
      rdmach::Design::kBasic,     rdmach::Design::kPiggyback,
      rdmach::Design::kPipeline,  rdmach::Design::kZeroCopy,
      rdmach::Design::kMultiMethod, rdmach::Design::kAdaptive};
  for (const rdmach::Design d : designs) {
    FaultPlan plan;
    sim::FaultSchedule::DegradeSpec slow;
    slow.latency_mult = 5.0;
    slow.bandwidth_mult = 0.5;
    sim::FaultSchedule::DegradeSpec lag;
    lag.latency_add = sim::usec(20);
    sim::FaultSchedule::DegradeSpec lossy;
    lossy.drop_prob = 0.05;
    plan.degrade(0, slow, 10, 150);
    plan.degrade(0, lossy, 40, 90);  // overlaps `slow`: specs stack
    plan.degrade(1, lag, 20, 120);
    rdmach::ChannelConfig cfg;
    cfg.integrity_check = true;
    GrayResult rr = run_gray(d, {}, traffic, &plan, cfg);
    const std::string name = rdmach::to_string(d);
    EXPECT_EQ(rr.errors, 0) << name;
    ASSERT_TRUE(rr.send_done) << name;
    ASSERT_TRUE(rr.recv_done) << name;
    EXPECT_EQ(rr.received, traffic.bytes) << name;
    EXPECT_EQ(rr.stats.recoveries, 0u) << name;
    EXPECT_EQ(plan.schedule.killed(), 0u) << name;
    EXPECT_GT(plan.schedule.degraded_ops(), 0u) << name;
  }
}

TEST(GrayFailure, TenXLatencyRailIsNeverConvictedDead) {
  // Satellite regression for the watchdog re-arm asymmetry: under a
  // sustained 10x-latency / quarter-bandwidth degrade (no drops, nothing
  // actually dead) and a watchdog deadline 50x tighter than the default,
  // real kills must still recover -- each successful completion drained
  // during an armed episode counts as progress and re-arms the deadline --
  // and the degraded-but-alive link must NEVER be converted into
  // ChannelError::kDead.
  const Traffic traffic = Traffic::make(/*seed=*/302, /*messages=*/60,
                                        /*min_len=*/100, /*max_len=*/4'000);
  for (const rdmach::Design d :
       {rdmach::Design::kPipeline, rdmach::Design::kAdaptive}) {
    FaultPlan plan;
    sim::FaultSchedule::DegradeSpec gray;
    gray.latency_mult = 10.0;
    gray.bandwidth_mult = 0.25;
    plan.degrade(0, gray);  // forever: the link never heals
    plan.degrade(1, gray);
    plan.kill(0, 30).kill(0, 90).kill(0, 150);  // real faults to recover
    rdmach::ChannelConfig cfg;
    cfg.recovery_epoch_deadline = sim::usec(1'000);
    GrayResult rr = run_gray(d, {}, traffic, &plan, cfg);
    const std::string name = rdmach::to_string(d);
    EXPECT_EQ(rr.errors, 0) << name;
    ASSERT_TRUE(rr.send_done) << name;
    ASSERT_TRUE(rr.recv_done) << name;
    EXPECT_EQ(rr.received, traffic.bytes) << name;
    EXPECT_GE(rr.stats.recoveries, 1u) << name;
    EXPECT_EQ(rr.stats.watchdog_trips, 0u) << name;
  }
}

TEST(GrayFailure, SuspicionQuarantinesGrayRailThenReinstates) {
  // Two equal rails; the receiver's rail 1 (it initiates the chunk reads)
  // turns gray after the detector's warmup window and heals later.  The
  // accrual detector must pull the rail from the stripe set proactively --
  // no watchdog trip, no recovery episode, nothing was ever dead -- keep
  // it on probation probes, and reinstate it once probes measure healthy.
  const Traffic traffic =
      Traffic::make(/*seed=*/303, /*messages=*/48, /*min_len=*/256u << 10,
                    /*max_len=*/512u << 10);
  FaultPlan plan;
  sim::FaultSchedule::DegradeSpec gray;
  gray.latency_mult = 8.0;
  gray.bandwidth_mult = 0.125;
  plan.degrade_rail(/*rank=*/1, /*rail=*/1, gray, /*from=*/12, /*until=*/30);
  rdmach::ChannelConfig cfg;
  cfg.health_detector = true;
  cfg.health_probe_interval = 2;   // probe often: the window is op-indexed
  GrayResult rr = run_gray(rdmach::Design::kAdaptive, gray_rails(2), traffic,
                           &plan, cfg);
  EXPECT_EQ(rr.errors, 0);
  ASSERT_TRUE(rr.send_done);
  ASSERT_TRUE(rr.recv_done);
  EXPECT_EQ(rr.received, traffic.bytes);
  EXPECT_GE(rr.stats.suspicion_trips, 1u);
  EXPECT_GE(rr.stats.rail_quarantines, 1u);
  EXPECT_GE(rr.stats.rail_reinstates, 1u);  // healed without a reconnect
  EXPECT_GT(rr.stats.degraded_ns, 0u);
  EXPECT_EQ(rr.stats.watchdog_trips, 0u);   // quarantine preempted it
  EXPECT_EQ(rr.stats.recoveries, 0u);
  EXPECT_EQ(rr.stats.rail_failovers, 0u);   // the rail never died
}

TEST(GrayFailure, QuarantineBeatsNoQuarantineOnAsymmetricGrayRail) {
  // Acceptance duel on the >= 1MB plateau: an 870 + 290 MB/s fabric whose
  // slow rail additionally turns gray (quarter bandwidth, 4x latency, 20%
  // drops).  Weighted striping + quarantine must finish the stream at
  // least 1.3x faster than the no-quarantine baseline (naive round-robin
  // striping, detector off), which keeps gating every stripe on the gray
  // rail.
  const Traffic traffic =
      Traffic::make(/*seed=*/304, /*messages=*/16, /*min_len=*/1u << 20,
                    /*max_len=*/2u << 20);
  ib::FabricConfig fcfg = gray_rails(2);
  fcfg.rail_link_mbps = {870.0, 290.0};
  sim::FaultSchedule::DegradeSpec gray;
  gray.latency_mult = 4.0;
  gray.bandwidth_mult = 0.25;
  gray.drop_prob = 0.2;

  FaultPlan plan_on;
  plan_on.degrade_rail(1, 1, gray, /*from=*/12);
  rdmach::ChannelConfig with;
  with.health_detector = true;
  with.rail_policy = rdmach::RailPolicy::kWeighted;
  const GrayResult on =
      run_gray(rdmach::Design::kAdaptive, fcfg, traffic, &plan_on, with);

  FaultPlan plan_off;
  plan_off.degrade_rail(1, 1, gray, /*from=*/12);
  rdmach::ChannelConfig without;
  without.health_detector = false;
  without.rail_policy = rdmach::RailPolicy::kRoundRobin;
  const GrayResult off =
      run_gray(rdmach::Design::kAdaptive, fcfg, traffic, &plan_off, without);

  ASSERT_TRUE(on.send_done && on.recv_done);
  ASSERT_TRUE(off.send_done && off.recv_done);
  EXPECT_EQ(on.errors, 0);
  EXPECT_EQ(off.errors, 0);
  EXPECT_EQ(on.received, traffic.bytes);
  EXPECT_EQ(off.received, traffic.bytes);
  EXPECT_GE(on.stats.rail_quarantines, 1u);
  EXPECT_GE(static_cast<double>(off.finished),
            1.3 * static_cast<double>(on.finished))
      << "quarantine=" << sim::to_usec(on.finished)
      << "us no-quarantine=" << sim::to_usec(off.finished) << "us";
}

TEST(GrayFailure, ArmedButFaultFreeDetectorChangesNothing) {
  // The same-binary bit-identity rule, observable face: with no faults
  // injected, turning the health detector ON must not move a single event
  // -- identical bytes, identical finish tick, every gray counter zero.
  const Traffic traffic =
      Traffic::make(/*seed=*/305, /*messages=*/24, /*min_len=*/1'000,
                    /*max_len=*/300'000);
  rdmach::ChannelConfig off;
  const GrayResult a =
      run_gray(rdmach::Design::kAdaptive, gray_rails(2), traffic, nullptr, off);
  rdmach::ChannelConfig onn;
  onn.health_detector = true;
  const GrayResult b =
      run_gray(rdmach::Design::kAdaptive, gray_rails(2), traffic, nullptr, onn);
  ASSERT_TRUE(a.send_done && a.recv_done);
  ASSERT_TRUE(b.send_done && b.recv_done);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(b.stats.suspicion_trips, 0u);
  EXPECT_EQ(b.stats.rail_quarantines, 0u);
  EXPECT_EQ(b.stats.false_suspicions, 0u);
  EXPECT_EQ(b.stats.degraded_ns, 0u);
}

}  // namespace
