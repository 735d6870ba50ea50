// Scalability suite (`scale` ctest label): on-demand (lazy) connection
// establishment, the LRU connection cache under qp_budget, SRQ-style
// shared receive-ring pooling, kill-faults against cold/evicted peers,
// and the DES hot-path pooling counters.
//
// The oracle throughout is the eager (lazy_connect off) configuration:
// every lazy/budgeted/pooled run must deliver the identical byte streams,
// differing only in its connection-plane statistics.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel_test_util.hpp"
#include "ib/fabric.hpp"
#include "ib/srq.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/adaptive_channel.hpp"
#include "rdmach/channel.hpp"
#include "rdmach/piggyback_channel.hpp"
#include "rdmach/verbs_base.hpp"
#include "sim/rng.hpp"

namespace rdmach {
namespace {

using testutil::FaultPlan;
using testutil::recv_all;
using testutil::send_all;

constexpr sim::Tick kDeadline = sim::usec(30'000'000);  // 30 virtual seconds

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xff);
  return v;
}

/// Per-ordered-pair deterministic payload: the differential oracle.
std::vector<std::byte> pair_msg(int from, int to, std::size_t n) {
  return pattern(n, 0x5CA1E000ull + static_cast<std::uint64_t>(from) * 4096 +
                        static_cast<std::uint64_t>(to));
}

/// N-rank harness: every rank runs `body`, under an optional fault plan.
struct Fleet {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  int n;
  pmi::Job job;
  ChannelConfig cfg;
  std::vector<std::unique_ptr<Channel>> ch;
  std::vector<bool> done;
  std::vector<bool> error;

  Fleet(int ranks, ChannelConfig base, FaultPlan* plan = nullptr)
      : n(ranks), job{fabric, ranks}, cfg(base), ch(static_cast<std::size_t>(
                                                     ranks)),
        done(static_cast<std::size_t>(ranks), false),
        error(static_cast<std::size_t>(ranks), false) {
    if (plan != nullptr) fabric.attach_faults(&plan->schedule);
  }

  using Body = std::function<sim::Task<void>(pmi::Context&, Channel&)>;

  void run(Body body) {
    job.launch([this, body](pmi::Context& ctx) -> sim::Task<void> {
      ch[static_cast<std::size_t>(ctx.rank)] = Channel::create(ctx, cfg);
      Channel& c = *ch[static_cast<std::size_t>(ctx.rank)];
      try {
        co_await c.init();
        co_await body(ctx, c);
        co_await c.finalize();
        done[static_cast<std::size_t>(ctx.rank)] = true;
      } catch (const ChannelError&) {
        error[static_cast<std::size_t>(ctx.rank)] = true;
      }
    });
    sim.run_until(kDeadline);
  }

  bool all_done() const {
    for (const bool d : done) {
      if (!d) return false;
    }
    return true;
  }
  bool all_settled() const {
    for (std::size_t r = 0; r < done.size(); ++r) {
      if (!done[r] && !error[r]) return false;
    }
    return true;
  }
};

/// Pairwise all-to-all: XOR pairing (n must be a power of two) makes every
/// phase a symmetric matching, so the blocking send/recv exchanges are
/// deadlock-free even when ranks drift across phases.  The lower rank of
/// each pair sends first.
sim::Task<void> all_pairs_body(pmi::Context& ctx, Channel& ch,
                               std::size_t msg_len,
                               std::vector<std::vector<std::byte>>& got) {
  const int n = ctx.size;
  const int me = ctx.rank;
  for (int phase = 1; phase < n; ++phase) {
    const int peer = me ^ phase;
    Connection& conn = ch.connection(peer);
    const std::vector<std::byte> out = pair_msg(me, peer, msg_len);
    got[static_cast<std::size_t>(peer)].resize(msg_len);
    if (me < peer) {
      co_await send_all(ch, conn, out.data(), out.size());
      co_await recv_all(ch, conn,
                        got[static_cast<std::size_t>(peer)].data(), msg_len);
    } else {
      co_await recv_all(ch, conn,
                        got[static_cast<std::size_t>(peer)].data(), msg_len);
      co_await send_all(ch, conn, out.data(), out.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Differential: lazy connect (with and without budget/pool) vs eager
// ---------------------------------------------------------------------------

/// gtest-safe parameter name: the design's name with '-' as '_'.
std::string design_test_name(const ::testing::TestParamInfo<Design>& info) {
  std::string s = to_string(info.param);
  for (auto& c : s) {
    if (c == '-') c = '_';
  }
  return s;
}

class ScaleDesignTest : public ::testing::TestWithParam<Design> {};

INSTANTIATE_TEST_SUITE_P(AllRdmaDesigns, ScaleDesignTest,
                         ::testing::Values(Design::kBasic, Design::kPiggyback,
                                           Design::kPipeline,
                                           Design::kZeroCopy,
                                           Design::kAdaptive),
                         design_test_name);

TEST_P(ScaleDesignTest, LazyConnectAllPairsMatchesEagerOracle) {
  // 8 ranks, every ordered pair exchanges an eager-sized and (via the
  // second length) a rendezvous-sized message, under four configurations.
  constexpr int kRanks = 8;
  const std::size_t lens[] = {2'000, 48'000};
  struct Variant {
    const char* name;
    bool lazy;
    int budget;
    std::size_t rings;
  };
  const Variant variants[] = {
      {"eager", false, 0, 0},
      {"lazy", true, 0, 0},
      {"lazy-budget", true, 3, 0},
      {"lazy-srq", true, 3, kRanks},
  };
  for (const std::size_t len : lens) {
    for (const Variant& v : variants) {
      ChannelConfig cfg;
      cfg.design = GetParam();
      cfg.lazy_connect = v.lazy;
      cfg.qp_budget = v.budget;
      cfg.srq_pool_rings = v.rings;
      Fleet fleet(kRanks, cfg);
      std::vector<std::vector<std::vector<std::byte>>> got(
          kRanks, std::vector<std::vector<std::byte>>(kRanks));
      fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
        co_await all_pairs_body(ctx, ch, len,
                                got[static_cast<std::size_t>(ctx.rank)]);
      });
      ASSERT_TRUE(fleet.all_done())
          << v.name << " len=" << len << " hung or errored";
      for (int r = 0; r < kRanks; ++r) {
        for (int s = 0; s < kRanks; ++s) {
          if (r == s) continue;
          EXPECT_EQ(got[static_cast<std::size_t>(r)]
                       [static_cast<std::size_t>(s)],
                    pair_msg(s, r, len))
              << v.name << " len=" << len << " stream " << s << "->" << r;
        }
      }
      const ChannelStats st = fleet.ch[0]->stats();
      if (v.lazy) {
        EXPECT_GT(st.connects_on_demand, 0u) << v.name;
        EXPECT_GT(st.qps_created, 0u) << v.name;
      } else {
        EXPECT_EQ(st.connects_on_demand, 0u);
      }
      if (v.rings > 0) {
        EXPECT_GT(st.srq_pool_high_water, 0u) << v.name;
        EXPECT_LE(st.srq_pool_high_water, v.rings) << v.name;
      }
    }
  }
}

/// Every wired pair's remote view must be the peer's local truth: ring,
/// ctrl block and (adaptive) FIN landing zone address + rkey, the main QP
/// connected to the peer's, and every aux QP to its peer counterpart.
void expect_endpoints_match(Fleet& fleet, const char* mode) {
  for (int a = 0; a < fleet.n; ++a) {
    for (int b = 0; b < fleet.n; ++b) {
      if (a == b) continue;
      auto& mine = static_cast<VerbsConnection&>(
          fleet.ch[static_cast<std::size_t>(a)]->connection(b));
      auto& theirs = static_cast<VerbsConnection&>(
          fleet.ch[static_cast<std::size_t>(b)]->connection(a));
      const std::string pair =
          std::string(mode) + " " + std::to_string(a) + "->" +
          std::to_string(b);
      ASSERT_NE(mine.qp, nullptr) << pair;
      ASSERT_NE(theirs.ring_mr, nullptr) << pair;
      EXPECT_EQ(mine.r_ring_addr, reinterpret_cast<std::uint64_t>(theirs.rx))
          << pair;
      EXPECT_EQ(mine.r_ring_rkey, theirs.ring_mr->rkey()) << pair;
      EXPECT_EQ(mine.r_ctrl_addr,
                reinterpret_cast<std::uint64_t>(&theirs.ctrl))
          << pair;
      EXPECT_EQ(mine.r_ctrl_rkey, theirs.ctrl_mr->rkey()) << pair;
      EXPECT_EQ(mine.qp->peer(), theirs.qp) << pair;
      if (fleet.cfg.design != Design::kAdaptive) continue;
      auto& am = static_cast<AdaptiveConnection&>(mine);
      auto& at = static_cast<AdaptiveConnection&>(theirs);
      EXPECT_EQ(am.r_fin_addr,
                reinterpret_cast<std::uint64_t>(at.fin_flags.data()))
          << pair;
      EXPECT_EQ(am.r_fin_rkey, at.fin_mr->rkey()) << pair;
      ASSERT_EQ(am.aux.size(), at.aux.size()) << pair;
      EXPECT_FALSE(am.aux.empty()) << pair;
      for (std::size_t i = 0; i < am.aux.size(); ++i) {
        EXPECT_EQ(am.aux[i]->peer(), at.aux[i]) << pair << " aux " << i;
      }
    }
  }
}

TEST_P(ScaleDesignTest, EagerAndLazyEndpointsMatchPeerLocals) {
  // The eager bootstrap and the lazy connect share one endpoint exchange;
  // both must leave every pair wired to the peer's own buffers and QPs.
  constexpr int kRanks = 4;
  for (const bool lazy : {false, true}) {
    ChannelConfig cfg;
    cfg.design = GetParam();
    cfg.lazy_connect = lazy;
    Fleet fleet(kRanks, cfg);
    std::vector<std::vector<std::vector<std::byte>>> got(
        kRanks, std::vector<std::vector<std::byte>>(kRanks));
    fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
      // Lazy: traffic on every pair wires it (no budget, so nothing is
      // evicted before the check).
      if (lazy) {
        co_await all_pairs_body(ctx, ch, 64,
                                got[static_cast<std::size_t>(ctx.rank)]);
      }
      co_await ctx.barrier->arrive();
      if (ctx.rank == 0) expect_endpoints_match(fleet, lazy ? "lazy" : "eager");
      co_await ctx.barrier->arrive();
    });
    ASSERT_TRUE(fleet.all_done()) << (lazy ? "lazy" : "eager");
  }
}

TEST(ScaleDifferential, RingExchangeAt64RanksLazyBudgetMatchesEager) {
  // The rank-dimension point: 64 ranks, neighbour-ring traffic, lazy
  // connect with a 4-connection cache.  Per-rank QP state must stay
  // O(active peers), not O(ranks), while the delivered bytes match the
  // eager oracle exactly.
  constexpr int kRanks = 64;
  constexpr std::size_t kLen = 4'000;
  for (const bool lazy : {false, true}) {
    ChannelConfig cfg;
    cfg.design = Design::kBasic;
    cfg.lazy_connect = lazy;
    cfg.qp_budget = lazy ? 4 : 0;
    cfg.srq_pool_rings = lazy ? 8 : 0;
    Fleet fleet(kRanks, cfg);
    std::vector<std::vector<std::byte>> got(kRanks);
    fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
      const int me = ctx.rank;
      const int next = (me + 1) % kRanks;
      const int prev = (me + kRanks - 1) % kRanks;
      const std::vector<std::byte> out = pair_msg(me, next, kLen);
      got[static_cast<std::size_t>(me)].resize(kLen);
      Connection& cs = ch.connection(next);
      Connection& cr = ch.connection(prev);
      // Even ranks send first; odd ranks receive first -- no cycle.
      if (me % 2 == 0) {
        co_await send_all(ch, cs, out.data(), out.size());
        co_await recv_all(ch, cr, got[static_cast<std::size_t>(me)].data(),
                          kLen);
      } else {
        co_await recv_all(ch, cr, got[static_cast<std::size_t>(me)].data(),
                          kLen);
        co_await send_all(ch, cs, out.data(), out.size());
      }
    });
    ASSERT_TRUE(fleet.all_done()) << (lazy ? "lazy" : "eager") << " hung";
    for (int r = 0; r < kRanks; ++r) {
      const int prev = (r + kRanks - 1) % kRanks;
      EXPECT_EQ(got[static_cast<std::size_t>(r)], pair_msg(prev, r, kLen))
          << "stream " << prev << "->" << r;
    }
    for (int r = 0; r < kRanks; ++r) {
      const ChannelStats st = fleet.ch[static_cast<std::size_t>(r)]->stats();
      if (lazy) {
        // A ring rank talks to 2 peers: the connection plane must never
        // have grown toward the rank dimension.
        EXPECT_LE(st.qps_created, 4u) << "rank " << r;
        EXPECT_LE(st.connects_on_demand, 4u) << "rank " << r;
      } else {
        // Eager: full mesh, the exact O(ranks) cost lazy connect removes.
        EXPECT_GE(st.qps_created, static_cast<std::uint64_t>(kRanks - 1))
            << "rank " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Connection cache: LRU eviction, transparent reconnect, journal pinning
// ---------------------------------------------------------------------------

TEST(ConnectionCache, LruEvictionAndTransparentReconnect) {
  // Rank 0 visits peers 1, 2, 3 with qp_budget=2: wiring peer 3 evicts the
  // LRU connection (peer 1).  A second visit to peer 1 must transparently
  // re-connect and deliver byte-exact data.
  constexpr std::size_t kLen = 1'500;
  ChannelConfig cfg;
  cfg.design = Design::kBasic;
  cfg.lazy_connect = true;
  cfg.qp_budget = 2;
  Fleet fleet(4, cfg);
  std::vector<std::vector<std::byte>> echoes(4);
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    if (ctx.rank == 0) {
      const int visits[] = {1, 2, 3, 1};
      for (int i = 0; i < 4; ++i) {
        const int peer = visits[i];
        Connection& conn = ch.connection(peer);
        const std::vector<std::byte> out =
            pair_msg(100 + i, peer, kLen);  // distinct per visit
        std::vector<std::byte>& echo = echoes[static_cast<std::size_t>(i)];
        echo.resize(kLen);
        co_await send_all(ch, conn, out.data(), out.size());
        co_await recv_all(ch, conn, echo.data(), echo.size());
      }
    } else {
      Connection& conn = ch.connection(0);
      const int rounds = ctx.rank == 1 ? 2 : 1;
      for (int i = 0; i < rounds; ++i) {
        std::vector<std::byte> buf(kLen);
        co_await recv_all(ch, conn, buf.data(), buf.size());
        co_await send_all(ch, conn, buf.data(), buf.size());
      }
    }
  });
  ASSERT_TRUE(fleet.all_done());
  const int visits[] = {1, 2, 3, 1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(echoes[static_cast<std::size_t>(i)],
              pair_msg(100 + i, visits[i], kLen))
        << "visit " << i;
  }
  const ChannelStats st = fleet.ch[0]->stats();
  EXPECT_GE(st.qps_evicted, 1u);
  EXPECT_GE(st.connects_on_demand, 4u);  // 3 peers + 1 re-connect
  EXPECT_LE(st.qps_live, 3u);
}

TEST(ConnectionCache, EvictionBlockedWhileJournalOutstanding) {
  // qp_budget=1: rank 0 sends to peer 1 (who defers consuming), then wires
  // peer 2, going over budget.  The connection to peer 1 holds unconsumed
  // journal state, so eviction must NOT proceed until peer 1 drains and
  // its tail acknowledgement lands.
  constexpr std::size_t kLen = 1'000;
  ChannelConfig cfg;
  cfg.design = Design::kBasic;
  cfg.lazy_connect = true;
  cfg.qp_budget = 1;
  Fleet fleet(3, cfg);
  std::uint64_t evicted_while_pinned = ~0ull;
  bool evicted_after_drain = false;
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    pmi::Kvs& kvs = *ctx.kvs;
    if (ctx.rank == 0) {
      const std::vector<std::byte> a = pair_msg(0, 1, kLen);
      const std::vector<std::byte> b = pair_msg(0, 2, kLen);
      Connection& c1 = ch.connection(1);
      Connection& c2 = ch.connection(2);
      co_await send_all(ch, c1, a.data(), a.size());
      std::vector<std::byte> echo(kLen);
      co_await send_all(ch, c2, b.data(), b.size());
      co_await recv_all(ch, c2, echo.data(), echo.size());
      EXPECT_EQ(echo, b);
      // Over budget, but peer 1 has not consumed: the connection is
      // pinned by its outstanding journal.
      evicted_while_pinned = ch.stats().qps_evicted;
      kvs.put("consume-now", {});
      // Drive the control plane until the now-unpinned LRU connection is
      // evicted (the zero-length get runs the lazy service).  Self-wake on
      // a virtual timer: the tail update that unpins us arrives as a DMA,
      // but the evict handshake needs further service passes.
      std::byte dummy{};
      ib::Node* n0 = ctx.node;
      for (int i = 0; i < 1'000 && ch.stats().qps_evicted == 0; ++i) {
        co_await ch.get(c1, &dummy, 0);
        if (ch.stats().qps_evicted != 0) break;
        fleet.sim.call_at(fleet.sim.now() + sim::usec(100),
                          [n0] { n0->dma_arrival().fire(); });
        co_await ch.wait_for_activity();
      }
      evicted_after_drain = ch.stats().qps_evicted > 0;
    } else if (ctx.rank == 1) {
      // Park without consuming -- but keep servicing the connection
      // control plane (zero-length gets) so rank 0's lazy connect and the
      // later evict handshake are answered.
      Connection& conn = ch.connection(0);
      std::byte dummy{};
      ib::Node* n1 = ctx.node;
      while (!kvs.has("consume-now")) {
        co_await ch.get(conn, &dummy, 0);
        if (kvs.has("consume-now")) break;
        fleet.sim.call_at(fleet.sim.now() + sim::usec(100),
                          [n1] { n1->dma_arrival().fire(); });
        co_await ch.wait_for_activity();
      }
      std::vector<std::byte> buf(kLen);
      co_await recv_all(ch, conn, buf.data(), buf.size());
      EXPECT_EQ(buf, pair_msg(0, 1, kLen));
    } else {
      std::vector<std::byte> buf(kLen);
      Connection& conn = ch.connection(0);
      co_await recv_all(ch, conn, buf.data(), buf.size());
      co_await send_all(ch, conn, buf.data(), buf.size());
    }
  });
  ASSERT_TRUE(fleet.all_done());
  EXPECT_EQ(evicted_while_pinned, 0u);
  EXPECT_TRUE(evicted_after_drain);
}

/// Shared scenario for the evict-handshake kill tests: rank 0 visits peers
/// 1, 2, 3, 1 with qp_budget=2, so wiring peer 3 runs the two-sided LRU
/// evict handshake against peer 1, and the final visit re-connects.  The
/// caller's plan lands kills inside that window; recovery must keep every
/// echo byte-exact and the eviction must still complete.
void run_evict_kill_scenario(FaultPlan& plan) {
  constexpr std::size_t kLen = 1'500;
  ChannelConfig cfg;
  cfg.design = Design::kBasic;
  cfg.lazy_connect = true;
  cfg.qp_budget = 2;
  cfg.recovery_max_attempts = 8;
  Fleet fleet(4, cfg, &plan);
  std::vector<std::vector<std::byte>> echoes(4);
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    if (ctx.rank == 0) {
      const int visits[] = {1, 2, 3, 1};
      for (int i = 0; i < 4; ++i) {
        const int peer = visits[i];
        Connection& conn = ch.connection(peer);
        const std::vector<std::byte> out = pair_msg(300 + i, peer, kLen);
        std::vector<std::byte>& echo = echoes[static_cast<std::size_t>(i)];
        echo.resize(kLen);
        co_await send_all(ch, conn, out.data(), out.size());
        co_await recv_all(ch, conn, echo.data(), echo.size());
      }
    } else {
      Connection& conn = ch.connection(0);
      const int rounds = ctx.rank == 1 ? 2 : 1;
      for (int i = 0; i < rounds; ++i) {
        std::vector<std::byte> buf(kLen);
        co_await recv_all(ch, conn, buf.data(), buf.size());
        co_await send_all(ch, conn, buf.data(), buf.size());
      }
    }
  });
  ASSERT_TRUE(fleet.all_done()) << "evict-handshake kill recovery hung";
  const int visits[] = {1, 2, 3, 1};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(echoes[static_cast<std::size_t>(i)],
              pair_msg(300 + i, visits[i], kLen))
        << "visit " << i;
  }
  const ChannelStats st = fleet.ch[0]->stats();
  EXPECT_GE(st.qps_evicted, 1u) << "the evict handshake never completed";
  EXPECT_GT(plan.schedule.killed(), 0u) << "no kill landed in the window";
}

TEST(ConnectionCache, KillsOnInitiatorDuringEvictHandshakeRecover) {
  // Kills on the evicting side (rank 0), clustered over the WQE window
  // where the third visit forces the LRU eviction of peer 1 and the fourth
  // re-connects: the handshake's replay traffic keeps dying under it, and
  // recovery must carry it through anyway.
  FaultPlan plan;
  for (std::uint64_t n = 5; n <= 9; ++n) plan.kill(0, n);
  run_evict_kill_scenario(plan);
}

TEST(ConnectionCache, KillsOnEvictedTargetDuringEvictHandshakeRecover) {
  // The mirror image: the kills land on the evicted peer (rank 1), from its
  // tail-drain acknowledgement of the handshake through its half of the
  // post-eviction reconnect exchange.
  FaultPlan plan;
  for (std::uint64_t n = 2; n <= 6; ++n) plan.kill(1, n);
  run_evict_kill_scenario(plan);
}

// ---------------------------------------------------------------------------
// SRQ-style shared receive pool
// ---------------------------------------------------------------------------

TEST(SharedRecvPool, ExhaustionBackpressuresThenWiresViaEviction) {
  // 5 ranks, 2 pooled rings, no QP budget: rank 0's third connection finds
  // the pool exhausted.  That must surface as credit_stalls backpressure
  // and an LRU lease eviction -- never a deadlock -- and every byte still
  // arrives.
  constexpr std::size_t kLen = 1'200;
  ChannelConfig cfg;
  cfg.design = Design::kBasic;
  cfg.lazy_connect = true;
  cfg.qp_budget = 0;
  cfg.srq_pool_rings = 2;
  Fleet fleet(5, cfg);
  std::vector<std::vector<std::byte>> echoes(5);
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    if (ctx.rank == 0) {
      for (int peer = 1; peer < 5; ++peer) {
        Connection& conn = ch.connection(peer);
        const std::vector<std::byte> out = pair_msg(0, peer, kLen);
        std::vector<std::byte>& echo =
            echoes[static_cast<std::size_t>(peer)];
        echo.resize(kLen);
        co_await send_all(ch, conn, out.data(), out.size());
        co_await recv_all(ch, conn, echo.data(), echo.size());
      }
    } else {
      Connection& conn = ch.connection(0);
      std::vector<std::byte> buf(kLen);
      co_await recv_all(ch, conn, buf.data(), buf.size());
      co_await send_all(ch, conn, buf.data(), buf.size());
    }
  });
  ASSERT_TRUE(fleet.all_done());
  for (int peer = 1; peer < 5; ++peer) {
    EXPECT_EQ(echoes[static_cast<std::size_t>(peer)],
              pair_msg(0, peer, kLen))
        << "echo from " << peer;
  }
  const ChannelStats st = fleet.ch[0]->stats();
  EXPECT_GT(st.credit_stalls, 0u);  // the pool said "not yet" at least once
  EXPECT_GE(st.qps_evicted, 1u);    // a lease had to be recycled
  EXPECT_EQ(st.srq_pool_high_water, 2u);
}

TEST(SharedRecvPool, DoubleReleaseThrows) {
  // A ring released twice would sit on the free list twice, and two later
  // connections would share one receive ring.
  ib::SharedRecvPool pool;
  pool.reset(2, 64);
  std::byte* a = pool.acquire();
  ASSERT_NE(a, nullptr);
  pool.release(a);
  EXPECT_THROW(pool.release(a), std::logic_error);
  EXPECT_EQ(pool.free_rings(), 2u);
  EXPECT_EQ(pool.leased(), 0u);
  // A ring that was never leased, a null pointer, an interior pointer and
  // a foreign pointer are rejected too.
  EXPECT_THROW(pool.release(pool.base() + 64), std::logic_error);
  EXPECT_THROW(pool.release(nullptr), std::logic_error);
  std::byte* b = pool.acquire();
  ASSERT_NE(b, nullptr);
  EXPECT_THROW(pool.release(b + 1), std::logic_error);
  std::byte foreign[64];
  EXPECT_THROW(pool.release(foreign), std::logic_error);
  // Both rings are still handed out exactly once.
  std::byte* c = pool.acquire();
  ASSERT_NE(c, nullptr);
  EXPECT_NE(b, c);
  EXPECT_EQ(pool.acquire(), nullptr);
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.free_rings(), 2u);
}

TEST(SharedRecvPool, ReadyingARingWritesOnlyItsSlotHeaders) {
  // acquire() writes nothing, so a re-leased ring still holds its previous
  // tenant's bytes.  Readying it zeroes the SlotHeader at each chunk stride
  // -- the only words a reader polls before trusting a slot -- and leaves
  // every other byte as it was: a lease costs its header bytes, not
  // kRingBytes.
  for (const std::size_t chunk : {std::size_t{16 * 1024},
                                  std::size_t{4 * 1024}}) {
    ib::SharedRecvPool pool;
    pool.reset(2, kRingBytes);
    std::byte* ring = pool.acquire();
    ASSERT_NE(ring, nullptr);
    std::memset(ring, 0xA5, kRingBytes);
    pool.release(ring);
    ASSERT_EQ(pool.acquire(), ring);  // LIFO: the dirty ring comes back
    std::size_t dirty = 0;
    for (std::size_t i = 0; i < kRingBytes; ++i) {
      dirty += ring[i] == std::byte{0xA5} ? 1 : 0;
    }
    EXPECT_EQ(dirty, kRingBytes) << "acquire() wrote into the lease";
    VerbsChannelBase::ready_recv_ring(ring, chunk);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < kRingBytes; ++i) {
      const bool header = i % chunk < sizeof(SlotHeader);
      wrong += ring[i] != (header ? std::byte{0} : std::byte{0xA5}) ? 1 : 0;
    }
    EXPECT_EQ(wrong, 0u) << "chunk_bytes " << chunk;
  }
}

class PooledRingReuseTest : public ::testing::TestWithParam<Design> {};

INSTANTIATE_TEST_SUITE_P(SlotDesigns, PooledRingReuseTest,
                         ::testing::Values(Design::kPiggyback,
                                           Design::kPipeline,
                                           Design::kZeroCopy,
                                           Design::kAdaptive),
                         design_test_name);

TEST_P(PooledRingReuseTest, NewTenantReceivesOnlyItsOwnBytes) {
  // Rank 0 has one pooled ring and a budget of one connection.  Tenant A
  // (rank 1) leaves valid gen-1 slots in 6 of its 8 slots.  Tenant B
  // (rank 2) then re-leases the same ring after A's eviction and sends two
  // slots, the second one late: while rank 0 waits for it, slot 1 would
  // still carry A's gen-1 flags had readying the ring not zeroed them.
  // Rank 0 must receive exactly B's bytes.
  //
  // Rank 0 also answers A with one byte before wiring B.  A reads it late,
  // defers its ack (one slot is under the tail-update threshold) and goes
  // idle in finalize, so nothing would ever flush that ack: rank 0 must ask
  // for it -- again after A's late read, but not once per service pass --
  // to evict A.
  constexpr std::size_t kMsg = 4'000;  // one eager slot per put
  constexpr std::size_t kOld = 6;
  constexpr std::size_t kNew = 2;
  ChannelConfig cfg;
  cfg.design = GetParam();
  cfg.lazy_connect = true;
  cfg.srq_pool_rings = 1;
  cfg.qp_budget = 1;
  Fleet fleet(3, cfg);
  const std::vector<std::byte> a = pair_msg(1, 0, kOld * kMsg);
  const std::vector<std::byte> b = pair_msg(2, 0, kNew * kMsg);
  std::vector<std::byte> got_a(a.size());
  std::vector<std::byte> got_b(b.size());
  ChannelStats st0;
  std::byte reply_a{};
  std::size_t mail_to_a = 0;
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    if (ctx.rank == 0) {
      Connection& c1 = ch.connection(1);
      co_await recv_all(ch, c1, got_a.data(), got_a.size());
      const std::byte reply{2};
      co_await send_all(ch, c1, &reply, 1);
      // Wiring rank 2 evicts rank 1 and hands its ring to the new tenant.
      Connection& c2 = ch.connection(2);
      const std::byte hello{1};
      co_await send_all(ch, c2, &hello, 1);
      co_await recv_all(ch, c2, got_b.data(), got_b.size());
      st0 = ch.stats();
      mail_to_a = ctx.kvs->mail_count("lzm:1");
    } else if (ctx.rank == 1) {
      Connection& conn = ch.connection(0);
      for (std::size_t i = 0; i < kOld; ++i) {
        co_await send_all(ch, conn, a.data() + i * kMsg, kMsg);
      }
      co_await ctx.sim().delay(sim::usec(300));
      co_await recv_all(ch, conn, &reply_a, 1);
    } else {
      Connection& conn = ch.connection(0);
      std::byte hello{};
      co_await recv_all(ch, conn, &hello, 1);
      co_await send_all(ch, conn, b.data(), kMsg);
      co_await ctx.sim().delay(sim::usec(500));
      co_await send_all(ch, conn, b.data() + kMsg, kMsg);
    }
  });
  ASSERT_TRUE(fleet.all_done());
  EXPECT_EQ(got_a, a);
  EXPECT_EQ(got_b, b) << "tenant B received bytes it never sent";
  EXPECT_EQ(reply_a, std::byte{2});
  EXPECT_GE(st0.qps_evicted, 1u) << "tenant A was never evicted";
  EXPECT_EQ(st0.srq_pool_high_water, 1u);
  // Connect and evict requests plus one flush request per backoff step
  // while A sat on the reply: a handful, not one per service pass.
  EXPECT_LE(mail_to_a, 8u);
}

// ---------------------------------------------------------------------------
// Kill-faults against cold and evicted connections
// ---------------------------------------------------------------------------

TEST_P(ScaleDesignTest, KillFromStartOnColdConnectSurfacesCleanError) {
  // Every WQE of rank 0 dies, starting before the first (lazy, cold)
  // connect: the retry budget must exhaust into ChannelError on both
  // ranks -- no hang, no spin.
  FaultPlan plan;
  plan.kill_from(0, 0);
  ChannelConfig cfg;
  cfg.design = GetParam();
  cfg.lazy_connect = true;
  cfg.recovery_max_attempts = 3;
  Fleet fleet(2, cfg, &plan);
  const std::vector<std::byte> msg = pattern(20'000, 77);
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    // The completion token keeps the sender's progress engine turning:
    // unsignaled slot-write failures are only discovered at the next
    // put/get entry, so a send-and-exit body would park in finalize
    // instead of surfacing the dead connection.
    if (ctx.rank == 0) {
      Connection& conn = ch.connection(1);
      co_await send_all(ch, conn, msg.data(), msg.size());
      std::byte token{};
      co_await recv_all(ch, conn, &token, 1);
    } else {
      Connection& conn = ch.connection(0);
      std::vector<std::byte> buf(msg.size());
      co_await recv_all(ch, conn, buf.data(), buf.size());
      const std::byte token{0x1};
      co_await send_all(ch, conn, &token, 1);
    }
  });
  EXPECT_TRUE(fleet.all_settled()) << "a rank hung instead of failing";
  EXPECT_TRUE(fleet.error[0]);
  EXPECT_TRUE(fleet.error[1]);
}

TEST_P(ScaleDesignTest, SingleKillsDuringEvictReconnectTrafficRecover) {
  // Two passes of rank 0 over peers 1 and 2 with qp_budget=1 force an
  // evict + transparent re-connect per visit; sprinkled single-WQE kills
  // land across connect, evict, and replay phases.  Recovery must keep
  // every byte exact with no hang.
  constexpr std::size_t kLen = 6'000;
  FaultPlan plan;
  plan.kill(0, 4);
  plan.kill(1, 3);
  plan.kill(0, 11);
  plan.kill(2, 5);
  ChannelConfig cfg;
  cfg.design = GetParam();
  cfg.lazy_connect = true;
  cfg.qp_budget = 1;
  cfg.recovery_max_attempts = 8;
  Fleet fleet(3, cfg, &plan);
  std::vector<std::vector<std::byte>> echoes(4);
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    if (ctx.rank == 0) {
      const int visits[] = {1, 2, 1, 2};
      for (int i = 0; i < 4; ++i) {
        Connection& conn = ch.connection(visits[i]);
        const std::vector<std::byte> out = pair_msg(200 + i, visits[i], kLen);
        std::vector<std::byte>& echo = echoes[static_cast<std::size_t>(i)];
        echo.resize(kLen);
        co_await send_all(ch, conn, out.data(), out.size());
        co_await recv_all(ch, conn, echo.data(), echo.size());
      }
    } else {
      Connection& conn = ch.connection(0);
      for (int i = 0; i < 2; ++i) {
        std::vector<std::byte> buf(kLen);
        co_await recv_all(ch, conn, buf.data(), buf.size());
        co_await send_all(ch, conn, buf.data(), buf.size());
      }
    }
  });
  ASSERT_TRUE(fleet.all_done()) << "fault recovery hung";
  const int visits[] = {1, 2, 1, 2};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(echoes[static_cast<std::size_t>(i)],
              pair_msg(200 + i, visits[i], kLen))
        << "visit " << i;
  }
  EXPECT_GT(plan.schedule.killed(), 0u);
}

TEST(ScaleFault, KillOnEvictedPeerSurfacesCleanErrorOnReconnect) {
  // Rank 0 exchanges with peer 1, evicts it by visiting peer 2
  // (qp_budget=1), then re-connects to peer 1 -- whose HCA now kills
  // everything it processes.  The evicted-then-reconnected path must
  // surface the death as a clean ChannelError, not a hang.
  constexpr std::size_t kLen = 2'000;
  FaultPlan plan;
  // Measured no-fault WQE budget for peer 1: the first exchange costs it
  // WQEs 0..2 (echo slots + tail update) and the evict handshake posts
  // none, so everything from WQE 3 on is its half of the post-eviction
  // reconnect traffic -- which all dies.
  plan.kill_from(1, 3);
  ChannelConfig cfg;
  cfg.design = Design::kBasic;
  cfg.lazy_connect = true;
  cfg.qp_budget = 1;
  cfg.recovery_max_attempts = 3;
  Fleet fleet(3, cfg, &plan);
  bool phase1_ok = false;
  bool bystander_exchanged = false;
  std::uint64_t evicted = 0;
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    if (ctx.rank == 0) {
      std::vector<std::byte> echo(kLen);
      const std::vector<std::byte> a = pair_msg(0, 1, kLen);
      Connection& c1 = ch.connection(1);
      co_await send_all(ch, c1, a.data(), a.size());
      co_await recv_all(ch, c1, echo.data(), echo.size());
      phase1_ok = echo == a;
      const std::vector<std::byte> b = pair_msg(0, 2, kLen);
      Connection& c2 = ch.connection(2);
      co_await send_all(ch, c2, b.data(), b.size());
      co_await recv_all(ch, c2, echo.data(), echo.size());
      evicted = ch.stats().qps_evicted;
      // Second visit to the (now evicted) peer 1: its HCA is dead.
      co_await send_all(ch, c1, a.data(), a.size());
      co_await recv_all(ch, c1, echo.data(), echo.size());
    } else {
      Connection& conn = ch.connection(0);
      const int rounds = ctx.rank == 1 ? 2 : 1;
      for (int i = 0; i < rounds; ++i) {
        std::vector<std::byte> buf(kLen);
        co_await recv_all(ch, conn, buf.data(), buf.size());
        co_await send_all(ch, conn, buf.data(), buf.size());
      }
      if (ctx.rank == 2) bystander_exchanged = true;
    }
  });
  // Ranks 0 and 1 must FAIL (not hang); rank 2's exchange must be
  // untouched.  Rank 2 then necessarily parks in the collective finalize
  // barrier -- its peers died and will never arrive -- so "clean" for the
  // bystander means completed data + no error, not full finalize.
  EXPECT_TRUE(fleet.error[0]) << "dead reconnect must surface at rank 0";
  EXPECT_TRUE(fleet.error[1]);
  EXPECT_TRUE(phase1_ok);
  EXPECT_TRUE(bystander_exchanged);
  EXPECT_FALSE(fleet.error[2]);
  EXPECT_GE(evicted, 1u);
}

// ---------------------------------------------------------------------------
// DES hot-path counters
// ---------------------------------------------------------------------------

TEST(SimCounters, EventAndPoolStatsTrackAHotRun) {
  // Perf-guard for the DES overhaul: a traffic-heavy run must show the
  // event counter advancing and the WQE/completion buffer pool recycling
  // allocations (hits dominating misses) instead of per-op heap churn.
  ChannelConfig cfg;
  cfg.design = Design::kPiggyback;
  Fleet fleet(2, cfg);
  const std::vector<std::byte> msg = pattern(256 * 1024, 99);
  fleet.run([&](pmi::Context& ctx, Channel& ch) -> sim::Task<void> {
    if (ctx.rank == 0) {
      for (int i = 0; i < 8; ++i) {
        co_await send_all(ch, ch.connection(1), msg.data(), msg.size());
      }
    } else {
      std::vector<std::byte> buf(msg.size());
      for (int i = 0; i < 8; ++i) {
        co_await recv_all(ch, ch.connection(0), buf.data(), buf.size());
      }
    }
  });
  ASSERT_TRUE(fleet.all_done());
  const sim::Simulator::Stats st = fleet.sim.stats();
  EXPECT_GT(st.events_dispatched, 1'000u);
  EXPECT_GT(st.pool_hits, 0u);
  EXPECT_GT(st.pool_hits, st.pool_misses)
      << "buffer pool is not recycling -- hot path regressed to per-op "
         "allocation";
}

}  // namespace
}  // namespace rdmach
