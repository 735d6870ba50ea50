// Tests for the RDMA Channel designs: correctness of the FIFO pipe
// semantics across all five implementations (differential against the
// shared-memory reference), protocol-level properties (RDMA write counts,
// zero-copy behaviour, piggybacked tail updates), latency/bandwidth
// calibration, and the registration cache.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "channel_test_util.hpp"
#include "ib/fabric.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/adaptive_channel.hpp"
#include "rdmach/basic_channel.hpp"
#include "rdmach/channel.hpp"
#include "rdmach/piggyback_channel.hpp"
#include "rdmach/protocol_selector.hpp"
#include "rdmach/reg_cache.hpp"
#include "rdmach/zerocopy_channel.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace rdmach {
namespace {

using testutil::recv_all;
using testutil::send_all;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next() & 0xff);
  return v;
}

/// Two-rank harness running sender/receiver bodies over a fresh channel.
struct Duo {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 2};
  ChannelConfig cfg;
  std::unique_ptr<Channel> ch[2];

  explicit Duo(Design d, ChannelConfig base = {}) {
    cfg = base;
    cfg.design = d;
  }

  using Body = std::function<sim::Task<void>(Channel&, Connection&)>;

  void run(Body rank0, Body rank1) {
    job.launch([this, rank0, rank1](pmi::Context& ctx) -> sim::Task<void> {
      ch[ctx.rank] = Channel::create(ctx, cfg);
      Channel& c = *ch[ctx.rank];
      co_await c.init();
      co_await (ctx.rank == 0 ? rank0 : rank1)(c, c.connection(1 - ctx.rank));
      co_await c.finalize();
    });
    sim.run();
  }
};

class DesignTest : public ::testing::TestWithParam<Design> {};

INSTANTIATE_TEST_SUITE_P(AllDesigns, DesignTest,
                         ::testing::Values(Design::kShm, Design::kBasic,
                                           Design::kPiggyback,
                                           Design::kPipeline,
                                           Design::kZeroCopy,
                                           Design::kAdaptive),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST_P(DesignTest, SmallMessageRoundTrips) {
  Duo duo(GetParam());
  auto msg = pattern(64, 1);
  std::vector<std::byte> echo(64);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await send_all(ch, c, msg.data(), msg.size());
        co_await recv_all(ch, c, echo.data(), echo.size());
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> buf(64);
        co_await recv_all(ch, c, buf.data(), buf.size());
        co_await send_all(ch, c, buf.data(), buf.size());
      });
  EXPECT_EQ(echo, msg);
}

TEST_P(DesignTest, MegabyteTransferIsByteExact) {
  Duo duo(GetParam());
  constexpr std::size_t kN = 1 << 20;
  auto msg = pattern(kN, 2);
  std::vector<std::byte> got(kN);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await send_all(ch, c, msg.data(), msg.size());
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await recv_all(ch, c, got.data(), got.size());
      });
  EXPECT_EQ(got, msg);
}

TEST_P(DesignTest, StreamIsFifoAcrossManyMessages) {
  // Property test: a stream chopped into random put sizes and drained with
  // random get sizes must reassemble exactly, for every design.
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    Duo duo(GetParam());
    constexpr std::size_t kTotal = 400 * 1024;
    auto msg = pattern(kTotal, seed);
    std::vector<std::byte> got(kTotal);
    duo.run(
        [&](Channel& ch, Connection& c) -> sim::Task<void> {
          sim::Rng rng(seed * 7);
          std::size_t off = 0;
          while (off < kTotal) {
            const std::size_t n = std::min<std::size_t>(
                kTotal - off, 1 + rng.below(60'000));
            co_await send_all(ch, c, msg.data() + off, n);
            off += n;
          }
        },
        [&](Channel& ch, Connection& c) -> sim::Task<void> {
          sim::Rng rng(seed * 13);
          std::size_t off = 0;
          while (off < kTotal) {
            const std::size_t n = std::min<std::size_t>(
                kTotal - off, 1 + rng.below(50'000));
            co_await recv_all(ch, c, got.data() + off, n);
            off += n;
          }
        });
    ASSERT_EQ(got, msg) << "design=" << to_string(GetParam())
                        << " seed=" << seed;
  }
}

TEST_P(DesignTest, BidirectionalTrafficDoesNotDeadlock) {
  Duo duo(GetParam());
  constexpr std::size_t kN = 256 * 1024;
  auto m0 = pattern(kN, 21), m1 = pattern(kN, 22);
  std::vector<std::byte> g0(kN), g1(kN);
  auto body = [&](int me) {
    return [&, me](Channel& ch, Connection& c) -> sim::Task<void> {
      // Interleave sends and receives in small pieces both ways.
      const auto& out = me == 0 ? m0 : m1;
      auto& in = me == 0 ? g1 : g0;  // rank0 receives m1 into g1
      std::size_t so = 0, ro = 0;
      while (so < kN || ro < kN) {
        if (so < kN) {
          const std::size_t n = std::min<std::size_t>(kN - so, 8192);
          co_await send_all(ch, c, out.data() + so, n);
          so += n;
        }
        if (ro < kN) {
          const std::size_t n = std::min<std::size_t>(kN - ro, 8192);
          co_await recv_all(ch, c, in.data() + ro, n);
          ro += n;
        }
      }
    };
  };
  duo.run(body(0), body(1));
  EXPECT_EQ(g1, m1);
  EXPECT_EQ(g0, m0);
}

TEST_P(DesignTest, PutBeyondRingCapacityCompletesPartially) {
  Duo duo(GetParam());
  const std::size_t kBig = kRingBytes * 3;
  auto msg = pattern(kBig, 31);
  std::vector<std::byte> got(kBig);
  std::size_t first_put = 0;
  auto gate = std::make_shared<sim::Gate>(duo.sim);  // holds receiver back
  duo.run(
      [&, gate](Channel& ch, Connection& c) -> sim::Task<void> {
        first_put = co_await ch.put(c, msg.data(), msg.size());
        // With the receiver quiescent, at most one ring's worth fits.  The
        // zero-copy and adaptive designs accept nothing: a large buffer goes
        // rendezvous and put reports 0 until the ack (paper section 5).
        EXPECT_LT(first_put, msg.size());
        if (GetParam() == Design::kZeroCopy ||
            GetParam() == Design::kAdaptive) {
          EXPECT_EQ(first_put, 0u);
        } else {
          EXPECT_GT(first_put, 0u);
        }
        gate->open();
        co_await send_all(ch, c, msg.data() + first_put,
                          msg.size() - first_put);
      },
      [&, gate](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await gate->wait();
        co_await recv_all(ch, c, got.data(), got.size());
      });
  EXPECT_EQ(got, msg);
}

TEST(ChannelDefaults, ChannelsWithoutLookaheadAnswerItsCallsAsNoOps) {
  // Only the adaptive design holds rendezvous in flight beyond the head of
  // the pipe; every other channel reports no lookahead, drains nothing
  // ahead, refuses a sink, and (eager-wired) has no service pass to run.
  for (const Design d : {Design::kShm, Design::kPiggyback}) {
    Duo duo(d);
    std::vector<std::byte> msg = pattern(64, 3);
    const auto probe = [](Channel& ch, Connection& c) -> sim::Task<void> {
      EXPECT_EQ(ch.rndv_lookahead(), 0u);
      EXPECT_EQ(ch.active_peers(), nullptr);
      std::byte b{};
      const Iov iov{&b, 1};
      const std::size_t ahead =
          co_await ch.get_ahead(c, std::span<const Iov>(&iov, 1));
      EXPECT_EQ(ahead, 0u);
      const bool attached =
          co_await ch.attach_rndv(c, std::span<const Iov>(&iov, 1));
      EXPECT_FALSE(attached);
      co_await ch.pre_progress();
    };
    duo.run(
        [&](Channel& ch, Connection& c) -> sim::Task<void> {
          co_await probe(ch, c);
          co_await send_all(ch, c, msg.data(), msg.size());
        },
        [&](Channel& ch, Connection& c) -> sim::Task<void> {
          std::vector<std::byte> buf(64);
          co_await recv_all(ch, c, buf.data(), buf.size());
          co_await probe(ch, c);
          EXPECT_EQ(buf, msg);
        });
  }
}

TEST(BasicDesign, ThreeRdmaWritesPerMessage) {
  // Paper section 4.2.1: "a matching pair of send and receive operations in
  // MPI require three RDMA write operations: one for transfer of data, and
  // two for updating head and tail pointers."
  sim::TraceSink sink;
  Duo duo(Design::kBasic);
  duo.fabric.attach_tracer(&sink);
  constexpr int kMsgs = 10;
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> m(256);
        for (int i = 0; i < kMsgs; ++i) {
          co_await send_all(ch, c, m.data(), m.size());
        }
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> b(256);
        for (int i = 0; i < kMsgs; ++i) {
          co_await recv_all(ch, c, b.data(), b.size());
        }
      });
  EXPECT_EQ(sink.count("rdma_write"), 3u * kMsgs);
}

TEST(PiggybackDesign, OneRdmaWritePerSmallMessagePlusRareTailUpdates) {
  sim::TraceSink sink;
  Duo duo(Design::kPiggyback);
  duo.fabric.attach_tracer(&sink);
  constexpr int kMsgs = 32;
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> m(256);
        for (int i = 0; i < kMsgs; ++i) {
          co_await send_all(ch, c, m.data(), m.size());
        }
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> b(256);
        for (int i = 0; i < kMsgs; ++i) {
          co_await recv_all(ch, c, b.data(), b.size());
        }
      });
  const std::size_t writes = sink.count("rdma_write");
  // One data write per message plus batched explicit tail updates: with 8
  // slots and a threshold of 4, at most kMsgs/4 extra writes.
  EXPECT_GE(writes, static_cast<std::size_t>(kMsgs));
  EXPECT_LE(writes, static_cast<std::size_t>(kMsgs + kMsgs / 4 + 2));
}

TEST(ChannelConfig, RejectsUnreachableTailUpdateThreshold) {
  // 16K chunks divide the kRingBytes ring into 8 slots.  A one-way stream
  // stalls once all 8 are consumed and unacknowledged, so a tail-update
  // threshold of 9 would never fire and both ranks would block forever.
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 1);
  job.launch([](pmi::Context& ctx) -> sim::Task<void> {
    ChannelConfig cfg;
    cfg.design = Design::kPiggyback;
    cfg.tail_update_slots = 9;
    EXPECT_THROW(Channel::create(ctx, cfg), std::invalid_argument);
    cfg.tail_update_slots = 8;
    EXPECT_NO_THROW(Channel::create(ctx, cfg));
    // The ring/chunk rules: chunks must divide the ring into >= 2 slots
    // and exceed the slot overhead.
    cfg.tail_update_slots = 0;
    for (const std::size_t bad : {std::size_t{48 * 1024}, kRingBytes,
                                  kSlotOverhead}) {
      cfg.chunk_bytes = bad;
      EXPECT_THROW(Channel::create(ctx, cfg), std::invalid_argument) << bad;
    }
    co_return;
  });
  sim.run();

  // The largest accepted threshold still streams one way.
  ChannelConfig cfg;
  cfg.tail_update_slots = 8;
  Duo duo(Design::kPiggyback, cfg);
  constexpr int kMsgs = 32;
  int received = 0;
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> m(256);
        for (int i = 0; i < kMsgs; ++i) {
          co_await send_all(ch, c, m.data(), m.size());
        }
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> b(256);
        for (int i = 0; i < kMsgs; ++i) {
          co_await recv_all(ch, c, b.data(), b.size());
          ++received;
        }
      });
  EXPECT_EQ(received, kMsgs);
}

TEST(ZeroCopyDesign, LargeMessageUsesRdmaReadWithoutPayloadCopies) {
  sim::TraceSink sink;
  Duo duo(Design::kZeroCopy);
  duo.fabric.attach_tracer(&sink);
  constexpr std::size_t kN = 1 << 20;
  auto msg = pattern(kN, 41);
  std::vector<std::byte> got(kN);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await send_all(ch, c, msg.data(), msg.size());
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await recv_all(ch, c, got.data(), got.size());
      });
  EXPECT_EQ(got, msg);
  EXPECT_EQ(sink.count("rdma_read"), 1u);
  // No data ever crossed the rings: the only modelled memcpys are the
  // (empty) control slots, so total copied bytes must be << the payload.
  EXPECT_LT(sink.total_bytes("memcpy"), static_cast<std::int64_t>(kN / 100));
}

TEST(ZeroCopyDesign, SmallMessagesStillUseRing) {
  sim::TraceSink sink;
  Duo duo(Design::kZeroCopy);
  duo.fabric.attach_tracer(&sink);
  auto msg = pattern(4096, 42);
  std::vector<std::byte> got(4096);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await send_all(ch, c, msg.data(), msg.size());
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await recv_all(ch, c, got.data(), got.size());
      });
  EXPECT_EQ(got, msg);
  EXPECT_EQ(sink.count("rdma_read"), 0u);
  EXPECT_EQ(sink.count("rdma_write"), 1u);
}

// ---------------------------------------------------------------------------
// Adaptive rendezvous engine.
// ---------------------------------------------------------------------------

TEST(AdaptiveDesign, MidBandMessageUsesZeroCopyWriteRendezvous) {
  // 40K sits in the write band of the static thresholds (>= 32K eager max,
  // < 256K read threshold): the transfer must be a sender-driven RDMA write
  // straight between user buffers -- no read request leg, no payload copy.
  sim::TraceSink sink;
  Duo duo(Design::kAdaptive);
  duo.fabric.attach_tracer(&sink);
  constexpr std::size_t kN = 40 * 1024;
  auto msg = pattern(kN, 61);
  std::vector<std::byte> got(kN);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await send_all(ch, c, msg.data(), msg.size());
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await recv_all(ch, c, got.data(), got.size());
      });
  EXPECT_EQ(got, msg);
  EXPECT_EQ(sink.count("rdma_read"), 0u);
  EXPECT_LT(sink.total_bytes("memcpy"), static_cast<std::int64_t>(kN / 100));
}

TEST(AdaptiveDesign, LargeMessageStripesChunkedReadsOverAuxQps) {
  // 1M on the read pipeline: ceil(1M / 128K-chunk) = 8 RDMA reads, striped
  // over the aux QPs so several are outstanding despite the one-read-per-QP
  // limit; still zero-copy.
  sim::TraceSink sink;
  Duo duo(Design::kAdaptive);
  duo.fabric.attach_tracer(&sink);
  constexpr std::size_t kN = 1 << 20;
  auto msg = pattern(kN, 62);
  std::vector<std::byte> got(kN);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await send_all(ch, c, msg.data(), msg.size());
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await recv_all(ch, c, got.data(), got.size());
      });
  EXPECT_EQ(got, msg);
  EXPECT_EQ(sink.count("rdma_read"), 8u);
  EXPECT_LT(sink.total_bytes("memcpy"), static_cast<std::int64_t>(kN / 100));
}

TEST(AdaptiveDesign, StatsCountEveryProtocolAfterMixedTraffic) {
  // A mixed-size exchange must leave nonzero per-protocol counters in the
  // ChannelStats snapshot: eager for the small messages, write rendezvous
  // for the mid-band one, read rendezvous for the large one.
  Duo duo(Design::kAdaptive);
  const std::size_t small = 2048, mid = 40 * 1024, large = 256 * 1024;
  auto ms = pattern(small, 63);
  auto mm = pattern(mid, 64);
  auto ml = pattern(large, 65);
  std::vector<std::byte> gs(small), gm(mid), gl(large);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        for (int i = 0; i < 4; ++i) co_await send_all(ch, c, ms.data(), small);
        co_await send_all(ch, c, mm.data(), mid);
        co_await send_all(ch, c, ml.data(), large);
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        for (int i = 0; i < 4; ++i) co_await recv_all(ch, c, gs.data(), small);
        co_await recv_all(ch, c, gm.data(), mid);
        co_await recv_all(ch, c, gl.data(), large);
      });
  EXPECT_EQ(gm, mm);
  EXPECT_EQ(gl, ml);
  const ChannelStats s = duo.ch[0]->stats();
  EXPECT_GE(s.eager.ops, 4u);
  EXPECT_GE(s.eager.bytes, 4 * small);
  EXPECT_EQ(s.rndv_write.ops, 1u);
  EXPECT_EQ(s.rndv_write.bytes, mid);
  EXPECT_EQ(s.rndv_read.ops, 1u);
  EXPECT_EQ(s.rndv_read.bytes, large);
  EXPECT_GT(s.rndv_write.mbps, 0.0);
  EXPECT_GT(s.rndv_read.mbps, 0.0);
  EXPECT_EQ(s.eager_threshold, 32u * 1024);
  EXPECT_EQ(s.write_read_crossover, 256u * 1024);
  // The receiver initiated no rendezvous of its own.
  const ChannelStats r = duo.ch[1]->stats();
  EXPECT_EQ(r.rndv_write.ops + r.rndv_read.ops, 0u);
  EXPECT_GE(r.eager.bytes, 0u);
}

TEST(AdaptiveDesign, SymmetricRendezvousBothDirections) {
  // Both ranks run rendezvous toward each other at once; CTS/FIN bypass the
  // slot rings (direct writes), so neither side can wedge the other's pipe.
  Duo duo(Design::kAdaptive);
  constexpr std::size_t kN = 192 * 1024;
  auto m0 = pattern(kN, 71), m1 = pattern(kN, 72);
  std::vector<std::byte> g0(kN), g1(kN);
  auto body = [&](int me) {
    return [&, me](Channel& ch, Connection& c) -> sim::Task<void> {
      const auto& out = me == 0 ? m0 : m1;
      auto& in = me == 0 ? g1 : g0;  // rank0 receives m1 into g1
      std::size_t sent = 0, rcvd = 0;
      while (sent < kN || rcvd < kN) {
        const std::uint64_t gen = ch.activity_count();
        bool moved = false;
        if (sent < kN) {
          const std::size_t k =
              co_await ch.put(c, out.data() + sent, kN - sent);
          sent += k;
          moved |= k > 0;
        }
        if (rcvd < kN) {
          const std::size_t k = co_await ch.get(c, in.data() + rcvd,
                                                kN - rcvd);
          rcvd += k;
          moved |= k > 0;
        }
        if (!moved && ch.activity_count() == gen) {
          co_await ch.wait_for_activity();
        }
      }
    };
  };
  duo.run(body(0), body(1));
  EXPECT_EQ(g1, m1);
  EXPECT_EQ(g0, m0);
}

TEST(AdaptiveDesign, ReadQpsZeroDegradesToSingleReadAtATime) {
  // rndv_read_qps = 0: the pipeline falls back to one read at a time on the
  // main QP -- the zero-copy design's behavior -- and stays correct.
  sim::TraceSink sink;
  ChannelConfig base;
  base.rndv_read_qps = 0;
  Duo duo(Design::kAdaptive, base);
  duo.fabric.attach_tracer(&sink);
  constexpr std::size_t kN = 512 * 1024;
  auto msg = pattern(kN, 73);
  std::vector<std::byte> got(kN);
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await send_all(ch, c, msg.data(), msg.size());
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        co_await recv_all(ch, c, got.data(), got.size());
      });
  EXPECT_EQ(got, msg);
  EXPECT_EQ(sink.count("rdma_read"), 4u);  // 512K / 128K chunks, serial
}

// ---------------------------------------------------------------------------
// Protocol selector (unit).
// ---------------------------------------------------------------------------

TEST(ProtocolSelector, StaticThresholdsBeforeAnySamples) {
  ProtocolSelector sel(ProtocolSelector::Config{32 * 1024, 64 * 1024, 32});
  EXPECT_EQ(sel.decision(16 * 1024), ProtocolSelector::Proto::kEager);
  EXPECT_EQ(sel.decision(32 * 1024), ProtocolSelector::Proto::kWrite);
  EXPECT_EQ(sel.decision(48 * 1024), ProtocolSelector::Proto::kWrite);
  EXPECT_EQ(sel.decision(64 * 1024), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.decision(1 << 20), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.write_read_crossover(), 64u * 1024);
}

TEST(ProtocolSelector, LearnsCrossoverFromSyntheticGoodput) {
  ProtocolSelector sel(ProtocolSelector::Config{32 * 1024, 64 * 1024, 32});
  // Synthetic history: at 96K (the 64K-128K bucket) the write path moves
  // 96K in 100us (960 MB/s) while reads crawl at 96K/200us.  The learned
  // decision must flip that bucket to write, moving the crossover past it.
  for (int i = 0; i < 8; ++i) {
    sel.record(ProtocolSelector::Proto::kWrite, 96 * 1024, 96 * 1024, 100.0);
    sel.record(ProtocolSelector::Proto::kRead, 96 * 1024, 96 * 1024, 200.0);
  }
  EXPECT_EQ(sel.decision(96 * 1024), ProtocolSelector::Proto::kWrite);
  EXPECT_EQ(sel.write_read_crossover(), 128u * 1024);

  // Opposite evidence in the 32K-64K bucket pulls the crossover down to
  // the eager boundary.
  for (int i = 0; i < 8; ++i) {
    sel.record(ProtocolSelector::Proto::kWrite, 40 * 1024, 40 * 1024, 200.0);
    sel.record(ProtocolSelector::Proto::kRead, 40 * 1024, 40 * 1024, 50.0);
  }
  EXPECT_EQ(sel.decision(40 * 1024), ProtocolSelector::Proto::kRead);
  // 128K and up still favors write (learned); below it read wins again, so
  // the scan from eager_max finds 32K.
  EXPECT_EQ(sel.write_read_crossover(), 32u * 1024);
}

TEST(ProtocolSelector, ProbesUnderSampledArmOnSchedule) {
  ProtocolSelector sel(ProtocolSelector::Config{32 * 1024, 64 * 1024,
                                                /*probe_interval=*/4});
  // Decisions 1-3 follow the static boundary (read at 128K); the 4th is a
  // probe of the arm with fewer samples -- the write path.
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kWrite);
  // With write now sampled (and read not), the next probe measures read.
  sel.record(ProtocolSelector::Proto::kWrite, 128 * 1024, 128 * 1024, 100.0);
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kRead);
  EXPECT_EQ(sel.choose(128 * 1024), ProtocolSelector::Proto::kRead);  // probe
  // probe_interval = 0 disables probing entirely.
  ProtocolSelector fixed(ProtocolSelector::Config{32 * 1024, 64 * 1024, 0});
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(fixed.choose(128 * 1024), ProtocolSelector::Proto::kRead);
  }
}

// ---------------------------------------------------------------------------
// Latency calibration at the channel level (MPI-level numbers add the MPI
// stack overhead on top; see bench/fig*).
// ---------------------------------------------------------------------------

double one_way_latency_usec(Design d) {
  Duo duo(d);
  constexpr int kIters = 16;
  std::byte ping[8] = {};
  sim::Tick elapsed = 0;
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::byte buf[8];
        // warmup
        co_await send_all(ch, c, ping, 8);
        co_await recv_all(ch, c, buf, 8);
        const sim::Tick start = ch.ctx().sim().now();
        for (int i = 0; i < kIters; ++i) {
          co_await send_all(ch, c, ping, 8);
          co_await recv_all(ch, c, buf, 8);
        }
        elapsed = ch.ctx().sim().now() - start;
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::byte buf[8];
        for (int i = 0; i < kIters + 1; ++i) {
          co_await recv_all(ch, c, buf, 8);
          co_await send_all(ch, c, buf, 8);
        }
      });
  return sim::to_usec(elapsed) / (2 * kIters);
}

TEST(Latency, BasicDesignNearPaperValue) {
  // Paper: 18.6 us at the MPI level; the channel alone is a bit under.
  const double usec = one_way_latency_usec(Design::kBasic);
  EXPECT_GT(usec, 15.0);
  EXPECT_LT(usec, 19.5);
}

TEST(Latency, PiggybackCutsBasicLatencyByHalfOrMore) {
  const double basic = one_way_latency_usec(Design::kBasic);
  const double piggy = one_way_latency_usec(Design::kPiggyback);
  EXPECT_LT(piggy * 2.0, basic);
  // Paper: 7.4 us at MPI level; channel-only is below that.
  EXPECT_GT(piggy, 5.5);
  EXPECT_LT(piggy, 7.5);
}

TEST(Latency, ZeroCopySlightlyAbovePiggybackForSmall) {
  const double piggy = one_way_latency_usec(Design::kPiggyback);
  const double zc = one_way_latency_usec(Design::kZeroCopy);
  EXPECT_GE(zc, piggy - 0.01);
  EXPECT_LT(zc, piggy + 0.6);
}

TEST(Latency, AdaptiveMatchesZeroCopyForSmall) {
  // The adaptive engine's small-message path is the same slot ring with the
  // same per-call state-machine charge, so its latency must track the
  // zero-copy design's within a fifth of a microsecond.
  const double zc = one_way_latency_usec(Design::kZeroCopy);
  const double ad = one_way_latency_usec(Design::kAdaptive);
  EXPECT_LT(std::abs(ad - zc), 0.2);
}

// ---------------------------------------------------------------------------
// Bandwidth calibration.
// ---------------------------------------------------------------------------

double stream_bandwidth_mbps(Design d, std::size_t msg, std::size_t total) {
  Duo duo(d);
  auto data = pattern(msg, 51);
  sim::Tick elapsed = 0;
  duo.run(
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        const sim::Tick start = ch.ctx().sim().now();
        for (std::size_t off = 0; off < total; off += msg) {
          co_await send_all(ch, c, data.data(), msg);
        }
        // Wait for the receiver's final drain notification.
        std::byte done;
        co_await recv_all(ch, c, &done, 1);
        elapsed = ch.ctx().sim().now() - start;
      },
      [&](Channel& ch, Connection& c) -> sim::Task<void> {
        std::vector<std::byte> buf(msg);
        for (std::size_t off = 0; off < total; off += msg) {
          co_await recv_all(ch, c, buf.data(), msg);
        }
        std::byte done{1};
        co_await send_all(ch, c, &done, 1);
      });
  return sim::bandwidth_mbps(static_cast<std::int64_t>(total), elapsed);
}

TEST(Bandwidth, DesignsReproducePaperOrdering) {
  // Paper peaks: basic 230, pipeline >500, zero-copy 857 MB/s.
  const double basic = stream_bandwidth_mbps(Design::kBasic, 64 * 1024,
                                             8 << 20);
  const double pipe = stream_bandwidth_mbps(Design::kPipeline, 64 * 1024,
                                            8 << 20);
  const double zc = stream_bandwidth_mbps(Design::kZeroCopy, 1 << 20,
                                          32 << 20);
  EXPECT_LT(basic, 350.0);
  EXPECT_GT(pipe, 1.5 * basic);
  EXPECT_GT(pipe, 450.0);
  EXPECT_LT(pipe, 620.0);
  EXPECT_GT(zc, 800.0);
  EXPECT_LE(zc, 870.0);
}

TEST(Bandwidth, PipelineDroopsBeyondCacheSize) {
  // Figure 11: the pipelining design loses bandwidth for messages past the
  // L2 size because the copies run at the uncached rate.
  const double mid = stream_bandwidth_mbps(Design::kPipeline, 256 * 1024,
                                           8 << 20);
  const double big = stream_bandwidth_mbps(Design::kPipeline, 1 << 20,
                                           16 << 20);
  EXPECT_LT(big, 0.9 * mid);
}

// ---------------------------------------------------------------------------
// Registration cache.
// ---------------------------------------------------------------------------

struct CacheRig {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  ib::Node* n = nullptr;
  ib::ProtectionDomain* pd = nullptr;

  CacheRig() {
    n = &fabric.add_node("n");
    pd = &n->hca().alloc_pd();
  }
};

TEST(RegCache, HitsOnReuseAndChargesOnlyOnce) {
  CacheRig rig;
  RegCache cache(*rig.pd, 1 << 20, /*enabled=*/true);
  static std::vector<std::byte> buf(64 * 1024);
  rig.sim.spawn(
      [](CacheRig& r, RegCache& cc) -> sim::Task<void> {
        ib::MemoryRegion* a = co_await cc.acquire(buf.data(), buf.size());
        co_await cc.release(a);
        const sim::Tick before = r.sim.now();
        ib::MemoryRegion* b = co_await cc.acquire(buf.data(), buf.size());
        EXPECT_EQ(a, b);                       // same registration reused
        EXPECT_EQ(r.sim.now(), before);        // hit costs no virtual time
        co_await cc.release(b);
        EXPECT_EQ(cc.hits(), 1u);
        EXPECT_EQ(cc.misses(), 1u);
      }(rig, cache),
      "cache-user");
  rig.sim.run();
}

TEST(RegCache, SubRangeOfCachedRegionHits) {
  CacheRig rig;
  RegCache cache(*rig.pd, 1 << 20, true);
  static std::vector<std::byte> buf(64 * 1024);
  rig.sim.spawn(
      [](RegCache& cc) -> sim::Task<void> {
        ib::MemoryRegion* a = co_await cc.acquire(buf.data(), buf.size());
        co_await cc.release(a);
        ib::MemoryRegion* b = co_await cc.acquire(buf.data() + 1024, 4096);
        EXPECT_EQ(a, b);
        co_await cc.release(b);
        EXPECT_EQ(cc.hits(), 1u);
      }(cache),
      "subrange");
  rig.sim.run();
}

TEST(RegCache, EnclosingRegionBehindNearerStartStillHits) {
  // Regression: the covering entry is not always the one whose start is the
  // nearest predecessor of the request.  A short entry starting closer must
  // not mask a longer, older entry that actually encloses the range -- the
  // lookup has to keep walking back (bounded by the longest cached entry).
  CacheRig rig;
  RegCache cache(*rig.pd, 1 << 20, true);
  static std::vector<std::byte> buf(64 * 1024);
  rig.sim.spawn(
      [](RegCache& cc) -> sim::Task<void> {
        ib::MemoryRegion* small =
            co_await cc.acquire(buf.data() + 16 * 1024, 4096);
        co_await cc.release(small);
        ib::MemoryRegion* whole = co_await cc.acquire(buf.data(), buf.size());
        co_await cc.release(whole);
        // [24K, 28K): nearest start is the small entry (ends at 20K); only
        // the whole-buffer entry covers it.
        ib::MemoryRegion* m = co_await cc.acquire(buf.data() + 24 * 1024,
                                                  4096);
        EXPECT_EQ(m, whole);
        EXPECT_EQ(cc.hits(), 1u);
        EXPECT_EQ(cc.misses(), 2u);
        co_await cc.release(m);
      }(cache),
      "enclosing");
  rig.sim.run();
}

TEST(RegCache, EvictsLruWhenOverCapacity) {
  CacheRig rig;
  RegCache cache(*rig.pd, 128 * 1024, true);  // fits two 64K buffers
  static std::vector<std::byte> a(64 * 1024), b(64 * 1024), c(64 * 1024);
  rig.sim.spawn(
      [](RegCache& cc) -> sim::Task<void> {
        ib::MemoryRegion* ma = co_await cc.acquire(a.data(), a.size());
        co_await cc.release(ma);
        ib::MemoryRegion* mb = co_await cc.acquire(b.data(), b.size());
        co_await cc.release(mb);
        ib::MemoryRegion* mc = co_await cc.acquire(c.data(), c.size());
        co_await cc.release(mc);
        EXPECT_EQ(cc.evictions(), 1u);  // a (LRU) evicted
        // b should still hit; a re-registers.
        (void)co_await cc.acquire(b.data(), b.size());
        EXPECT_EQ(cc.hits(), 1u);
        (void)co_await cc.acquire(a.data(), a.size());
        EXPECT_EQ(cc.misses(), 4u);
      }(cache),
      "evict");
  rig.sim.run();
}

TEST(RegCache, PinnedEntriesAreNotEvicted) {
  CacheRig rig;
  RegCache cache(*rig.pd, 32 * 1024, true);  // smaller than one buffer
  static std::vector<std::byte> a(64 * 1024);
  rig.sim.spawn(
      [](RegCache& cc) -> sim::Task<void> {
        ib::MemoryRegion* ma = co_await cc.acquire(a.data(), a.size());
        EXPECT_EQ(cc.evictions(), 0u);  // over capacity but pinned
        EXPECT_TRUE(ma->valid());
        co_await cc.release(ma);        // now evictable
        EXPECT_EQ(cc.evictions(), 1u);
      }(cache),
      "pinned");
  rig.sim.run();
}

TEST(RegCache, DisabledModeRegistersEveryTime) {
  CacheRig rig;
  RegCache cache(*rig.pd, 1 << 20, /*enabled=*/false);
  static std::vector<std::byte> buf(64 * 1024);
  rig.sim.spawn(
      [](RegCache& cc) -> sim::Task<void> {
        ib::MemoryRegion* a = co_await cc.acquire(buf.data(), buf.size());
        co_await cc.release(a);
        ib::MemoryRegion* b = co_await cc.acquire(buf.data(), buf.size());
        co_await cc.release(b);
        EXPECT_EQ(cc.hits(), 0u);
        EXPECT_EQ(cc.misses(), 2u);
      }(cache),
      "disabled");
  rig.sim.run();
}

// ---------------------------------------------------------------------------
// Multi-rank smoke test.
// ---------------------------------------------------------------------------

TEST(MultiRank, FourRankAllToAllStreams) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 4);
  ChannelConfig cfg;
  cfg.design = Design::kZeroCopy;
  std::vector<std::unique_ptr<Channel>> chans(4);
  int verified = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    chans[ctx.rank] = Channel::create(ctx, cfg);
    Channel& ch = *chans[ctx.rank];
    co_await ch.init();
    // Everyone sends a distinct (rendezvous-sized) pattern to the next rank
    // and receives from the previous one, twice around the ring.  Send and
    // receive must progress together -- rendezvous needs receiver-side
    // get() calls -- so this loop is a miniature progress engine.
    const int to = (ctx.rank + 1) % 4;
    const int from = (ctx.rank + 3) % 4;
    for (int round = 0; round < 2; ++round) {
      auto msg = pattern(32 * 1024, 100u + ctx.rank + round * 10);
      auto expect = pattern(32 * 1024, 100u + from + round * 10);
      std::vector<std::byte> got(32 * 1024);
      std::size_t sent = 0, rcvd = 0;
      while (sent < msg.size() || rcvd < got.size()) {
        const std::uint64_t gen = ch.activity_count();
        bool moved = false;
        if (sent < msg.size()) {
          const std::size_t k = co_await ch.put(
              ch.connection(to), msg.data() + sent, msg.size() - sent);
          sent += k;
          moved |= k > 0;
        }
        if (rcvd < got.size()) {
          const std::size_t k = co_await ch.get(
              ch.connection(from), got.data() + rcvd, got.size() - rcvd);
          rcvd += k;
          moved |= k > 0;
        }
        if (!moved && ch.activity_count() == gen) {
          co_await ch.wait_for_activity();
        }
      }
      if (got == expect) ++verified;
    }
    co_await ch.finalize();
  });
  sim.run();
  EXPECT_EQ(verified, 8);
}

}  // namespace
}  // namespace rdmach
