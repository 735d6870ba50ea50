// Tests for the MPI layer over both CH3 stacks: point-to-point semantics
// (ordering, wildcards, unexpected messages, rendezvous), collectives
// against local references, communicator splitting, and the paper's
// MPI-level latency targets.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "pmi/pmi.hpp"
#include "sim/rng.hpp"

namespace mpi {
namespace {

struct StackParam {
  ch3::Stack stack;
  rdmach::Design design;
};

RuntimeConfig make_cfg(const StackParam& p) {
  RuntimeConfig cfg;
  cfg.stack.stack = p.stack;
  cfg.stack.channel.design = p.design;
  return cfg;
}

struct MpiRig {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job;
  RuntimeConfig cfg;

  explicit MpiRig(int n, RuntimeConfig c = {}) : job(fabric, n), cfg(c) {}

  using Body = std::function<sim::Task<void>(Communicator&, pmi::Context&)>;

  void run(Body body) {
    job.launch([this, body](pmi::Context& ctx) -> sim::Task<void> {
      Runtime rt(ctx, cfg);
      co_await rt.init();
      co_await body(rt.world(), ctx);
      co_await rt.finalize();
    });
    sim.run();
  }
};

std::vector<double> iota_doubles(int n, double base) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = base + i;
  return v;
}

class StackTest : public ::testing::TestWithParam<StackParam> {};

INSTANTIATE_TEST_SUITE_P(
    Stacks, StackTest,
    ::testing::Values(
        StackParam{ch3::Stack::kRdmaChannel, rdmach::Design::kZeroCopy},
        StackParam{ch3::Stack::kRdmaChannel, rdmach::Design::kPipeline},
        StackParam{ch3::Stack::kRdmaChannel, rdmach::Design::kPiggyback},
        StackParam{ch3::Stack::kRdmaChannel, rdmach::Design::kBasic},
        StackParam{ch3::Stack::kCh3Direct, rdmach::Design::kPipeline}),
    [](const auto& info) {
      return std::string(ch3::to_string(info.param.stack)) == "ch3-direct"
                 ? std::string("ch3_direct")
                 : std::string("rdma_") +
                       [](const char* s) {
                         std::string t(s);
                         for (auto& c : t)
                           if (c == '-') c = '_';
                         return t;
                       }(rdmach::to_string(info.param.design));
    });

TEST_P(StackTest, BlockingSendRecvSmall) {
  MpiRig rig(2, make_cfg(GetParam()));
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    if (world.rank() == 0) {
      const int v = 12345;
      co_await world.send(&v, 1, Datatype::kInt, 1, 7);
    } else {
      int v = 0;
      Status st;
      co_await world.recv(&v, 1, Datatype::kInt, 0, 7, &st);
      EXPECT_EQ(v, 12345);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count(Datatype::kInt), 1);
    }
  });
}

TEST_P(StackTest, LargeMessageRendezvous) {
  MpiRig rig(2, make_cfg(GetParam()));
  constexpr int kN = 200'000;  // > any eager/zero-copy threshold
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    if (world.rank() == 0) {
      auto data = iota_doubles(kN, 0.5);
      co_await world.send(data.data(), kN, Datatype::kDouble, 1, 1);
    } else {
      std::vector<double> data(kN, -1.0);
      co_await world.recv(data.data(), kN, Datatype::kDouble, 0, 1);
      EXPECT_DOUBLE_EQ(data[0], 0.5);
      EXPECT_DOUBLE_EQ(data[kN - 1], 0.5 + kN - 1);
    }
  });
}

TEST_P(StackTest, UnexpectedMessagesMatchInOrder) {
  MpiRig rig(2, make_cfg(GetParam()));
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    if (world.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        co_await world.send(&i, 1, Datatype::kInt, 1, 3);
      }
      const int done = 99;
      co_await world.send(&done, 1, Datatype::kInt, 1, 4);
    } else {
      // Let all five land unexpectedly first.
      int done = 0;
      co_await world.recv(&done, 1, Datatype::kInt, 0, 4);
      EXPECT_EQ(done, 99);
      for (int i = 0; i < 5; ++i) {
        int v = -1;
        co_await world.recv(&v, 1, Datatype::kInt, 0, 3);
        EXPECT_EQ(v, i);  // FIFO among same (src, tag)
      }
    }
  });
}

TEST_P(StackTest, UnexpectedLargeMessage) {
  MpiRig rig(2, make_cfg(GetParam()));
  constexpr int kN = 100'000;
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    if (world.rank() == 0) {
      auto data = iota_doubles(kN, 1.0);
      // isend: a blocking send may legitimately not complete before the
      // receiver posts the matching recv (true rendezvous semantics).
      Request r = co_await world.isend(data.data(), kN, Datatype::kDouble, 1,
                                       5);
      const int flag = 1;
      co_await world.send(&flag, 1, Datatype::kInt, 1, 6);
      co_await world.wait(r);
    } else {
      int flag = 0;
      co_await world.recv(&flag, 1, Datatype::kInt, 0, 6);
      // The big message is already waiting (rendezvous parked or buffered).
      std::vector<double> data(kN);
      co_await world.recv(data.data(), kN, Datatype::kDouble, 0, 5);
      EXPECT_DOUBLE_EQ(data[kN - 1], static_cast<double>(kN));
    }
  });
}

TEST_P(StackTest, WildcardSourceAndTag) {
  MpiRig rig(3, make_cfg(GetParam()));
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    if (world.rank() == 0) {
      int got = 0;
      Status st;
      co_await world.recv(&got, 1, Datatype::kInt, kAnySource, kAnyTag, &st);
      EXPECT_EQ(got, st.source * 100 + st.tag);
      co_await world.recv(&got, 1, Datatype::kInt, kAnySource, kAnyTag, &st);
      EXPECT_EQ(got, st.source * 100 + st.tag);
    } else {
      const int v = world.rank() * 100 + world.rank();
      co_await world.send(&v, 1, Datatype::kInt, 0, world.rank());
    }
  });
}

TEST_P(StackTest, NonblockingWindowAndWaitall) {
  MpiRig rig(2, make_cfg(GetParam()));
  constexpr int kW = 16;
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    std::vector<std::vector<int>> bufs(kW, std::vector<int>(256));
    std::vector<Request> reqs;
    if (world.rank() == 0) {
      for (int i = 0; i < kW; ++i) {
        std::fill(bufs[static_cast<std::size_t>(i)].begin(),
                  bufs[static_cast<std::size_t>(i)].end(), i);
        reqs.push_back(co_await world.isend(
            bufs[static_cast<std::size_t>(i)].data(), 256, Datatype::kInt, 1,
            i));
      }
    } else {
      for (int i = 0; i < kW; ++i) {
        reqs.push_back(co_await world.irecv(
            bufs[static_cast<std::size_t>(i)].data(), 256, Datatype::kInt, 0,
            i));
      }
    }
    co_await world.wait_all(reqs);
    if (world.rank() == 1) {
      for (int i = 0; i < kW; ++i) {
        EXPECT_EQ(bufs[static_cast<std::size_t>(i)][255], i);
      }
    }
  });
}

TEST_P(StackTest, ProcNullAndSelfSend) {
  MpiRig rig(2, make_cfg(GetParam()));
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    // Proc-null completes immediately.
    int dummy = 7;
    co_await world.send(&dummy, 1, Datatype::kInt, kProcNull, 0);
    Status st;
    co_await world.recv(&dummy, 1, Datatype::kInt, kProcNull, 0, &st);
    EXPECT_EQ(st.source, kProcNull);
    EXPECT_EQ(dummy, 7);
    // Self messaging through the matching engine.
    const int v = world.rank() + 500;
    Request r = co_await world.irecv(&dummy, 1, Datatype::kInt, world.rank(),
                                     9);
    co_await world.send(&v, 1, Datatype::kInt, world.rank(), 9);
    co_await world.wait(r);
    EXPECT_EQ(dummy, v);
  });
}

TEST_P(StackTest, CollectivesProduceReferenceResults) {
  for (int p : {4, 5}) {  // power-of-two and not
    MpiRig rig(p, make_cfg(GetParam()));
    rig.run([p](Communicator& world, pmi::Context&) -> sim::Task<void> {
      const int r = world.rank();

      // bcast
      int x = r == 2 ? 777 : 0;
      co_await world.bcast(&x, 1, Datatype::kInt, 2);
      EXPECT_EQ(x, 777);

      // allreduce sum & max
      double v = r + 1.0;
      double sum = 0, mx = 0;
      co_await world.allreduce(&v, &sum, 1, Datatype::kDouble, Op::kSum);
      co_await world.allreduce(&v, &mx, 1, Datatype::kDouble, Op::kMax);
      EXPECT_DOUBLE_EQ(sum, p * (p + 1) / 2.0);
      EXPECT_DOUBLE_EQ(mx, p);

      // reduce to root 1
      double rsum = -1;
      co_await world.reduce(&v, &rsum, 1, Datatype::kDouble, Op::kSum, 1);
      if (r == 1) {
        EXPECT_DOUBLE_EQ(rsum, p * (p + 1) / 2.0);
      }

      // maxloc
      DoubleInt di{static_cast<double>((r * 7) % p), r};
      DoubleInt win{};
      co_await world.allreduce(&di, &win, 1, Datatype::kDoubleInt,
                               Op::kMaxLoc);
      // reference
      double best = -1;
      int best_i = -1;
      for (int i = 0; i < p; ++i) {
        const double val = (i * 7) % p;
        if (val > best) {
          best = val;
          best_i = i;
        }
      }
      EXPECT_DOUBLE_EQ(win.value, best);
      EXPECT_EQ(win.index, best_i);

      // allgather
      std::vector<int> all(static_cast<std::size_t>(p), -1);
      const int mine = r * r;
      co_await world.allgather(&mine, 1, all.data(), Datatype::kInt);
      for (int i = 0; i < p; ++i) {
        EXPECT_EQ(all[static_cast<std::size_t>(i)], i * i);
      }

      // alltoall
      std::vector<int> sbuf(static_cast<std::size_t>(p)),
          rbuf(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        sbuf[static_cast<std::size_t>(i)] = r * 1000 + i;
      }
      co_await world.alltoall(sbuf.data(), 1, rbuf.data(), Datatype::kInt);
      for (int i = 0; i < p; ++i) {
        EXPECT_EQ(rbuf[static_cast<std::size_t>(i)], i * 1000 + r);
      }

      // alltoallv (rank r sends r+1 ints to everyone)
      std::vector<int> scounts(static_cast<std::size_t>(p), r + 1);
      std::vector<int> sdispls(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        sdispls[static_cast<std::size_t>(i)] = i * (r + 1);
      }
      std::vector<int> sdata(static_cast<std::size_t>(p * (r + 1)), r);
      std::vector<int> rcounts(static_cast<std::size_t>(p)),
          rdispls(static_cast<std::size_t>(p));
      int tot = 0;
      for (int i = 0; i < p; ++i) {
        rcounts[static_cast<std::size_t>(i)] = i + 1;
        rdispls[static_cast<std::size_t>(i)] = tot;
        tot += i + 1;
      }
      std::vector<int> rdata(static_cast<std::size_t>(tot), -1);
      co_await world.alltoallv(sdata.data(), scounts, sdispls, rdata.data(),
                               rcounts, rdispls, Datatype::kInt);
      for (int i = 0; i < p; ++i) {
        for (int k = 0; k < i + 1; ++k) {
          EXPECT_EQ(rdata[static_cast<std::size_t>(
                        rdispls[static_cast<std::size_t>(i)] + k)],
                    i);
        }
      }

      // gather / scatter round trip via root 0
      std::vector<int> gathered(static_cast<std::size_t>(p));
      co_await world.gather(&mine, 1, gathered.data(), Datatype::kInt, 0);
      int back = -1;
      co_await world.scatter(gathered.data(), 1, &back, Datatype::kInt, 0);
      EXPECT_EQ(back, mine);

      // gatherv to root 1: rank i contributes i + 1 copies of i, stored in
      // reverse rank order with a one-element gap after each block.
      std::vector<int> gcounts(static_cast<std::size_t>(p)),
          gdispls(static_cast<std::size_t>(p));
      int gtot = 0;
      for (int i = p - 1; i >= 0; --i) {
        gcounts[static_cast<std::size_t>(i)] = i + 1;
        gdispls[static_cast<std::size_t>(i)] = gtot;
        gtot += i + 2;
      }
      const std::vector<int> gsend(static_cast<std::size_t>(r + 1), r);
      std::vector<int> gdata(static_cast<std::size_t>(gtot), -1);
      co_await world.gatherv(gsend.data(), r + 1, gdata.data(), gcounts,
                             gdispls, Datatype::kInt, 1);
      if (r == 1) {
        for (int i = 0; i < p; ++i) {
          const auto at = static_cast<std::size_t>(
              gdispls[static_cast<std::size_t>(i)]);
          for (int k = 0; k < i + 1; ++k) {
            EXPECT_EQ(gdata[at + static_cast<std::size_t>(k)], i);
          }
          EXPECT_EQ(gdata[at + static_cast<std::size_t>(i) + 1], -1);
        }
      }

      // reduce_scatter
      std::vector<int> contrib(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        contrib[static_cast<std::size_t>(i)] = r + i;
      }
      std::vector<int> ones(static_cast<std::size_t>(p), 1);
      int piece = -1;
      co_await world.reduce_scatter(contrib.data(), &piece, ones,
                                    Datatype::kInt, Op::kSum);
      // sum over ranks of (rank + my_index)
      EXPECT_EQ(piece, p * (p - 1) / 2 + r * p);

      // scan
      int mine2 = r + 1, pref = 0;
      co_await world.scan(&mine2, &pref, 1, Datatype::kInt, Op::kSum);
      EXPECT_EQ(pref, (r + 1) * (r + 2) / 2);

      co_await world.barrier();
    });
  }
}

TEST_P(StackTest, CommSplitIsolatesTraffic) {
  MpiRig rig(4, make_cfg(GetParam()));
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    // Even / odd split, reversed key order inside each group.
    Communicator* sub =
        co_await world.split(world.rank() % 2, -world.rank());
    EXPECT_NE(sub, nullptr);
    if (sub == nullptr) co_return;  // ASSERT_* cannot be used in coroutines
    EXPECT_EQ(sub->size(), 2);
    // key = -rank reverses order: world rank 2 -> sub rank 0 of evens, etc.
    const int expect_rank = world.rank() < 2 ? 1 : 0;
    EXPECT_EQ(sub->rank(), expect_rank);

    // Message within the subcomm; same tag used concurrently in both
    // subcomms must not cross.
    int v = world.rank() * 11;
    int got = -1;
    if (sub->rank() == 0) {
      co_await sub->send(&v, 1, Datatype::kInt, 1, 42);
    } else {
      co_await sub->recv(&got, 1, Datatype::kInt, 0, 42);
      const int sender_world = sub->world_rank(0);
      EXPECT_EQ(got, sender_world * 11);
    }
    double s = 1.0, total = 0.0;
    co_await sub->allreduce(&s, &total, 1, Datatype::kDouble, Op::kSum);
    EXPECT_DOUBLE_EQ(total, 2.0);
    co_await world.barrier();
  });
}

TEST_P(StackTest, MessageOrderingBetweenPairsPreserved) {
  MpiRig rig(2, make_cfg(GetParam()));
  rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
    constexpr int kMsgs = 50;
    if (world.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        co_await world.send(&i, 1, Datatype::kInt, 1, 0);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        co_await world.recv(&v, 1, Datatype::kInt, 0, 0);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST_P(StackTest, ProbeAndIprobeSeeEnvelopeWithoutConsuming) {
  MpiRig rig(2, make_cfg(GetParam()));
  rig.run([](Communicator& world, pmi::Context& ctx) -> sim::Task<void> {
    if (world.rank() == 0) {
      // Nothing pending yet.
      Status st;
      const bool early = co_await world.iprobe(1, 5, &st);
      EXPECT_FALSE(early);
      // Tell rank 1 to send, then probe (blocking) for it.
      const int go = 1;
      co_await world.send(&go, 1, Datatype::kInt, 1, 9);
      st = co_await world.probe(1, 5);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(st.tag, 5);
      EXPECT_EQ(st.count(Datatype::kDouble), 300);
      // Probing again still sees it (not consumed).
      Status st2;
      EXPECT_TRUE(co_await world.iprobe(kAnySource, kAnyTag, &st2));
      EXPECT_EQ(st2.bytes, st.bytes);
      // Size the receive from the probed envelope (the classic idiom).
      std::vector<double> buf(static_cast<std::size_t>(st.count(Datatype::kDouble)));
      co_await world.recv(buf.data(), st.count(Datatype::kDouble),
                          Datatype::kDouble, st.source, st.tag);
      EXPECT_DOUBLE_EQ(buf[299], 299.0);
      EXPECT_FALSE(co_await world.iprobe(1, 5, &st));  // consumed now
    } else {
      int go = 0;
      co_await world.recv(&go, 1, Datatype::kInt, 0, 9);
      std::vector<double> data(300);
      for (int i = 0; i < 300; ++i) data[static_cast<std::size_t>(i)] = i;
      co_await world.send(data.data(), 300, Datatype::kDouble, 0, 5);
      (void)ctx;
    }
  });
}

TEST(MpiErrors, TruncationThrows) {
  MpiRig rig(2);
  EXPECT_THROW(
      rig.run([](Communicator& world, pmi::Context&) -> sim::Task<void> {
        if (world.rank() == 0) {
          std::vector<int> big(100, 1);
          co_await world.send(big.data(), 100, Datatype::kInt, 1, 0);
        } else {
          int small[10];
          co_await world.recv(small, 10, Datatype::kInt, 0, 0);
        }
      }),
      sim::ProcessError);
}

TEST(MpiLazyConnect, ProgressWiresPassiveReceivers) {
  // With lazy_connect every connection is wired on first use, and a rank
  // that only receives learns of its peers' join requests from its
  // progress loop's service pass (Channel::pre_progress).  Rank 0 sends to
  // every other rank, which never sends back before receiving.
  constexpr int kP = 5;
  RuntimeConfig cfg;
  cfg.stack.channel.lazy_connect = true;
  MpiRig rig(kP, cfg);
  int received = 0;
  rig.run([&received](Communicator& world, pmi::Context&) -> sim::Task<void> {
    const int r = world.rank();
    std::vector<int> buf(64);
    if (r == 0) {
      for (int peer = 1; peer < kP; ++peer) {
        std::iota(buf.begin(), buf.end(), peer * 100);
        co_await world.send(buf.data(), 64, Datatype::kInt, peer, 3);
      }
    } else {
      co_await world.recv(buf.data(), 64, Datatype::kInt, 0, 3);
      std::vector<int> want(64);
      std::iota(want.begin(), want.end(), r * 100);
      EXPECT_EQ(buf, want);
      ++received;
    }
    co_await world.barrier();
  });
  EXPECT_EQ(received, kP - 1);
}

// ---------------------------------------------------------------------------
// MPI-level latency calibration: the paper's headline numbers.
// ---------------------------------------------------------------------------

double mpi_one_way_latency_usec(rdmach::Design design,
                                ch3::Stack stack = ch3::Stack::kRdmaChannel) {
  RuntimeConfig cfg;
  cfg.stack.stack = stack;
  cfg.stack.channel.design = design;
  MpiRig rig(2, cfg);
  sim::Tick elapsed = 0;
  constexpr int kIters = 20;
  rig.run([&elapsed](Communicator& world, pmi::Context& ctx) -> sim::Task<void> {
    std::byte buf[4] = {};
    if (world.rank() == 0) {
      co_await world.send(buf, 4, Datatype::kByte, 1, 0);
      co_await world.recv(buf, 4, Datatype::kByte, 1, 0);
      const sim::Tick t0 = ctx.sim().now();
      for (int i = 0; i < kIters; ++i) {
        co_await world.send(buf, 4, Datatype::kByte, 1, 0);
        co_await world.recv(buf, 4, Datatype::kByte, 1, 0);
      }
      elapsed = ctx.sim().now() - t0;
    } else {
      for (int i = 0; i < kIters + 1; ++i) {
        co_await world.recv(buf, 4, Datatype::kByte, 0, 0);
        co_await world.send(buf, 4, Datatype::kByte, 0, 0);
      }
    }
  });
  return sim::to_usec(elapsed) / (2 * kIters);
}

TEST(MpiLatency, BasicDesignNearPaper18_6) {
  const double usec = mpi_one_way_latency_usec(rdmach::Design::kBasic);
  EXPECT_NEAR(usec, 18.6, 1.8);  // within 10%
}

TEST(MpiLatency, PiggybackNearPaper7_4) {
  const double usec = mpi_one_way_latency_usec(rdmach::Design::kPiggyback);
  EXPECT_NEAR(usec, 7.4, 0.75);
}

TEST(MpiLatency, ZeroCopyNearPaper7_6) {
  const double usec = mpi_one_way_latency_usec(rdmach::Design::kZeroCopy);
  EXPECT_NEAR(usec, 7.6, 0.76);
}

}  // namespace
}  // namespace mpi
