// Unit tests for the software InfiniBand verbs layer: registration and
// protection, RDMA write/read data paths and latencies, the read-response
// and atomic placement contract, channel-semantics send/recv, error
// handling (NAK, flush, injection), and the memory-bus contention model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/mr.hpp"
#include "ib/node.hpp"
#include "ib/qp.hpp"
#include "ib/types.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace ib {
namespace {

/// Pair of connected endpoints used by most tests.
struct Pair {
  sim::Simulator sim;
  Fabric fabric{sim};
  Node* a = nullptr;
  Node* b = nullptr;
  ProtectionDomain* pda = nullptr;
  ProtectionDomain* pdb = nullptr;
  CompletionQueue* cqa = nullptr;
  CompletionQueue* cqb = nullptr;
  QueuePair* qpa = nullptr;
  QueuePair* qpb = nullptr;

  explicit Pair(FabricConfig cfg = {}) : fabric(sim, cfg) {
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

TEST(Mr, RegistrationYieldsUniqueKeysAndCostsTime) {
  Pair p;
  std::vector<std::byte> buf(8192);
  MemoryRegion* mr1 = nullptr;
  MemoryRegion* mr2 = nullptr;
  p.sim.spawn(
      [](Pair& pr, std::vector<std::byte>& b, MemoryRegion*& m1,
         MemoryRegion*& m2) -> sim::Task<void> {
        m1 = co_await pr.pda->register_memory(b.data(), 4096);
        m2 = co_await pr.pda->register_memory(b.data() + 4096, 4096);
      }(p, buf, mr1, mr2),
      "reg");
  p.sim.run();
  ASSERT_NE(mr1, nullptr);
  ASSERT_NE(mr2, nullptr);
  EXPECT_NE(mr1->rkey(), mr2->rkey());
  EXPECT_NE(mr1->lkey(), mr2->lkey());
  EXPECT_NE(mr1->lkey(), mr1->rkey());
  // Two registrations of one page each: 2 * (reg_base + 1 page).
  const sim::Tick expect = 2 * p.fabric.cfg().reg_cost(4096);
  EXPECT_EQ(p.sim.now(), expect);
  EXPECT_EQ(p.pda->region_count(), 2u);
  EXPECT_EQ(p.pda->registered_bytes(), 8192);
}

TEST(Mr, DeregisterInvalidatesKeys) {
  Pair p;
  std::vector<std::byte> buf(4096);
  p.sim.spawn(
      [](Pair& pr, std::vector<std::byte>& b) -> sim::Task<void> {
        MemoryRegion* mr = co_await pr.pda->register_memory(b.data(), 4096);
        const std::uint32_t rkey = mr->rkey();
        EXPECT_NE(pr.pda->find_rkey(rkey), nullptr);
        co_await pr.pda->deregister(mr);
        EXPECT_EQ(pr.pda->find_rkey(rkey), nullptr);
        EXPECT_FALSE(mr->valid());
        EXPECT_EQ(pr.pda->registered_bytes(), 0);
      }(p, buf),
      "dereg");
  p.sim.run();
}

TEST(Mr, CheckSgeRejectsOutOfBounds) {
  Pair p;
  std::vector<std::byte> buf(4096);
  p.sim.spawn(
      [](Pair& pr, std::vector<std::byte>& b) -> sim::Task<void> {
        MemoryRegion* mr = co_await pr.pda->register_memory(b.data(), 4096);
        EXPECT_TRUE(pr.pda->check_sge(Sge{b.data(), 4096, mr->lkey()}));
        EXPECT_FALSE(pr.pda->check_sge(Sge{b.data() + 1, 4096, mr->lkey()}));
        EXPECT_FALSE(pr.pda->check_sge(Sge{b.data(), 4096, mr->lkey() + 999}));
      }(p, buf),
      "bounds");
  p.sim.run();
}

TEST(Rdma, SmallWriteLatencyMatchesCalibration) {
  // The paper's raw verbs layer: 5.9 us small-message RDMA write latency.
  Pair p;
  alignas(8) static std::byte src[64];
  alignas(8) static std::byte dst[64];
  std::memset(src, 0xab, sizeof(src));
  std::memset(dst, 0, sizeof(dst));
  sim::Tick delivered = 0;
  p.sim.spawn(
      [](Pair& pr, sim::Tick& t) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 64);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 64);
        const sim::Tick start = pr.sim.now();
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaWrite,
                                 {Sge{src, 4, ms->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), true});
        co_await pr.b->dma_arrival().wait();
        t = pr.sim.now() - start;
        EXPECT_EQ(dst[0], std::byte{0xab});
      }(p, delivered),
      "writer");
  p.sim.run();
  EXPECT_NEAR(sim::to_usec(delivered), 5.9, 0.1);
}

TEST(Rdma, WriteCompletionArrivesAfterAck) {
  Pair p;
  static std::byte src[8];
  static std::byte dst[8];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        const sim::Tick start = pr.sim.now();
        pr.qpa->post_send(SendWr{7, Opcode::kRdmaWrite,
                                 {Sge{src, 8, ms->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), true});
        const Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.wr_id, 7u);
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
        EXPECT_EQ(wc.opcode, Opcode::kRdmaWrite);
        // Completion = delivery (~5.9) + ack propagation (4.1).
        EXPECT_NEAR(sim::to_usec(pr.sim.now() - start), 10.0, 0.2);
      }(p),
      "acked");
  p.sim.run();
}

TEST(Rdma, WriteLandsWholeAtDelivery) {
  // Channel receive rings zero only their slot headers
  // (rdmach::VerbsChannelBase::ready_recv_ring): a reader that saw a slot's
  // header gen trusts its tail flag, which is sound only because a write
  // lands whole at one instant.  No destination byte changes before the
  // delivery tick, and every one of them has changed at it.
  constexpr std::size_t kLen = 64 * 1024;
  struct Run {
    Pair p;
    std::vector<std::byte> src = std::vector<std::byte>(kLen, std::byte{0xC3});
    std::vector<std::byte> dst = std::vector<std::byte>(kLen, std::byte{0});
    sim::Tick landed = -1;

    Run() {
      p.sim.spawn(
          [](Run& r) -> sim::Task<void> {
            MemoryRegion* ms =
                co_await r.p.pda->register_memory(r.src.data(), kLen);
            MemoryRegion* md =
                co_await r.p.pdb->register_memory(r.dst.data(), kLen);
            r.p.qpa->post_send(SendWr{1, Opcode::kRdmaWrite,
                                      {Sge{r.src.data(), kLen, ms->lkey()}},
                                      reinterpret_cast<std::uint64_t>(
                                          r.dst.data()),
                                      md->rkey(), true});
            co_await r.p.b->dma_arrival().wait();
            r.landed = r.p.sim.now();
          }(*this),
          "writer");
    }
    std::size_t changed() const {
      return static_cast<std::size_t>(
          std::count(dst.begin(), dst.end(), std::byte{0xC3}));
    }
  };
  Run first;
  first.p.sim.run();
  ASSERT_GT(first.landed, 0);
  EXPECT_EQ(first.changed(), kLen);
  // The same run again, stopped one tick short of the delivery.
  Run second;
  second.p.sim.run_until(first.landed - 1);
  EXPECT_EQ(second.changed(), 0u) << "bytes landed before the delivery tick";
  second.p.sim.run_until(first.landed);
  EXPECT_EQ(second.changed(), kLen) << "the write landed piecemeal";
  second.p.sim.run();
  EXPECT_EQ(second.landed, first.landed);
}

TEST(Rdma, LargeWriteBandwidthApproachesLinkRate) {
  Pair p;
  constexpr std::size_t kMsg = 1 << 20;
  constexpr int kCount = 16;
  static std::vector<std::byte> src(kMsg, std::byte{0x5a});
  static std::vector<std::byte> dst(kMsg);
  sim::Tick elapsed = 0;
  p.sim.spawn(
      [](Pair& pr, sim::Tick& out) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src.data(), kMsg);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst.data(), kMsg);
        const sim::Tick start = pr.sim.now();
        for (int i = 0; i < kCount; ++i) {
          pr.qpa->post_send(SendWr{static_cast<std::uint64_t>(i),
                                   Opcode::kRdmaWrite,
                                   {Sge{src.data(), kMsg, ms->lkey()}},
                                   reinterpret_cast<std::uint64_t>(dst.data()),
                                   md->rkey(), true});
        }
        for (int i = 0; i < kCount; ++i) (void)co_await pr.cqa->next();
        out = pr.sim.now() - start;
      }(p, elapsed),
      "bw");
  p.sim.run();
  const double mbps =
      sim::bandwidth_mbps(static_cast<std::int64_t>(kMsg) * kCount, elapsed);
  EXPECT_GT(mbps, 855.0);
  EXPECT_LE(mbps, 871.0);
  EXPECT_TRUE(std::memcmp(src.data(), dst.data(), kMsg) == 0);
}

TEST(Rdma, WritesDeliverInOrder) {
  Pair p;
  static std::byte dst[8] = {};
  static std::byte v1[8], v2[8];
  std::memset(v1, 1, 8);
  std::memset(v2, 2, 8);
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* m1 = co_await pr.pda->register_memory(v1, 8);
        MemoryRegion* m2 = co_await pr.pda->register_memory(v2, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaWrite,
                                 {Sge{v1, 8, m1->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), false});
        pr.qpa->post_send(SendWr{2, Opcode::kRdmaWrite,
                                 {Sge{v2, 8, m2->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), true});
        (void)co_await pr.cqa->next();
        EXPECT_EQ(dst[0], std::byte{2});  // second write overwrote first
      }(p),
      "order");
  p.sim.run();
}

TEST(Rdma, UnsignaledWriteProducesNoCqe) {
  Pair p;
  static std::byte src[8];
  static std::byte dst[8];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaWrite,
                                 {Sge{src, 8, ms->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), false});
        co_await pr.b->dma_arrival().wait();
        co_await pr.sim.delay(sim::usec(50));
        EXPECT_TRUE(pr.cqa->empty());
      }(p),
      "unsignaled");
  p.sim.run();
}

TEST(Rdma, ReadPullsDataAndLatencyIncludesRoundTrip) {
  Pair p;
  static std::byte remote[16];
  static std::byte local[16];
  std::memset(remote, 0x77, sizeof(remote));
  std::memset(local, 0, sizeof(local));
  sim::Tick elapsed = 0;
  p.sim.spawn(
      [](Pair& pr, sim::Tick& out) -> sim::Task<void> {
        MemoryRegion* ml = co_await pr.pda->register_memory(local, 16);
        MemoryRegion* mr = co_await pr.pdb->register_memory(remote, 16);
        const sim::Tick start = pr.sim.now();
        pr.qpa->post_send(SendWr{9, Opcode::kRdmaRead,
                                 {Sge{local, 16, ml->lkey()}},
                                 reinterpret_cast<std::uint64_t>(remote),
                                 mr->rkey(), true});
        const Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
        EXPECT_EQ(wc.byte_len, 16u);
        out = pr.sim.now() - start;
        EXPECT_EQ(local[15], std::byte{0x77});
      }(p, elapsed),
      "reader");
  p.sim.run();
  // wqe 0.8 + wire 4.1 + responder 1.5 + wire 4.1 + rx 1.0 (+ serialization)
  EXPECT_NEAR(sim::to_usec(elapsed), 11.5, 0.3);
}

TEST(Rdma, ReadSnapshotsResponderMemoryAtTurnaround) {
  // A read response samples the responder's memory when the responder
  // turns the request around; a store to that memory after turnaround,
  // while the response is still on the wire, does not reach the initiator.
  Pair p;
  sim::TraceSink sink;
  p.fabric.attach_tracer(&sink);
  static std::byte remote[64];
  static std::byte local[64];
  std::memset(remote, 0x5a, sizeof(remote));
  std::memset(local, 0, sizeof(local));
  sim::Tick overwritten = 0;
  sim::Tick completed = 0;
  p.sim.spawn(
      [](Pair& pr, sim::Tick& store_at, sim::Tick& cqe_at) -> sim::Task<void> {
        MemoryRegion* ml = co_await pr.pda->register_memory(local, 64);
        MemoryRegion* mr = co_await pr.pdb->register_memory(remote, 64);
        pr.qpa->post_send(SendWr{3, Opcode::kRdmaRead,
                                 {Sge{local, 64, ml->lkey()}},
                                 reinterpret_cast<std::uint64_t>(remote),
                                 mr->rkey(), true});
        // Turnaround is ~6.4 us after the post, the CQE ~11.5 us.
        pr.sim.call_at(pr.sim.now() + sim::usec(8.0), [&pr, &store_at] {
          std::memset(remote, 0x11, sizeof(remote));
          store_at = pr.sim.now();
        });
        const Wc wc = co_await pr.cqa->next();
        cqe_at = pr.sim.now();
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
      }(p, overwritten, completed),
      "reader");
  p.sim.run();
  sim::Tick turnaround = -1;
  for (const auto& r : sink.records()) {
    if (r.event == "read_response") turnaround = r.at;
  }
  ASSERT_GE(turnaround, 0);
  ASSERT_LT(turnaround, overwritten);
  ASSERT_LT(overwritten, completed);
  for (std::byte b : local) EXPECT_EQ(b, std::byte{0x5a});
}

TEST(Rdma, ReadScattersAcrossSges) {
  // A read into a two-SGE destination fills the SGEs in order.  A corrupt
  // fault on the read flips the byte at overall offset n/2, which here
  // lies in the second SGE.
  Pair p;
  sim::FaultSchedule faults;
  faults.corrupt("a", 1);  // the second WQE node a initiates
  p.fabric.attach_faults(&faults);
  static constexpr std::size_t kFirst = 100;
  static constexpr std::size_t kN = 256;
  static std::byte remote[kN];
  static std::byte local[kN];
  for (std::size_t i = 0; i < kN; ++i) remote[i] = static_cast<std::byte>(i * 7 + 1);
  bool checked = false;
  p.sim.spawn(
      [](Pair& pr, bool& done) -> sim::Task<void> {
        MemoryRegion* ml = co_await pr.pda->register_memory(local, kN);
        MemoryRegion* mr = co_await pr.pdb->register_memory(remote, kN);
        for (std::uint64_t id = 0; id < 2; ++id) {
          std::memset(local, 0, kN);
          pr.qpa->post_send(
              SendWr{id, Opcode::kRdmaRead,
                     {Sge{local, kFirst, ml->lkey()},
                      Sge{local + kFirst, kN - kFirst, ml->lkey()}},
                     reinterpret_cast<std::uint64_t>(remote), mr->rkey(),
                     true});
          const Wc wc = co_await pr.cqa->next();
          EXPECT_EQ(wc.status, WcStatus::kSuccess);
          EXPECT_EQ(wc.byte_len, kN);
          for (std::size_t i = 0; i < kN; ++i) {
            const std::byte flip =
                id == 1 && i == kN / 2 ? std::byte{1} : std::byte{0};
            EXPECT_EQ(local[i], remote[i] ^ flip) << "read " << id << " @" << i;
          }
        }
        done = true;
      }(p, checked),
      "reader");
  p.sim.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(faults.killed(), 1u);
}

TEST(Rdma, AtomicsReturnOldValueAtCompletion) {
  // Fetch-add and compare-and-swap modify the responder's word and return
  // its prior value into the initiator's 8-byte SGE by the CQE.
  Pair p;
  alignas(8) static std::uint64_t target;
  alignas(8) static std::uint64_t result;
  target = 10;
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ml = co_await pr.pda->register_memory(&result, 8);
        MemoryRegion* mr = co_await pr.pdb->register_memory(&target, 8);
        auto atomic = [&](Opcode op, std::uint64_t arg, std::uint64_t swap) {
          result = 0xdeadbeef;
          SendWr wr{1, op, {Sge{reinterpret_cast<std::byte*>(&result), 8,
                                ml->lkey()}},
                    reinterpret_cast<std::uint64_t>(&target), mr->rkey(),
                    true};
          wr.atomic_arg = arg;
          wr.atomic_swap = swap;
          pr.qpa->post_send(std::move(wr));
        };
        atomic(Opcode::kFetchAdd, 5, 0);
        Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
        EXPECT_EQ(result, 10u);
        EXPECT_EQ(target, 15u);
        atomic(Opcode::kCompareSwap, 15, 99);  // matches: swaps
        wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
        EXPECT_EQ(result, 15u);
        EXPECT_EQ(target, 99u);
        atomic(Opcode::kCompareSwap, 1, 7);  // does not match: no swap
        wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
        EXPECT_EQ(result, 99u);
        EXPECT_EQ(target, 99u);
      }(p),
      "atomics");
  p.sim.run();
}

TEST(Rdma, ReadResponsesTakeNoStagingBuffer) {
  // A read response is placed straight into the destination: a 1 MiB read
  // draws nothing from the simulator's staging-buffer pool.
  Pair p;
  static std::vector<std::byte> remote(1 << 20, std::byte{0x3c});
  static std::vector<std::byte> local(1 << 20);
  std::uint64_t pool_ops = ~0ull;
  p.sim.spawn(
      [](Pair& pr, std::uint64_t& ops) -> sim::Task<void> {
        MemoryRegion* ml =
            co_await pr.pda->register_memory(local.data(), local.size());
        MemoryRegion* mr =
            co_await pr.pdb->register_memory(remote.data(), remote.size());
        const sim::Simulator::Stats before = pr.sim.stats();
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaRead,
                                 {Sge{local.data(), local.size(), ml->lkey()}},
                                 reinterpret_cast<std::uint64_t>(remote.data()),
                                 mr->rkey(), true});
        const Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
        const sim::Simulator::Stats after = pr.sim.stats();
        ops = (after.pool_hits + after.pool_misses) -
              (before.pool_hits + before.pool_misses);
      }(p, pool_ops),
      "reader");
  p.sim.run();
  EXPECT_EQ(pool_ops, 0u);
  EXPECT_TRUE(local == remote);
}

TEST(Rdma, MidSizeReadBandwidthBelowWriteBandwidth) {
  // Figure 15: writes pipeline freely, but reads are capped by the
  // outstanding-read context limit, so each mid-size read pays its request
  // round trip; read bandwidth trails write bandwidth until the transfer
  // time dwarfs the round trip.
  auto run = [](Opcode op, std::size_t msg) {
    Pair p;
    constexpr int kCount = 32;
    static std::vector<std::byte> x(1 << 20), y(1 << 20);
    sim::Tick elapsed = 0;
    p.sim.spawn(
        [](Pair& pr, Opcode o, std::size_t m, sim::Tick& out)
            -> sim::Task<void> {
          MemoryRegion* ma = co_await pr.pda->register_memory(x.data(), m);
          MemoryRegion* mb = co_await pr.pdb->register_memory(y.data(), m);
          const sim::Tick start = pr.sim.now();
          for (int i = 0; i < kCount; ++i) {
            pr.qpa->post_send(SendWr{static_cast<std::uint64_t>(i), o,
                                     {Sge{x.data(), m, ma->lkey()}},
                                     reinterpret_cast<std::uint64_t>(y.data()),
                                     mb->rkey(), true});
          }
          for (int i = 0; i < kCount; ++i) (void)co_await pr.cqa->next();
          out = pr.sim.now() - start;
        }(p, op, msg, elapsed),
        "op");
    p.sim.run();
    return sim::bandwidth_mbps(static_cast<std::int64_t>(msg) * kCount,
                               elapsed);
  };
  const double write_32k = run(Opcode::kRdmaWrite, 32 * 1024);
  const double read_32k = run(Opcode::kRdmaRead, 32 * 1024);
  EXPECT_GT(write_32k, read_32k * 1.3);  // clear write advantage at 32K
  EXPECT_GT(read_32k, 350.0);
  const double write_1m = run(Opcode::kRdmaWrite, 1 << 20);
  const double read_1m = run(Opcode::kRdmaRead, 1 << 20);
  EXPECT_LT(write_1m, read_1m * 1.1);  // converged at 1M
}

TEST(Rdma, BadRkeyCompletesWithRemoteAccessErrorAndFlushesQp) {
  Pair p;
  static std::byte src[8];
  static std::byte dst[8];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        (void)co_await pr.pdb->register_memory(dst, 8);
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaWrite,
                                 {Sge{src, 8, ms->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 0xdeadbeef, true});
        Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
        EXPECT_TRUE(pr.qpa->in_error());
        // Subsequent posts flush.
        pr.qpa->post_send(SendWr{2, Opcode::kRdmaWrite,
                                 {Sge{src, 8, ms->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst), 0,
                                 true});
        wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.wr_id, 2u);
        EXPECT_EQ(wc.status, WcStatus::kFlushError);
      }(p),
      "bad-rkey");
  p.sim.run();
}

TEST(Rdma, WriteBeyondRegionBoundsIsRejected) {
  Pair p;
  static std::byte src[64];
  static std::byte dst[64];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 64);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 32);
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaWrite,
                                 {Sge{src, 64, ms->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), true});
        const Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
      }(p),
      "oob");
  p.sim.run();
}

TEST(Rdma, ReadWithoutRemoteReadPermissionFails) {
  Pair p;
  static std::byte remote[64];
  static std::byte local[64];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ml = co_await pr.pda->register_memory(local, 64);
        MemoryRegion* mr = co_await pr.pdb->register_memory(
            remote, 64, kLocalWrite | kRemoteWrite);
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaRead,
                                 {Sge{local, 64, ml->lkey()}},
                                 reinterpret_cast<std::uint64_t>(remote),
                                 mr->rkey(), true});
        const Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kRemoteAccessError);
      }(p),
      "no-read-perm");
  p.sim.run();
}

TEST(Rdma, BadLocalLkeyIsLocalProtectionError) {
  Pair p;
  static std::byte src[8];
  static std::byte dst[8];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        (void)co_await pr.pda->register_memory(src, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        pr.qpa->post_send(SendWr{1, Opcode::kRdmaWrite,
                                 {Sge{src, 8, 424242}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), true});
        const Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.status, WcStatus::kLocalProtectionError);
        EXPECT_TRUE(pr.qpa->in_error());
      }(p),
      "bad-lkey");
  p.sim.run();
}

TEST(SendRecv, PrepostedReceiveMatches) {
  Pair p;
  static std::byte src[128];
  static std::byte dst[128];
  std::memset(src, 0x3c, sizeof(src));
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 128);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 128);
        pr.qpb->post_recv(RecvWr{100, {Sge{dst, 128, md->lkey()}}});
        pr.qpa->post_send(
            SendWr{1, Opcode::kSend, {Sge{src, 128, ms->lkey()}}, 0, 0, true});
        const Wc rwc = co_await pr.cqb->next();
        EXPECT_EQ(rwc.wr_id, 100u);
        EXPECT_TRUE(rwc.is_recv);
        EXPECT_EQ(rwc.byte_len, 128u);
        EXPECT_EQ(dst[127], std::byte{0x3c});
        const Wc swc = co_await pr.cqa->next();
        EXPECT_EQ(swc.wr_id, 1u);
        EXPECT_EQ(swc.status, WcStatus::kSuccess);
      }(p),
      "sendrecv");
  p.sim.run();
}

TEST(SendRecv, LateReceiveConsumesBufferedArrival) {
  Pair p;
  static std::byte src[64];
  static std::byte dst[64];
  std::memset(src, 0x11, sizeof(src));
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 64);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 64);
        pr.qpa->post_send(
            SendWr{1, Opcode::kSend, {Sge{src, 64, ms->lkey()}}, 0, 0, true});
        co_await pr.sim.delay(sim::usec(50));  // arrival buffered, no recv yet
        EXPECT_TRUE(pr.cqb->empty());
        pr.qpb->post_recv(RecvWr{5, {Sge{dst, 64, md->lkey()}}});
        const Wc wc = co_await pr.cqb->next();
        EXPECT_EQ(wc.wr_id, 5u);
        EXPECT_EQ(dst[0], std::byte{0x11});
      }(p),
      "late-recv");
  p.sim.run();
}

TEST(SendRecv, TruncatingReceiveFails) {
  Pair p;
  static std::byte src[128];
  static std::byte dst[32];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 128);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 32);
        pr.qpb->post_recv(RecvWr{8, {Sge{dst, 32, md->lkey()}}});
        pr.qpa->post_send(
            SendWr{1, Opcode::kSend, {Sge{src, 128, ms->lkey()}}, 0, 0, true});
        const Wc wc = co_await pr.cqb->next();
        EXPECT_EQ(wc.status, WcStatus::kLocalProtectionError);
      }(p),
      "trunc");
  p.sim.run();
}

TEST(Bus, InboundDmaStealsCopyBandwidth) {
  // The mechanism behind the paper's pipelining bottleneck: CPU copies and
  // HCA DMA share the node's memory bus.  An 870 MB/s inbound DMA stream
  // consumes 870 of the 1600 MB/s raw bus, so a concurrent memcpy (2
  // bus-bytes per byte) drops from ~800 MB/s toward (1600-870)/2 = 365 MB/s,
  // while the paced DMA stream itself still fits in the remaining capacity.
  constexpr std::size_t kMsg = 1 << 20;
  auto run = [](bool with_dma) {
    Pair p;
    static std::vector<std::byte> src(kMsg), dst(kMsg);
    static std::vector<std::byte> ca(64 * 1024), cb(64 * 1024);
    sim::Tick copy_elapsed = 0;
    constexpr int kCopies = 64;
    if (with_dma) {
      p.sim.spawn_daemon(
          [](Pair& pr) -> sim::Task<void> {
            MemoryRegion* ms =
                co_await pr.pda->register_memory(src.data(), kMsg);
            MemoryRegion* md =
                co_await pr.pdb->register_memory(dst.data(), kMsg);
            for (;;) {
              pr.qpa->post_send(SendWr{
                  1, Opcode::kRdmaWrite, {Sge{src.data(), kMsg, ms->lkey()}},
                  reinterpret_cast<std::uint64_t>(dst.data()), md->rkey(),
                  true});
              (void)co_await pr.cqa->next();
            }
          }(p),
          "dma-stream");
    }
    p.sim.spawn(
        [](Pair& pr, sim::Tick& out) -> sim::Task<void> {
          co_await pr.sim.delay(sim::usec(100));  // let the DMA stream ramp
          const sim::Tick start = pr.sim.now();
          for (int i = 0; i < kCopies; ++i) {
            co_await pr.b->copy(cb.data(), ca.data(), 64 * 1024);
          }
          out = pr.sim.now() - start;
        }(p, copy_elapsed),
        "copier");
    p.sim.run_until(sim::kSecond);
    return sim::bandwidth_mbps(static_cast<std::int64_t>(64 * 1024) * kCopies,
                               copy_elapsed);
  };
  const double alone = run(false);
  const double contended = run(true);
  EXPECT_NEAR(alone, 800.0, 10.0);
  EXPECT_LT(contended, 0.60 * alone);
  EXPECT_GT(contended, 0.30 * alone);
}

TEST(Node, CopyFactorDependsOnWorkingSet) {
  Pair p;
  static std::vector<std::byte> a(1 << 20), b(1 << 20);
  sim::Tick cached = 0, uncached = 0;
  p.sim.spawn(
      [](Pair& pr, sim::Tick& tc, sim::Tick& tu) -> sim::Task<void> {
        sim::Tick t0 = pr.sim.now();
        co_await pr.a->copy(b.data(), a.data(), 128 * 1024);  // ws <= cache
        tc = pr.sim.now() - t0;
        t0 = pr.sim.now();
        co_await pr.a->copy(b.data(), a.data(), 128 * 1024, 1 << 20);
        tu = pr.sim.now() - t0;
      }(p, cached, uncached),
      "copies");
  p.sim.run();
  EXPECT_NEAR(static_cast<double>(uncached) / static_cast<double>(cached),
              1.5, 0.01);
  // Standalone copy bandwidth ~800 MB/s in-cache (bus/2).
  EXPECT_NEAR(sim::bandwidth_mbps(128 * 1024, cached), 800.0, 8.0);
}

TEST(Inject, ExhaustedRetriesSurfaceAsTransportErrors) {
  FabricConfig cfg;
  cfg.inject_error_rate = 0.5;
  cfg.inject_seed = 42;
  cfg.retry_count = 0;  // no HW retransmission: every failure surfaces
  Pair p(cfg);
  static std::byte src[8];
  static std::byte dst[8];
  int errors = 0, successes = 0;
  p.sim.spawn(
      [](Pair& pr, int& err, int& ok) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        for (int i = 0; i < 50; ++i) {
          pr.qpa->post_send(SendWr{static_cast<std::uint64_t>(i),
                                   Opcode::kRdmaWrite,
                                   {Sge{src, 8, ms->lkey()}},
                                   reinterpret_cast<std::uint64_t>(dst),
                                   md->rkey(), true});
          const Wc wc = co_await pr.cqa->next();
          if (wc.status == WcStatus::kTransportError) {
            ++err;
            // Retry exhaustion is an RC error like any other: the QP is
            // down until a drained reset returns it to service.
            EXPECT_TRUE(pr.qpa->in_error());
            co_await pr.qpa->quiesce();
            pr.qpa->reset();
          } else {
            EXPECT_EQ(wc.status, WcStatus::kSuccess);
            ++ok;
          }
          EXPECT_FALSE(pr.qpa->in_error());
        }
      }(p, errors, successes),
      "inject");
  p.sim.run();
  EXPECT_GT(errors, 10);
  EXPECT_GT(successes, 10);
}

TEST(Inject, RcRetransmissionHidesAttemptFailures) {
  // With the default retry budget, a 40%-lossy link costs time (visible
  // retransmit trace records), not completions.
  FabricConfig cfg;
  cfg.inject_error_rate = 0.4;
  cfg.inject_seed = 7;
  sim::TraceSink sink;
  Pair p(cfg);
  p.fabric.attach_tracer(&sink);
  static std::byte src[8];
  static std::byte dst[8];
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        for (int i = 0; i < 100; ++i) {
          pr.qpa->post_send(SendWr{static_cast<std::uint64_t>(i),
                                   Opcode::kRdmaWrite,
                                   {Sge{src, 8, ms->lkey()}},
                                   reinterpret_cast<std::uint64_t>(dst),
                                   md->rkey(), true});
          const Wc wc = co_await pr.cqa->next();
          EXPECT_EQ(wc.status, WcStatus::kSuccess);
        }
      }(p),
      "lossy");
  p.sim.run();
  EXPECT_GT(sink.count("retransmit"), 20u);  // ~0.4/0.6 * 100 expected
}

TEST(Qp, ApiMisuseThrows) {
  sim::Simulator sim;
  Fabric fabric(sim);
  Node& a = fabric.add_node("a");
  ProtectionDomain& pd = a.hca().alloc_pd();
  CompletionQueue& cq = a.hca().create_cq("cq");
  QueuePair& qp = a.hca().create_qp(pd, cq, cq);
  EXPECT_THROW(qp.post_send(SendWr{}), VerbsError);  // not connected
  EXPECT_THROW(qp.connect(qp), VerbsError);          // self-connection
  Node& b = fabric.add_node("b");
  ProtectionDomain& pdb = b.hca().alloc_pd();
  EXPECT_THROW(a.hca().create_qp(pdb, cq, cq), VerbsError);  // foreign PD
}

TEST(Qp, WcStatusNamesForDiagnostics) {
  // The channel's internal-WR failure message names the status.
  const WcStatus all[] = {WcStatus::kSuccess, WcStatus::kLocalProtectionError,
                          WcStatus::kRemoteAccessError,
                          WcStatus::kTransportError, WcStatus::kFlushError};
  const char* const want[] = {"success", "local-protection-error",
                              "remote-access-error", "transport-error",
                              "flush-error"};
  for (std::size_t i = 0; i < std::size(all); ++i) {
    EXPECT_STREQ(to_string(all[i]), want[i]);
  }
}

// A QP's engines start on first work: an idle connected pair costs no
// event, and whichever operation comes first must start what it needs.

TEST(LazyStart, ConnectQueuesNoEvent) {
  sim::Simulator sim;
  Fabric fabric(sim);
  Node& a = fabric.add_node("a");
  Node& b = fabric.add_node("b");
  CompletionQueue& cqa = a.hca().create_cq("cqa");
  CompletionQueue& cqb = b.hca().create_cq("cqb");
  QueuePair& qpa = a.hca().create_qp(a.hca().alloc_pd(), cqa, cqa);
  QueuePair& qpb = b.hca().create_qp(b.hca().alloc_pd(), cqb, cqb);
  qpa.connect(qpb);
  EXPECT_TRUE(qpb.connected());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(sim.events_processed(), 0u);
}

/// Runs one 8-byte read-class operation as the first WQE of a fresh pair
/// and returns its completion; the peer's responder must start for it.
Wc first_op(Opcode op, std::uint64_t& target, std::uint64_t& result) {
  Pair p;
  sim::TraceSink sink;
  p.fabric.attach_tracer(&sink);
  Wc wc{};
  p.sim.spawn(
      [](Pair& pr, Opcode o, std::uint64_t& t, std::uint64_t& r,
         Wc& out) -> sim::Task<void> {
        MemoryRegion* ml = co_await pr.pda->register_memory(&r, 8);
        MemoryRegion* mr = co_await pr.pdb->register_memory(&t, 8);
        SendWr wr{5, o, {Sge{reinterpret_cast<std::byte*>(&r), 8, ml->lkey()}},
                  reinterpret_cast<std::uint64_t>(&t), mr->rkey(), true};
        wr.atomic_arg = 3;
        pr.qpa->post_send(std::move(wr));
        out = co_await pr.cqa->next();
      }(p, op, target, result, wc),
      "first-op");
  p.sim.run();
  const std::string responder =
      "b.qp" + std::to_string(p.qpb->qp_num()) + ".resp";
  const bool served =
      std::any_of(sink.records().begin(), sink.records().end(),
                  [&](const sim::TraceRecord& r) { return r.source == responder; });
  EXPECT_TRUE(served);
  return wc;
}

TEST(LazyStart, FirstOpReadStartsPeerResponder) {
  alignas(8) static std::uint64_t target;
  alignas(8) static std::uint64_t result;
  target = 0x1122334455667788u;
  result = 0;
  const Wc wc = first_op(Opcode::kRdmaRead, target, result);
  EXPECT_EQ(wc.wr_id, 5u);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(result, 0x1122334455667788u);
}

TEST(LazyStart, FirstOpAtomicStartsPeerResponder) {
  alignas(8) static std::uint64_t target;
  alignas(8) static std::uint64_t result;
  target = 40;
  result = 0;
  const Wc wc = first_op(Opcode::kFetchAdd, target, result);
  EXPECT_EQ(wc.wr_id, 5u);
  EXPECT_EQ(wc.status, WcStatus::kSuccess);
  EXPECT_EQ(result, 40u);
  EXPECT_EQ(target, 43u);
}

TEST(LazyStart, NeverStartedQpClosesQuiescesResetsAndPosts) {
  Pair p;
  static std::byte src[8];
  static std::byte dst[8];
  std::memset(src, 0x5a, sizeof src);
  std::memset(dst, 0, sizeof dst);
  p.sim.spawn(
      [](Pair& pr) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        pr.qpa->close();
        EXPECT_TRUE(pr.qpa->in_error());
        co_await pr.qpa->quiesce();
        pr.qpa->reset();
        EXPECT_FALSE(pr.qpa->in_error());
        pr.qpa->post_send(SendWr{7, Opcode::kRdmaWrite,
                                 {Sge{src, 8, ms->lkey()}},
                                 reinterpret_cast<std::uint64_t>(dst),
                                 md->rkey(), true});
        const Wc wc = co_await pr.cqa->next();
        EXPECT_EQ(wc.wr_id, 7u);
        EXPECT_EQ(wc.status, WcStatus::kSuccess);
        EXPECT_EQ(dst[7], std::byte{0x5a});
      }(p),
      "reset-then-post");
  p.sim.run();
}

TEST(LazyStart, ErroredNeverStartedQpFlushesInPostOrder) {
  Pair p;
  static std::byte src[8];
  static std::byte dst[8];
  std::vector<std::uint64_t> ids;
  p.sim.spawn(
      [](Pair& pr, std::vector<std::uint64_t>& got) -> sim::Task<void> {
        MemoryRegion* ms = co_await pr.pda->register_memory(src, 8);
        MemoryRegion* md = co_await pr.pdb->register_memory(dst, 8);
        pr.qpa->close();
        const Opcode ops[] = {Opcode::kRdmaWrite, Opcode::kRdmaRead,
                              Opcode::kSend, Opcode::kRdmaWrite};
        for (std::uint64_t i = 0; i < 4; ++i) {
          pr.qpa->post_send(SendWr{10 + i, ops[i], {Sge{src, 8, ms->lkey()}},
                                   reinterpret_cast<std::uint64_t>(dst),
                                   md->rkey(), i != 2});
        }
        for (int i = 0; i < 4; ++i) {
          const Wc wc = co_await pr.cqa->next();
          EXPECT_EQ(wc.status, WcStatus::kFlushError);
          got.push_back(wc.wr_id);
        }
      }(p, ids),
      "flush");
  p.sim.run();
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{10, 11, 12, 13}));
}

}  // namespace
}  // namespace ib
