// Cross-cutting coverage: NAS class W on 8 ranks, one-sided windows over
// subcommunicators, and RDMA collectives on split communicators (every
// component on a non-default configuration).
#include <gtest/gtest.h>

#include "ib/fabric.hpp"
#include "mpi/rdma_coll.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"
#include "nas/nas.hpp"
#include "pmi/pmi.hpp"

namespace {

TEST(Coverage, NasClassWVerifiesOnEightRanks) {
  for (const auto& [name, fn] : nas::suite()) {
    sim::Simulator sim;
    ib::Fabric fabric(sim);
    pmi::Job job(fabric, 8);
    bool verified = false;
    job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
      mpi::Runtime rt(ctx, {});
      co_await rt.init();
      const nas::Result r =
          co_await nas::kernel(name)(rt.world(), ctx, nas::Class::W);
      if (ctx.rank == 0) verified = r.verified;
      co_await rt.finalize();
    });
    sim.run();
    EXPECT_TRUE(verified) << name << " class W on 8 ranks";
  }
}

TEST(Coverage, WindowOnSplitCommunicator) {
  // Two disjoint subcommunicators each run their own window epoch with
  // the same displacement pattern; no cross-talk.
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 4);
  job.launch([](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    mpi::Communicator* sub = co_await world.split(world.rank() % 2, 0);
    EXPECT_NE(sub, nullptr);
    if (sub == nullptr) co_return;
    std::vector<std::int64_t> mem(4, -7);
    auto win = co_await mpi::Window::create(*sub, mem.data(), 32);
    co_await win->fence();
    const std::int64_t v = 100 * world.rank();
    const int peer = 1 - sub->rank();
    co_await win->put(&v, 1, mpi::Datatype::kLong, peer,
                      static_cast<std::size_t>(sub->rank()) * 8);
    co_await win->fence();
    // My slot[peer_rank] holds the peer's world-rank stamp.
    const int peer_world = sub->world_rank(peer);
    EXPECT_EQ(mem[static_cast<std::size_t>(peer)], 100 * peer_world);
    EXPECT_EQ(mem[2], -7);  // untouched
    co_await world.barrier();
    co_await rt.finalize();
  });
  sim.run();
}

TEST(Coverage, RdmaCollOnSplitCommunicator) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 8);
  job.launch([](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    mpi::Communicator* sub = co_await world.split(world.rank() % 2, 0);
    EXPECT_NE(sub, nullptr);
    if (sub == nullptr) co_return;
    auto coll = co_await mpi::RdmaColl::create(*sub, 1024);
    // Sum of world ranks within my parity class.
    double v = world.rank(), sum = 0;
    co_await coll->allreduce(&v, &sum, 1, mpi::Datatype::kDouble,
                             mpi::Op::kSum);
    const double expect = world.rank() % 2 == 0 ? 0 + 2 + 4 + 6 : 1 + 3 + 5 + 7;
    EXPECT_DOUBLE_EQ(sum, expect);
    co_await coll->barrier();
    co_await world.barrier();
    co_await rt.finalize();
  });
  sim.run();
}

TEST(Coverage, WindowAccumulateAllOpsOnDoubles) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, 2);
  job.launch([](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<double> mem(4, 10.0);
    auto win = co_await mpi::Window::create(world, mem.data(), 32);
    co_await win->fence();
    if (world.rank() == 1) {
      const double v[4] = {3.0, 3.0, 30.0, 2.0};
      co_await win->accumulate(&v[0], 1, mpi::Datatype::kDouble, mpi::Op::kSum,
                               0, 0);
      co_await win->accumulate(&v[1], 1, mpi::Datatype::kDouble, mpi::Op::kProd,
                               0, 8);
      co_await win->accumulate(&v[2], 1, mpi::Datatype::kDouble, mpi::Op::kMax,
                               0, 16);
      co_await win->accumulate(&v[3], 1, mpi::Datatype::kDouble, mpi::Op::kMin,
                               0, 24);
    }
    co_await win->fence();
    if (world.rank() == 0) {
      EXPECT_DOUBLE_EQ(mem[0], 13.0);
      EXPECT_DOUBLE_EQ(mem[1], 30.0);
      EXPECT_DOUBLE_EQ(mem[2], 30.0);
      EXPECT_DOUBLE_EQ(mem[3], 2.0);
    }
    co_await world.barrier();
    co_await rt.finalize();
  });
  sim.run();
}

}  // namespace
