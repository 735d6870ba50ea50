// Tests for the scalable one-sided RMA engine: passive-target epochs
// (lock_all / flush), the serialized accumulate path, notified access,
// and the recovery composition (journal replay across a QP kill, obituary
// fast-fail toward convicted ranks under ft_detector).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "channel_test_util.hpp"
#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"
#include "pmi/pmi.hpp"

namespace {

using rdmach::testutil::FaultPlan;

constexpr sim::Tick kDeadline = sim::usec(30'000'000);  // 30 virtual seconds

// ---------------------------------------------------------------------------
// Differential: one RMA program, several stacks, one oracle
// ---------------------------------------------------------------------------

/// Runs the flush/lock-all RMA program on `design` and checks every rank's
/// final window memory against the locally computed oracle.  The window
/// drives its own QP mesh, so the result must be identical no matter which
/// two-sided design carries the bootstrap traffic -- including the pure
/// shared-memory stack (all ranks on one node).
void run_rma_program(rdmach::Design design, int ranks_per_node) {
  constexpr int kP = 4;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, kP, ranks_per_node};
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = design;
  int checked = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    const int me = world.rank();
    const int right = (me + 1) % kP;
    const int left = (me + kP - 1) % kP;
    std::vector<std::int64_t> mem(64, me);
    auto win = co_await mpi::Window::create(world, mem.data(), 64 * 8);
    co_await win->fence();
    win->lock_all();

    // Phase 1: deposit my rank into slot `me` of my right neighbour, then
    // complete it with a per-target flush (no barrier, no target code).
    const std::int64_t tag = me;
    co_await win->put(&tag, 1, mpi::Datatype::kLong, right,
                      static_cast<std::size_t>(me) * 8);
    co_await win->flush(right);
    co_await world.barrier();  // order the *check*, not the completion
    EXPECT_EQ(mem[static_cast<std::size_t>(left)], left);

    // Phase 2: everyone accumulates into the SAME word of rank 0 (the
    // serialized-RMW path) and fetch_adds the word next to it.
    const std::int64_t contrib = me + 1;
    co_await win->accumulate(&contrib, 1, mpi::Datatype::kLong, mpi::Op::kSum,
                             0, 60 * 8);
    (void)co_await win->fetch_add(0, 61 * 8, 1);
    co_await win->flush_all();
    co_await win->unlock_all();
    co_await win->fence();
    if (me == 0) {
      EXPECT_EQ(mem[60], 0 + 1 + 2 + 3 + 4);  // init 0 + sum(r+1)
      EXPECT_EQ(mem[61], kP);                 // one fetch_add per rank
    }

    // Phase 3: read the accumulate word back from everywhere.
    std::int64_t got = -1;
    co_await win->get(&got, 1, mpi::Datatype::kLong, 0, 60 * 8);
    co_await win->flush(0);
    EXPECT_EQ(got, 10);
    ++checked;
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(checked, kP) << "a rank never finished the RMA program";
}

TEST(RmaDifferential, BasicDesignMatchesOracle) {
  run_rma_program(rdmach::Design::kBasic, 1);
}

TEST(RmaDifferential, ZeroCopyDesignMatchesOracle) {
  run_rma_program(rdmach::Design::kZeroCopy, 1);
}

TEST(RmaDifferential, ShmStackMatchesOracle) {
  // All four ranks on one node: the bootstrap runs over the shared-memory
  // channel, the window QPs are HCA-loopback.
  run_rma_program(rdmach::Design::kShm, 4);
}

// ---------------------------------------------------------------------------
// The accumulate data race (historical bug): conflicting targets
// ---------------------------------------------------------------------------

TEST(Rma, AccumulateContentionIsSerialized) {
  // Every rank accumulates into the SAME window word of rank 0,
  // concurrently.  The historical read-modify-write emulation lost
  // updates here; the CAS-lock serialization must not drop any.
  constexpr int kP = 4;
  constexpr int kHits = 10;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, kP};
  std::int64_t final_value = -1;
  std::uint64_t lock_spins = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(1, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 8);
    co_await win->fence();
    win->lock_all();
    const std::int64_t one = 1;
    for (int i = 0; i < kHits; ++i) {
      co_await win->accumulate(&one, 1, mpi::Datatype::kLong, mpi::Op::kSum,
                               0, 0);
    }
    co_await win->unlock_all();
    co_await win->fence();
    if (world.rank() == 0) {
      final_value = mem[0];
      lock_spins = win->stats().lock_spins;
    }
    co_await world.barrier();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(final_value, kP * kHits);  // no lost updates
  (void)lock_spins;  // contention may or may not spin; correctness above
}

TEST(Rma, FetchAddContentionUnderFlushEpochs) {
  constexpr int kP = 4;
  constexpr int kHits = 8;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, kP};
  std::int64_t final_value = -1;
  bool olds_distinct = true;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(1, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 8);
    co_await win->fence();
    win->lock_all();
    std::int64_t prev = -1;
    for (int i = 0; i < kHits; ++i) {
      const std::int64_t old = co_await win->fetch_add(0, 0, 1);
      if (old <= prev) olds_distinct = false;  // must be strictly increasing
      prev = old;
      co_await win->flush(0);
    }
    co_await win->unlock_all();
    co_await win->fence();
    if (world.rank() == 0) final_value = mem[0];
    co_await world.barrier();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(final_value, kP * kHits);
  EXPECT_TRUE(olds_distinct);
}

TEST(Rma, FlushLocalReleasesOriginBuffers) {
  // After flush_local(target) / flush_local_all() the origin buffer of every
  // put issued before it may be overwritten: the target still receives the
  // value the buffer held at the put.  (The HCA reads a put's source when it
  // processes the WQE, after put() has returned.)
  constexpr int kP = 3;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, kP};
  int checked = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    const int me = world.rank();
    const int right = (me + 1) % kP;
    std::vector<std::int64_t> mem(2 * kP, -1);
    auto win = co_await mpi::Window::create(world, mem.data(), 2 * kP * 8);
    co_await win->fence();
    win->lock_all();
    std::int64_t origin = 100 + me;
    co_await win->put(&origin, 1, mpi::Datatype::kLong, right,
                      static_cast<std::size_t>(me) * 8);
    co_await win->flush_local(right);
    origin = 200 + me;
    for (int t = 0; t < kP; ++t) {
      co_await win->put(&origin, 1, mpi::Datatype::kLong, t,
                        static_cast<std::size_t>(kP + me) * 8);
    }
    co_await win->flush_local_all();
    origin = -7;
    co_await win->unlock_all();
    co_await win->fence();
    const int left = (me + kP - 1) % kP;
    EXPECT_EQ(mem[static_cast<std::size_t>(left)], 100 + left);
    for (int o = 0; o < kP; ++o) {
      EXPECT_EQ(mem[static_cast<std::size_t>(kP + o)], 200 + o);
    }
    ++checked;
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(checked, kP);
}

// ---------------------------------------------------------------------------
// Notified access
// ---------------------------------------------------------------------------

TEST(Rma, PutNotifyProducerConsumer) {
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 2};
  int consumed = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(4, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 4 * 8);
    co_await win->fence();
    if (world.rank() == 0) {
      win->lock_all();
      for (std::int64_t i = 1; i <= 3; ++i) {
        const std::int64_t v = 100 + i;
        co_await win->put_notify(&v, 1, mpi::Datatype::kLong, 1,
                                 static_cast<std::size_t>(i - 1) * 8);
        co_await win->flush(1);  // origin-side completion of data + flag
      }
      co_await win->unlock_all();
    } else {
      for (std::int64_t i = 1; i <= 3; ++i) {
        co_await win->wait_notify(0, static_cast<std::uint64_t>(i));
        // The flag rode the same QP behind the data: observing notify i
        // means puts 1..i all landed.
        for (std::int64_t k = 1; k <= i; ++k) {
          EXPECT_EQ(mem[static_cast<std::size_t>(k - 1)], 100 + k);
        }
        ++consumed;
      }
      EXPECT_EQ(win->notify_count(0), 3u);
    }
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(consumed, 3);
}

TEST(Rma, PipelinedPutNotifyKeepsFlagOrdering) {
  // Back-to-back put_notify calls with NO intervening flush: each flag
  // write must own its registered source until its CQE retires it (the
  // HCA gathers the source at WQE-processing time), or an early flag can
  // carry a later absolute count and unblock the consumer before the
  // corresponding puts landed.  24 notifies also overflows the 16-slot
  // ring, exercising the drain fallback.
  constexpr std::int64_t kN = 24;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 2};
  int consumed = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(kN, -1);
    auto win = co_await mpi::Window::create(world, mem.data(), kN * 8);
    co_await win->fence();
    if (world.rank() == 0) {
      win->lock_all();
      // Warm the RegCache with one covering registration (content is the
      // -1s the target already holds), so the burst's acquires are cache
      // hits and every put_notify posts in the same tick -- the deepest,
      // most adversarial pipeline the origin can create.
      std::vector<std::int64_t> vals(static_cast<std::size_t>(kN), -1);
      co_await win->put(vals.data(), static_cast<int>(kN),
                        mpi::Datatype::kLong, 1, 0);
      co_await win->flush(1);
      for (std::int64_t i = 1; i <= kN; ++i) {
        vals[static_cast<std::size_t>(i - 1)] = 100 + i;
        co_await win->put_notify(&vals[static_cast<std::size_t>(i - 1)], 1,
                                 mpi::Datatype::kLong, 1,
                                 static_cast<std::size_t>(i - 1) * 8);
        // Deliberately no flush: the whole burst is in flight at once.
      }
      co_await win->flush(1);
      co_await win->unlock_all();
    } else {
      for (std::int64_t i = 1; i <= kN; ++i) {
        co_await win->wait_notify(0, static_cast<std::uint64_t>(i));
        // Whatever count is visible, every put up to it must have landed.
        const std::uint64_t c = win->notify_count(0);
        for (std::uint64_t k = 1; k <= c; ++k) {
          EXPECT_EQ(mem[static_cast<std::size_t>(k - 1)],
                    static_cast<std::int64_t>(100 + k))
              << "notify " << c << " visible but put " << k << " missing";
        }
        ++consumed;
      }
      EXPECT_EQ(win->notify_count(0), static_cast<std::uint64_t>(kN));
    }
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(consumed, kN);
}

sim::Task<void> self_notify_waiter(mpi::Window& win, int me, bool& woke) {
  co_await win.wait_notify(me, 1);
  woke = true;
}

TEST(Rma, PutNotifyToSelfWakesBlockedWaiter) {
  // A coroutine already blocked in wait_notify(self) re-evaluates its
  // predicate only when the node's dma_arrival trigger fires; a local
  // put_notify must fire it just like an inbound flag write does.
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 1};
  bool woke = false;
  bool done = false;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(2, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 2 * 8);
    co_await win->fence();
    ctx.sim().spawn(self_notify_waiter(*win, 0, woke), "self-waiter");
    co_await ctx.sim().delay(sim::usec(10));  // let the waiter block first
    EXPECT_FALSE(woke);
    const std::int64_t v = 42;
    co_await win->put_notify(&v, 1, mpi::Datatype::kLong, 0, 0);
    co_await ctx.sim().delay(sim::usec(100));
    EXPECT_TRUE(woke) << "self put_notify never woke the blocked waiter";
    EXPECT_EQ(mem[0], 42);
    co_await win->fence();
    done = true;
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_TRUE(woke);
  EXPECT_TRUE(done);
}

TEST(Rma, AsymmetricWindowsValidateAgainstTargetSize) {
  // create() takes per-rank bytes, so legality of an access is a property
  // of the *target's* window: rank 0 exposes 8 bytes, rank 1 exposes 64.
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 2};
  bool stored = false;
  bool rejected = false;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    const int me = world.rank();
    std::vector<std::int64_t> mem(me == 0 ? 1 : 8, -1);
    auto win =
        co_await mpi::Window::create(world, mem.data(), mem.size() * 8);
    co_await win->fence();
    if (me == 0) {
      // Legal at the target (disp 32 < 64) though beyond our own 8 bytes.
      win->lock_all();
      const std::int64_t v = 77;
      co_await win->put(&v, 1, mpi::Datatype::kLong, 1, 4 * 8);
      co_await win->flush(1);
      co_await win->unlock_all();
    } else {
      // Out of range at the target: a clean local MpiError, no wire op.
      const std::int64_t v = 5;
      try {
        co_await win->put(&v, 1, mpi::Datatype::kLong, 0, 4 * 8);
      } catch (const mpi::MpiError&) {
        rejected = true;
      }
    }
    co_await world.barrier();
    if (me == 1) stored = (mem[4] == 77);
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_TRUE(stored) << "legal access to the larger remote window failed";
  EXPECT_TRUE(rejected) << "out-of-range access was not rejected locally";
}

TEST(Rma, WindowCreatePublishesOneKeyPerRank) {
  // Window::create exchanges one descriptor key per rank (addr, size, rkey,
  // control block, per-peer QPNs), so the PMI key space grows O(p) per
  // window, not O(p^2).
  constexpr int kP = 8;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, kP};
  std::size_t before = 0;
  std::size_t after = 0;
  int verified = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    const int me = world.rank();
    co_await world.barrier();
    if (me == 0) before = ctx.kvs->size();
    std::vector<std::int64_t> mem(kP, -1);
    auto win = co_await mpi::Window::create(world, mem.data(), mem.size() * 8);
    if (me == 0) after = ctx.kvs->size();
    // The exchanged descriptors must still wire every pair: each rank
    // puts its rank into its own slot at every other rank.
    co_await win->fence();
    const std::int64_t v = me;
    for (int t = 0; t < kP; ++t) {
      if (t == me) continue;
      co_await win->put(&v, 1, mpi::Datatype::kLong, t,
                        static_cast<std::size_t>(me) * 8);
    }
    co_await win->fence();
    bool all = true;
    for (int o = 0; o < kP; ++o) {
      if (o != me && mem[static_cast<std::size_t>(o)] != o) all = false;
    }
    if (all) ++verified;
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(after - before, static_cast<std::size_t>(kP));
  EXPECT_EQ(verified, kP);
}

// ---------------------------------------------------------------------------
// Recovery composition
// ---------------------------------------------------------------------------

TEST(RmaFault, FlushSpansQpKillAndReplays) {
  // A transient kill lands mid-burst on the origin's window QP.  The
  // flush must observe the error CQEs, reset the QP, replay the journal,
  // and complete -- the target's memory ends up exactly as if no fault had
  // happened (puts are idempotent; the killed WQE never reached the
  // responder).
  FaultPlan plan;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 2};
  std::uint64_t replays = 0, recoveries = 0;
  int verified = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    constexpr int kBurst = 8;
    std::vector<std::int64_t> mem(kBurst, -1);
    auto win = co_await mpi::Window::create(world, mem.data(), kBurst * 8);
    co_await win->fence();
    if (world.rank() == 0) {
      // Kill the third window WQE this node processes from here on; the
      // channel is quiescent between the fence and the flush, so the
      // burst's puts are the next WQEs in scope.
      const std::string scope = FaultPlan::scope_of(0);
      plan.schedule.kill(scope, plan.schedule.observed(scope) + 2);
      win->lock_all();
      std::vector<std::int64_t> vals(kBurst);
      for (int i = 0; i < kBurst; ++i) vals[i] = 1000 + i;
      for (int i = 0; i < kBurst; ++i) {
        co_await win->put(&vals[static_cast<std::size_t>(i)], 1,
                          mpi::Datatype::kLong, 1,
                          static_cast<std::size_t>(i) * 8);
      }
      co_await win->flush(1);
      co_await win->unlock_all();
      replays = win->stats().replays;
      recoveries = win->stats().recoveries;
    }
    co_await world.barrier();  // flush happened-before the check
    if (world.rank() == 1) {
      for (int i = 0; i < kBurst; ++i) {
        EXPECT_EQ(mem[static_cast<std::size_t>(i)], 1000 + i) << "slot " << i;
      }
      ++verified;
    }
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_EQ(verified, 1) << "target never verified (hang?)";
  EXPECT_GE(recoveries, 1u) << "the kill was never recovered from";
  EXPECT_GE(replays, 1u) << "no journal entry was replayed";
}

TEST(RmaFault, AccumulateFailureReleasesRemoteLock) {
  // Rank 1's RMW read dies after its CAS took rank 0's accumulate lock, and
  // so does the read's one replay (a retry budget of 1): the accumulate
  // raises ChannelError, but the failure path must still release the
  // remote lock word on a fresh budget -- otherwise rank 2, accumulating
  // to the same live target, spins on the leaked lock until its watchdog
  // and raises a false kDead.
  constexpr int kP = 3;
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.recovery_max_attempts = 1;
  FaultPlan plan;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, kP};
  bool failed = false;
  bool second_ok = false;
  std::int64_t final_value = -1;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(1, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 8);
    co_await win->fence();
    win->lock_all();
    const std::int64_t contrib = 5;
    if (world.rank() == 1) {
      // Next window WQEs this node initiates: the CAS (lock acquire),
      // then the RMW read, then -- after one recovery -- the read's replay.
      // Kill both reads; the flushed WQEs behind them count no operation.
      const std::string scope = FaultPlan::scope_of(1);
      const std::uint64_t cas = plan.schedule.observed(scope);
      plan.schedule.kill(scope, cas + 1);
      plan.schedule.kill(scope, cas + 2);
      try {
        co_await win->accumulate(&contrib, 1, mpi::Datatype::kLong,
                                 mpi::Op::kSum, 0, 0);
      } catch (const rdmach::ChannelError&) {
        failed = true;
      }
      ctx.kvs->put("rma:lockleak:failed", {});
    } else if (world.rank() == 2) {
      (void)co_await ctx.kvs->get("rma:lockleak:failed");
      co_await win->accumulate(&contrib, 1, mpi::Datatype::kLong,
                               mpi::Op::kSum, 0, 0);
      second_ok = true;
      ctx.kvs->put("rma:lockleak:done", {});
    } else {
      (void)co_await ctx.kvs->get("rma:lockleak:done");
      final_value = mem[0];
    }
    co_await win->unlock_all();
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_TRUE(failed) << "the injected kill never surfaced";
  EXPECT_EQ(plan.schedule.killed(), 2u) << "the read and its replay die";
  EXPECT_TRUE(second_ok) << "healthy origin hung on a leaked lock";
  EXPECT_EQ(final_value, 5) << "the healthy accumulate was lost";
}

TEST(RmaFault, RmaToDeadRankFailsFastUnderFtDetector) {
  // Rank 3 dies for real after the window is up.  Rank 0 discovers it the
  // hard way -- a flush whose retry budget convicts and posts the obituary
  // -- and every subsequent RMA entry toward the corpse fails fast off the
  // board, from every survivor.  Never a hang.
  constexpr int kP = 4;
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = rdmach::Design::kZeroCopy;
  cfg.stack.channel.ft_detector = true;
  cfg.stack.channel.recovery_max_attempts = 3;  // shorten the conviction
  FaultPlan plan;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, kP};
  bool proc_failed[kP] = {false, false, false, false};
  bool fast_failed[kP] = {false, false, false, false};
  std::uint64_t fast_fail_count = 0;
  std::vector<std::unique_ptr<mpi::Runtime>> rts(kP);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[static_cast<std::size_t>(ctx.rank)] =
        std::make_unique<mpi::Runtime>(ctx, cfg);
    mpi::Runtime& rt = *rts[static_cast<std::size_t>(ctx.rank)];
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(8, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 8 * 8);
    co_await win->fence();
    if (ctx.rank == 3) {
      plan.schedule.rank_down(FaultPlan::scope_of(3));
      co_return;  // the corpse: never progresses again
    }
    win->lock_all();
    const std::int64_t v = 7;
    if (ctx.rank == 0) {
      // The hard way: put + flush burns the window's retry budget, posts
      // the obituary, raises ProcFailedError naming the corpse.
      try {
        co_await win->put(&v, 1, mpi::Datatype::kLong, 3, 0);
        co_await win->flush(3);
      } catch (const mpi::ProcFailedError& e) {
        proc_failed[0] = true;
        EXPECT_EQ(e.world_rank(), 3);
      }
      // Fast path: with the obituary on the board, the entry check fires
      // before any WQE is posted.
      try {
        co_await win->put(&v, 1, mpi::Datatype::kLong, 3, 0);
      } catch (const mpi::ProcFailedError& e) {
        fast_failed[0] = true;
        EXPECT_EQ(e.world_rank(), 3);
      }
      fast_fail_count = win->stats().obit_fast_fails;
    } else {
      // Enter only once the obituary is on the board, so the error comes
      // from the uniform entry check.
      const pmi::Record* posted = co_await ctx.kvs->get("ft:dead:3");
      (void)posted;
      try {
        co_await win->put(&v, 1, mpi::Datatype::kLong, 3, 0);
      } catch (const mpi::ProcFailedError& e) {
        proc_failed[ctx.rank] = true;
        fast_failed[ctx.rank] = true;
        EXPECT_EQ(e.world_rank(), 3);
      }
    }
  });
  sim.run_until(kDeadline);
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(r == 0 ? proc_failed[0] : proc_failed[r])
        << "survivor " << r << " saw no error";
    EXPECT_TRUE(fast_failed[r]) << "survivor " << r << " did not fast-fail";
  }
  EXPECT_GE(fast_fail_count, 1u);
}

TEST(RmaFault, RetryBudgetSnapshotCountsAbandonedOps) {
  // Rank 1 dies with no failure detector armed: rank 0's flush burns the
  // stack's retry budget and gives up with ChannelError.  The snapshot
  // must count the two puts the give-up abandons -- it is taken before
  // their journal entries are dropped.
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.recovery_max_attempts = 3;
  FaultPlan plan;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 2};
  bool gave_up = false;
  rdmach::RecoverySnapshot snap;
  std::vector<std::unique_ptr<mpi::Runtime>> rts(2);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[static_cast<std::size_t>(ctx.rank)] =
        std::make_unique<mpi::Runtime>(ctx, cfg);
    mpi::Runtime& rt = *rts[static_cast<std::size_t>(ctx.rank)];
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(2, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 2 * 8);
    co_await win->fence();
    if (ctx.rank == 1) {
      plan.schedule.rank_down(FaultPlan::scope_of(1));
      co_return;  // the corpse: never progresses again
    }
    win->lock_all();
    const std::int64_t v[2] = {7, 8};
    try {
      co_await win->put(&v[0], 1, mpi::Datatype::kLong, 1, 0);
      co_await win->put(&v[1], 1, mpi::Datatype::kLong, 1, 8);
      co_await win->flush(1);
    } catch (const rdmach::ChannelError& e) {
      gave_up = true;
      EXPECT_TRUE(e.has_snapshot());
      snap = e.snapshot();
    }
  });
  sim.run_until(kDeadline);
  ASSERT_TRUE(gave_up) << "the flush toward the corpse never gave up";
  EXPECT_EQ(snap.stage, "window:retry-budget");
  EXPECT_EQ(snap.attempts, 4);
  EXPECT_EQ(snap.journal_outstanding, 2u);
}

// ---------------------------------------------------------------------------
// The window watchdog
// ---------------------------------------------------------------------------

TEST(RmaWatchdog, EpochsLeaveOneQueuedWakeupPerWindow) {
  // Every flush and fence that waits arms a fresh 50 ms watchdog deadline.
  // The window keeps one wakeup queued for its latest deadline rather than
  // one per deadline, so after many epochs, with every rank done, the
  // event queue holds at most one leftover wakeup per window.
  constexpr int kP = 4;
  constexpr int kEpochs = 20;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, kP};
  int finished = 0;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, {});
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    const int me = world.rank();
    const int right = (me + 1) % kP;
    std::vector<std::int64_t> mem(kEpochs, -1);
    auto win = co_await mpi::Window::create(world, mem.data(), kEpochs * 8);
    co_await win->fence();
    for (int e = 0; e < kEpochs; ++e) {
      const std::int64_t v = e;
      win->lock_all();
      co_await win->put(&v, 1, mpi::Datatype::kLong, right,
                        static_cast<std::size_t>(e) * 8);
      co_await win->flush(right);
      co_await win->unlock_all();
      co_await win->fence();
    }
    EXPECT_EQ(mem[kEpochs - 1], kEpochs - 1);
    ++finished;
    co_await rt.finalize();
  });
  // Well past the last epoch, well before its deadlines.
  sim.run_until(rdmach::kRecoveryEpochDeadline / 5);
  ASSERT_EQ(finished, kP);
  EXPECT_LE(sim.pending_events(), static_cast<std::size_t>(kP));
  sim.run_until(kDeadline);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(RmaWatchdog, FlushGivesUpAtTheDeadline) {
  // A degrade window holds one put's completion past the watchdog budget:
  // the flush must give up with kDead exactly one budget after it started
  // waiting, not when the late completion finally lands.
  FaultPlan plan;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 2};
  bool gave_up = false;
  sim::Tick flush_at = -1;
  sim::Tick raised_at = -1;
  std::string stage;
  std::int64_t landed = 0;
  std::vector<std::unique_ptr<mpi::Runtime>> rts(2);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[static_cast<std::size_t>(ctx.rank)] =
        std::make_unique<mpi::Runtime>(ctx, mpi::RuntimeConfig{});
    mpi::Runtime& rt = *rts[static_cast<std::size_t>(ctx.rank)];
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(1, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 8);
    co_await win->fence();
    // Both windows, and the target memory, outlive the held put.
    const sim::Tick linger = 2 * rdmach::kRecoveryEpochDeadline;
    if (ctx.rank != 0) {
      co_await ctx.sim().delay(linger);
      landed = mem[0];
      co_return;
    }
    // The channel is quiescent after the fence: the put is the next WQE
    // node 0 processes.
    const std::string scope = FaultPlan::scope_of(0);
    sim::FaultSchedule::DegradeSpec late;
    late.latency_add = rdmach::kRecoveryEpochDeadline + sim::usec(1000);
    const std::uint64_t next = plan.schedule.observed(scope);
    plan.schedule.degrade(scope, next, next + 1, late);
    win->lock_all();
    const std::int64_t v = 7;
    co_await win->put(&v, 1, mpi::Datatype::kLong, 1, 0);
    flush_at = ctx.sim().now();
    try {
      co_await win->flush(1);
    } catch (const rdmach::ChannelError& e) {
      gave_up = e.kind() == rdmach::ChannelError::kDead;
      raised_at = ctx.sim().now();
      stage = e.snapshot().stage;
    }
    co_await ctx.sim().delay(linger);
  });
  sim.run_until(kDeadline);
  ASSERT_TRUE(gave_up) << "the flush never gave up on the held completion";
  EXPECT_EQ(stage, "window:watchdog:flush");
  EXPECT_EQ(raised_at - flush_at, rdmach::kRecoveryEpochDeadline);
  // Pinned: how the wakeups are queued must not move the give-up tick.
  EXPECT_EQ(raised_at, sim::Tick{50'101'139'974});
  EXPECT_EQ(landed, 7) << "the held put never landed";
}

TEST(RmaTeardown, HeldPutToADestroyedWindowFailsAtTheOrigin) {
  // A degrade window holds one put on the wire while the target destroys
  // its window and frees the memory behind it.  The put must not land in
  // the freed memory: ~Window invalidates the window's regions, the write
  // is NAKed at delivery, and the origin's flush gives up cleanly.
  FaultPlan plan;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 2};
  constexpr sim::Tick kHold = sim::usec(1000);
  bool freed = false;
  bool gave_up = false;
  std::string stage;
  std::vector<std::unique_ptr<mpi::Runtime>> rts(2);
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    rts[static_cast<std::size_t>(ctx.rank)] =
        std::make_unique<mpi::Runtime>(ctx, mpi::RuntimeConfig{});
    mpi::Runtime& rt = *rts[static_cast<std::size_t>(ctx.rank)];
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    auto mem = std::make_unique<std::int64_t[]>(4);
    auto win = co_await mpi::Window::create(world, mem.get(), 4 * 8);
    co_await win->fence();
    if (ctx.rank != 0) {
      // Tear down while the put is held, well before it is delivered.
      co_await ctx.sim().delay(kHold / 4);
      win.reset();
      mem.reset();
      freed = true;
      co_return;
    }
    // The channel is quiescent after the fence: the put is the next WQE
    // node 0 processes.
    const std::string scope = FaultPlan::scope_of(0);
    sim::FaultSchedule::DegradeSpec late;
    late.latency_add = kHold;
    const std::uint64_t next = plan.schedule.observed(scope);
    plan.schedule.degrade(scope, next, next + 1, late);
    win->lock_all();
    const std::int64_t v = 7;
    co_await win->put(&v, 1, mpi::Datatype::kLong, 1, 0);
    try {
      co_await win->flush(1);
    } catch (const rdmach::ChannelError& e) {
      gave_up = e.kind() == rdmach::ChannelError::kDead;
      stage = e.snapshot().stage;
    }
  });
  sim.run_until(kDeadline);
  ASSERT_TRUE(freed);
  ASSERT_TRUE(gave_up) << "the flush reported a put into a freed window";
  EXPECT_EQ(stage, "window:retry-budget");
}

// ---------------------------------------------------------------------------
// Window::Stats accounting
// ---------------------------------------------------------------------------

TEST(RmaStats, WindowStatsCountEachOpClass) {
  // One-sided op counts live in Window::Stats only: every put/get/atomic
  // and every flush bumps exactly one counter, on the multi-method stack
  // as on any other.
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  pmi::Job job{fabric, 2, /*ranks_per_node=*/2};
  mpi::RuntimeConfig cfg;
  cfg.stack.channel.design = rdmach::Design::kMultiMethod;
  bool checked = false;
  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    mpi::Communicator& world = rt.world();
    std::vector<std::int64_t> mem(4, 0);
    auto win = co_await mpi::Window::create(world, mem.data(), 4 * 8);
    co_await win->fence();
    win->lock_all();
    if (world.rank() == 0) {
      const std::int64_t v = 1;
      co_await win->put(&v, 1, mpi::Datatype::kLong, 1, 0);
      co_await win->flush(1);
      std::int64_t got = 0;
      co_await win->get(&got, 1, mpi::Datatype::kLong, 1, 0);
      co_await win->flush(1);
      (void)co_await win->fetch_add(1, 8, 1);

      const mpi::Window::Stats& st = win->stats();
      EXPECT_EQ(st.puts, 1u);
      EXPECT_EQ(st.gets, 1u);
      EXPECT_EQ(st.atomics, 1u);
      EXPECT_EQ(st.flushes, 2u);
      checked = true;
    }
    co_await win->unlock_all();
    co_await win->fence();
    co_await rt.finalize();
  });
  sim.run_until(kDeadline);
  EXPECT_TRUE(checked);
}

}  // namespace
