// Unit tests for the discrete-event simulation kernel: task semantics and
// coroutine-frame recycling, event ordering, process lifecycle,
// synchronization primitives, and the bandwidth-resource contention model.
#include <gtest/gtest.h>

#include <array>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

#include "sim/campaign.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

// Every global allocation of this test binary is counted, so the frame-pool
// tests can see which coroutine calls reach ::operator new.
namespace {
std::size_t g_global_news = 0;
std::size_t g_last_new_size = 0;
}  // namespace

// The replacements pair malloc with free; gcc cannot see that they replace
// the library's operator new/delete and would warn at every inlined delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++g_global_news;
  g_last_new_size = n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(usec(1.0), kMicrosecond);
  EXPECT_EQ(usec(5.9), 5'900'000);
  EXPECT_EQ(nsec(2.5), 2'500);
  EXPECT_DOUBLE_EQ(to_usec(kMillisecond), 1000.0);
  EXPECT_DOUBLE_EQ(to_sec(kSecond), 1.0);
}

TEST(Time, TransferTimeMatchesRate) {
  // 870 MB/s: 87 bytes take exactly 100 ns.
  EXPECT_EQ(transfer_time(87, 870.0), 100 * kNanosecond);
  // One byte at 1 GB/s is 1 ns.
  EXPECT_EQ(transfer_time(1, 1000.0), kNanosecond);
  EXPECT_EQ(transfer_time(0, 870.0), 0);
  // Never free: rounding is upward.
  EXPECT_GT(transfer_time(1, 1e9), 0);
}

TEST(Time, BandwidthInverse) {
  const Tick t = transfer_time(1'000'000, 857.0);
  EXPECT_NEAR(bandwidth_mbps(1'000'000, t), 857.0, 0.1);
}

TEST(Simulator, DelayAdvancesClock) {
  Simulator sim;
  Tick seen = -1;
  sim.spawn(
      [](Simulator& s, Tick& out) -> Task<void> {
        co_await s.delay(usec(3.5));
        out = s.now();
      }(sim, seen),
      "delayer");
  sim.run();
  EXPECT_EQ(seen, usec(3.5));
}

TEST(Simulator, EqualTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.spawn(
        [](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
          co_await s.delay(usec(1.0));
          ord.push_back(id);
        }(sim, order, i),
        "p" + std::to_string(i));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NestedTaskCallsPropagateValues) {
  Simulator sim;
  int result = 0;
  struct Helpers {
    static Task<int> leaf(Simulator& s) {
      co_await s.delay(usec(1.0));
      co_return 21;
    }
    static Task<int> mid(Simulator& s) {
      int v = co_await leaf(s);
      co_return v * 2;
    }
  };
  sim.spawn(
      [](Simulator& s, int& out) -> Task<void> {
        out = co_await Helpers::mid(s);
      }(sim, result),
      "nest");
  sim.run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(sim.now(), usec(1.0));
}

TEST(Simulator, ExceptionInProcessSurfacesAsProcessError) {
  Simulator sim;
  sim.spawn(
      [](Simulator& s) -> Task<void> {
        co_await s.delay(usec(1.0));
        throw std::runtime_error("boom");
      }(sim),
      "failing-process");
  try {
    sim.run();
    FAIL() << "expected ProcessError";
  } catch (const ProcessError& e) {
    EXPECT_EQ(e.process(), "failing-process");
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(Simulator, ExceptionPropagatesThroughNestedTasks) {
  Simulator sim;
  bool caught = false;
  struct Helpers {
    static Task<void> thrower(Simulator& s) {
      co_await s.delay(usec(1.0));
      throw std::logic_error("inner");
    }
  };
  sim.spawn(
      [](Simulator& s, bool& c) -> Task<void> {
        try {
          co_await Helpers::thrower(s);
        } catch (const std::logic_error&) {
          c = true;
        }
      }(sim, caught),
      "catcher");
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, BlockedRootProcessIsDeadlock) {
  Simulator sim;
  Trigger never(sim);
  sim.spawn(
      [](Trigger& t) -> Task<void> { co_await t.wait(); }(never),
      "stuck-one");
  EXPECT_THROW(sim.run(), DeadlockError);
}

TEST(Simulator, DaemonMayBlockForever) {
  Simulator sim;
  Trigger never(sim);
  sim.spawn_daemon(
      [](Trigger& t) -> Task<void> {
        for (;;) co_await t.wait();
      }(never),
      "service");
  sim.spawn(
      [](Simulator& s) -> Task<void> { co_await s.delay(usec(1.0)); }(sim),
      "worker");
  EXPECT_NO_THROW(sim.run());
  EXPECT_EQ(sim.live_root_processes(), 0u);
}

TEST(Simulator, RunUntilStopsAtBound) {
  Simulator sim;
  int steps = 0;
  sim.spawn_daemon(
      [](Simulator& s, int& n) -> Task<void> {
        for (;;) {
          co_await s.delay(usec(1.0));
          ++n;
        }
      }(sim, steps),
      "ticker");
  sim.run_until(usec(10.0));
  EXPECT_EQ(steps, 10);
  EXPECT_EQ(sim.now(), usec(10.0));
}

TEST(Simulator, DestructionWithPendingProcessesDoesNotLeak) {
  // ASAN (if enabled) would flag leaked coroutine frames; structurally we
  // just check this doesn't crash.
  auto sim = std::make_unique<Simulator>();
  Trigger* never = new Trigger(*sim);
  sim->spawn(
      [](Trigger& t) -> Task<void> { co_await t.wait(); }(*never),
      "pending");
  sim->run_until(usec(1.0));
  sim.reset();
  delete never;
}

TEST(Simulator, CallAtAllocatesNothingOnceWarm) {
  Simulator sim;
  std::uint64_t sum = 0;
  auto post = [&sim, &sum](std::uint64_t base) {
    const std::array<std::uint64_t, 4> payload{base, base + 1, base + 2,
                                               base + 3};
    auto cb = [payload, total = &sum] {
      for (std::uint64_t v : payload) *total += v;
    };
    static_assert(sizeof(cb) == 40);
    sim.call_at(sim.now() + usec(1.0), cb);
  };
  for (std::uint64_t i = 0; i < 100; ++i) post(i);  // warm-up
  sim.run();
  const std::size_t before = g_global_news;
  for (std::uint64_t i = 0; i < 100; ++i) post(i);
  sim.run();
  EXPECT_EQ(g_global_news - before, 0u);
  EXPECT_EQ(sum, 2 * (4 * (99 * 100 / 2) + 100 * 6));
}

TEST(Simulator, QueuedCallbackIsDestroyedOnceAtTeardown) {
  auto token = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.call_at(usec(1.0), [token] {});
    sim.call_at(usec(2.0), [token] {});
    EXPECT_EQ(token.use_count(), 3);
    sim.run_until(usec(1.0));
    EXPECT_EQ(token.use_count(), 2);  // ran, then destroyed
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(token.use_count(), 1);  // the queued one, exactly once
}

TEST(Simulator, ScheduleAndCallAtShareOneTickOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.call_at(usec(1.0), [&order] { order.push_back(0); });
  for (int i = 1; i <= 4; ++i) {
    sim.spawn(
        [](Simulator& s, std::vector<int>& ord, int id) -> Task<void> {
          if (id % 2 == 0) {
            s.call_at(usec(1.0), [&ord, id] { ord.push_back(id); });
          } else {
            co_await s.delay(usec(1.0));
            ord.push_back(id);
          }
        }(sim, order, i),
        "p" + std::to_string(i));
  }
  sim.call_at(usec(1.0), [&order] { order.push_back(5); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 5, 1, 2, 3, 4}));
}

TEST(Simulator, ThrowingCallbackReleasesItsCapture) {
  auto token = std::make_shared<int>(0);
  Simulator sim;
  sim.call_at(usec(1.0), [token] { throw std::runtime_error("boom"); });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_THROW(sim.run(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

Task<int> plus_one(int x) { co_return x + 1; }

/// Stores the address of the awaiting coroutine's frame, without suspending.
struct FrameAddress {
  void*& out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

Task<void> frame_of(void*& out) { co_await FrameAddress{out}; }

/// A coroutine whose frame is larger than the largest pooled size class.
Task<int> oversize(std::size_t i) {
  std::array<std::byte, 2 * detail::FramePool::kClasses *
                            detail::FramePool::kGranule>
      payload{};
  payload[i % payload.size()] = std::byte{1};
  void* frame = nullptr;
  co_await FrameAddress{frame};
  co_return static_cast<int>(payload[i % payload.size()]);
}

TEST(FramePool, BackToBackCallsReuseTheFrame) {
  Simulator sim;
  void* first = nullptr;
  void* second = nullptr;
  std::size_t news = ~std::size_t{0};
  int sum = 0;
  sim.spawn(
      [](void*& a, void*& b, std::size_t& n, int& s) -> Task<void> {
        co_await frame_of(a);
        co_await frame_of(b);
        s += co_await plus_one(0);  // the first frame of its class
        const std::size_t before = g_global_news;
        for (int i = 1; i <= 100; ++i) s += co_await plus_one(i);
        n = g_global_news - before;
      }(first, second, news, sum),
      "calls");
  sim.run();
  EXPECT_NE(first, nullptr);
  EXPECT_EQ(first, second);
  EXPECT_EQ(news, 0u);  // 100 calls, no trip to ::operator new
  EXPECT_EQ(sum, 101 * 102 / 2);
}

TEST(FramePool, OversizeFrameFallsBackToOperatorNew) {
  Simulator sim;
  std::size_t news = 0;
  std::size_t size = 0;
  sim.spawn(
      [](std::size_t& n, std::size_t& bytes) -> Task<void> {
        (void)co_await oversize(0);
        const std::size_t before = g_global_news;
        for (std::size_t i = 0; i < 10; ++i) {
          const int v = co_await oversize(i);
          EXPECT_EQ(v, 1);
        }
        n = g_global_news - before;
        bytes = g_last_new_size;
      }(news, size),
      "oversize");
  sim.run();
  EXPECT_EQ(news, 10u);  // one ::operator new per call, nothing kept
  EXPECT_GT(size, detail::FramePool::kClasses * detail::FramePool::kGranule);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePool, ReleasedFrameIsPoisoned) {
  Simulator sim;
  bool live_poisoned = true;
  bool released_poisoned = false;
  sim.spawn(
      [](bool& live, bool& released) -> Task<void> {
        void* frame = nullptr;
        {
          Task<void> t = frame_of(frame);
          co_await t;
          live = __asan_address_is_poisoned(frame) != 0;
        }
        released = __asan_address_is_poisoned(frame) != 0;
      }(live_poisoned, released_poisoned),
      "poison");
  sim.run();
  EXPECT_FALSE(live_poisoned);
  EXPECT_TRUE(released_poisoned);
}
#endif

TEST(Trigger, FireWakesAllCurrentWaiters) {
  Simulator sim;
  Trigger t(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(
        [](Trigger& tr, int& w) -> Task<void> {
          co_await tr.wait();
          ++w;
        }(t, woken),
        "waiter");
  }
  sim.spawn(
      [](Simulator& s, Trigger& tr) -> Task<void> {
        co_await s.delay(usec(2.0));
        tr.fire();
      }(sim, t),
      "firer");
  sim.run();
  EXPECT_EQ(woken, 3);
}

TEST(Trigger, FireBeforeWaitIsNotLatched) {
  Simulator sim;
  Trigger t(sim);
  t.fire();  // nobody listening; must not latch
  bool woke = false;
  sim.spawn(
      [](Trigger& tr, bool& w) -> Task<void> {
        co_await tr.wait();
        w = true;
      }(t, woke),
      "late-waiter");
  EXPECT_THROW(sim.run(), DeadlockError);
  EXPECT_FALSE(woke);
}

TEST(Gate, LatchesOpenState) {
  Simulator sim;
  Gate g(sim);
  g.open();
  bool passed = false;
  sim.spawn(
      [](Gate& gate, bool& p) -> Task<void> {
        co_await gate.wait();
        p = true;
      }(g, passed),
      "pass");
  sim.run();
  EXPECT_TRUE(passed);
}

TEST(Gate, ReleasesWaitersOnOpen) {
  Simulator sim;
  Gate g(sim);
  Tick when = -1;
  sim.spawn(
      [](Simulator& s, Gate& gate, Tick& w) -> Task<void> {
        co_await gate.wait();
        w = s.now();
      }(sim, g, when),
      "waiter");
  sim.spawn(
      [](Simulator& s, Gate& gate) -> Task<void> {
        co_await s.delay(usec(7.0));
        gate.open();
      }(sim, g),
      "opener");
  sim.run();
  EXPECT_EQ(when, usec(7.0));
}

TEST(Semaphore, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int peak = 0, active = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn(
        [](Simulator& s, Semaphore& sm, int& act, int& pk) -> Task<void> {
          co_await sm.acquire();
          ++act;
          pk = act > pk ? act : pk;
          co_await s.delay(usec(1.0));
          --act;
          sm.release();
        }(sim, sem, active, peak),
        "user" + std::to_string(i));
  }
  sim.run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(Mailbox, FifoOrderAcrossBlockingPops) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  sim.spawn(
      [](Mailbox<int>& m, std::vector<int>& out) -> Task<void> {
        for (int i = 0; i < 4; ++i) out.push_back(co_await m.pop());
      }(mb, got),
      "consumer");
  sim.spawn(
      [](Simulator& s, Mailbox<int>& m) -> Task<void> {
        for (int i = 0; i < 4; ++i) {
          co_await s.delay(usec(1.0));
          m.push(i);
        }
      }(sim, mb),
      "producer");
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mailbox, TryPopNonBlocking) {
  Simulator sim;
  Mailbox<int> mb(sim);
  EXPECT_FALSE(mb.try_pop().has_value());
  mb.push(9);
  auto v = mb.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(Fifo, OrderSurvivesCompaction) {
  // Bursts of pushes and pops at varying depths compact the dead prefix
  // many times; move-only items come out in push order.
  Fifo<std::unique_ptr<int>> q;
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round % 7 + 1; ++i) {
      q.push_back(std::make_unique<int>(pushed++));
    }
    for (int i = 0; i < round % 5 + 1 && !q.empty(); ++i) {
      EXPECT_EQ(*q.pop_front(), popped++);
    }
    EXPECT_EQ(q.size(), static_cast<std::size_t>(pushed - popped));
  }
  while (!q.empty()) EXPECT_EQ(*q.pop_front(), popped++);
  EXPECT_EQ(popped, pushed);
}

TEST(Fifo, SteadyDepthKeepsBoundedStorage) {
  // A queue held at depth k that never drains reaches a fixed footprint:
  // after warm-up, ten thousand push/pop pairs allocate nothing.
  for (const int k : {1, 3, 16}) {
    Fifo<int> q;
    int next = 0;
    for (int i = 0; i < k; ++i) q.push_back(next++);
    for (int i = 0; i < 100; ++i) {
      q.push_back(next++);
      q.pop_front();
    }
    const std::size_t before = g_global_news;
    int expect = next - k;
    for (int i = 0; i < 10000; ++i) {
      q.push_back(next++);
      EXPECT_EQ(q.pop_front(), expect++);
    }
    EXPECT_EQ(g_global_news - before, 0u) << "depth " << k;
    EXPECT_EQ(q.size(), static_cast<std::size_t>(k));
  }
}

TEST(Fifo, EmptyQueuesAllocateNothing) {
  Simulator sim;
  const std::size_t before = g_global_news;
  {
    Fifo<std::string> q;
    Mailbox<std::string> mb(sim);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(mb.empty());
    EXPECT_FALSE(mb.try_pop().has_value());
  }
  EXPECT_EQ(g_global_news - before, 0u);
}

TEST(BandwidthResource, SingleStreamRunsAtFullRate) {
  Simulator sim;
  BandwidthResource link(sim, "link", 870.0);
  Tick done = -1;
  sim.spawn(
      [](Simulator& s, BandwidthResource& r, Tick& d) -> Task<void> {
        co_await r.transfer(870'000);  // 1 ms at 870 MB/s
        d = s.now();
      }(sim, link, done),
      "stream");
  sim.run();
  EXPECT_NEAR(to_usec(done), 1000.0, 1.0);
  EXPECT_EQ(link.total_bytes(), 870'000);
}

TEST(BandwidthResource, TwoStreamsShareRateFairly) {
  Simulator sim;
  BandwidthResource bus(sim, "bus", 1600.0);
  Tick d0 = -1, d1 = -1;
  auto stream = [](Simulator& s, BandwidthResource& r, Tick& d) -> Task<void> {
    co_await r.transfer(1'600'000);  // alone: 1 ms
    d = s.now();
  };
  sim.spawn(stream(sim, bus, d0), "s0");
  sim.spawn(stream(sim, bus, d1), "s1");
  sim.run();
  // Interleaved at chunk granularity: both finish near 2 ms.
  EXPECT_NEAR(to_usec(d0), 2000.0, 20.0);
  EXPECT_NEAR(to_usec(d1), 2000.0, 20.0);
}

TEST(BandwidthResource, LateArriverQueuesBehindBacklog) {
  Simulator sim;
  BandwidthResource link(sim, "link", 1000.0);  // 1 byte/ns
  Tick done = -1;
  sim.spawn(
      [](BandwidthResource& r) -> Task<void> {
        co_await r.transfer(4096);  // books [0, 4096 ns] in one chunk
      }(link),
      "first");
  sim.spawn(
      [](Simulator& s, BandwidthResource& r, Tick& d) -> Task<void> {
        co_await s.delay(nsec(100));
        co_await r.transfer(1000);
        d = s.now();
      }(sim, link, done),
      "second");
  sim.run();
  EXPECT_EQ(done, nsec(4096 + 1000));
}

TEST(BandwidthResource, UtilizationAccounting) {
  Simulator sim;
  BandwidthResource link(sim, "link", 1000.0);
  sim.spawn(
      [](Simulator& s, BandwidthResource& r) -> Task<void> {
        co_await r.transfer(1000);
        co_await s.delay(nsec(1000));  // idle tail
      }(sim, link),
      "half-busy");
  sim.run();
  EXPECT_NEAR(link.utilization(), 0.5, 0.01);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.below(17), 17u);
    const auto v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformMeanIsPlausible) {
  Rng r(99);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Trace, SinkCountsAndBytes) {
  TraceSink sink;
  Tracer tr(&sink);
  tr.record(0, "qp0", "rdma_write", 1024);
  tr.record(5, "qp0", "rdma_write", 2048);
  tr.record(9, "qp0", "memcpy", 512);
  EXPECT_EQ(sink.count("rdma_write"), 2u);
  EXPECT_EQ(sink.total_bytes("rdma_write"), 3072);
  EXPECT_EQ(sink.count("memcpy"), 1u);
  Tracer off;
  off.record(0, "x", "y");  // must be a safe no-op
  EXPECT_FALSE(off.enabled());
}

// Drains `n` operations from `scope`, returning the indices (relative to
// the first drained op) at which the schedule delivered a fault.
std::vector<std::uint64_t> drain(FaultSchedule& s, const std::string& scope,
                                 std::uint64_t n) {
  std::vector<std::uint64_t> hits;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (s.check(scope)) hits.push_back(i);
  }
  return hits;
}

TEST(FaultCampaign, AtPhaseArmsRelativeToObservedCount) {
  FaultCampaign c;
  c.at_phase("k.iter").kill(0, /*delta=*/2);
  // Five operations happen before the phase event: the armed index must be
  // relative to that moment, not to the start of the run.
  drain(c.schedule(), "node0", 5);
  c.on_phase("k.iter");
  EXPECT_EQ(c.armed(), 1u);
  const auto hits = drain(c.schedule(), "node0", 6);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 2u);  // ops 5,6 clean; op 7 = observed(5) + delta(2)
}

TEST(FaultCampaign, FromRepeatEveryTimesGateOccurrences) {
  FaultCampaign c;
  auto& rule = c.at_phase("p").from(2).repeat_every(3).times(2).corrupt(1);
  for (int i = 0; i < 12; ++i) c.on_phase("p");
  // Eligible occurrences are 2, 5, 8, 11; times(2) stops after two.
  EXPECT_EQ(rule.firings(), 2);
  EXPECT_EQ(c.armed(), 2u);
  c.on_phase("q");  // unrelated phase never matches
  EXPECT_EQ(rule.firings(), 2);
}

TEST(FaultCampaign, JitterIsBoundedAndSeedReproducible) {
  std::vector<std::uint64_t> hits[2];
  for (int run = 0; run < 2; ++run) {
    FaultCampaign c(/*seed=*/7);
    c.at_phase("p").jitter(4).kill(3);
    c.on_phase("p");
    hits[run] = drain(c.schedule(), "node3", 10);
    ASSERT_EQ(hits[run].size(), 1u);
    EXPECT_LE(hits[run][0], 4u);  // delta 0 + jitter in [0, 4]
  }
  EXPECT_EQ(hits[0], hits[1]);  // same seed, same arming
}

TEST(FaultCampaign, RailDownAndExhaustUseScopedCounters) {
  FaultCampaign c;
  c.at_phase("p").rail_down(1, 1).exhaust_cq(0, /*n=*/2, /*delta=*/1);
  drain(c.schedule(), FaultSchedule::rail_scope("node1", 1), 3);
  drain(c.schedule(), "node0.cq", 2);
  c.on_phase("p");
  EXPECT_EQ(c.armed(), 3u);  // 1 rail kill + 2 exhausts
  // Rail death is sticky from the occurrence point onward.
  const auto rail =
      drain(c.schedule(), FaultSchedule::rail_scope("node1", 1), 4);
  EXPECT_EQ(rail.size(), 4u);
  // CQ denial covers ops [observed(2) + 1, +2) of the .cq scope.
  const auto cq = drain(c.schedule(), "node0.cq", 5);
  EXPECT_EQ(cq, (std::vector<std::uint64_t>{1, 2}));
}

TEST(FaultSchedule, DegradeWindowHealsAndCounts) {
  FaultSchedule s;
  EXPECT_FALSE(s.any_degrade());
  FaultSchedule::DegradeSpec spec;
  spec.latency_mult = 10.0;
  s.degrade("node0", /*from=*/2, /*until=*/5, spec);
  EXPECT_TRUE(s.any_degrade());
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto d = s.degrade_at("node0", i);
    EXPECT_EQ(d.active(), i >= 2 && i < 5) << "op " << i;
  }
  EXPECT_EQ(s.degraded_ops(), 3u);  // only ops 2, 3, 4 were inside
  // A different scope never sees the window.
  EXPECT_FALSE(s.degrade_at("node1", 3).active());
}

TEST(FaultSchedule, OverlappingDegradeWindowsCompose) {
  FaultSchedule s;
  FaultSchedule::DegradeSpec a;
  a.latency_add = 100;
  a.bandwidth_mult = 0.5;
  FaultSchedule::DegradeSpec b;
  b.latency_add = 50;
  b.bandwidth_mult = 0.5;
  b.drop_prob = 0.5;
  s.degrade("n", 0, 10, a);
  s.degrade("n", 5, 15, b);
  const auto only_a = s.degrade_at("n", 2);
  EXPECT_EQ(only_a.latency_add, 100);
  EXPECT_DOUBLE_EQ(only_a.bandwidth_mult, 0.5);
  const auto both = s.degrade_at("n", 7);  // covered by a AND b: stacked
  EXPECT_EQ(both.latency_add, 150);
  EXPECT_DOUBLE_EQ(both.bandwidth_mult, 0.25);
  EXPECT_DOUBLE_EQ(both.drop_prob, 0.5);
  const auto only_b = s.degrade_at("n", 12);
  EXPECT_EQ(only_b.latency_add, 50);
  EXPECT_FALSE(s.degrade_at("n", 15).active());  // both healed
}

TEST(FaultSchedule, FlakyDutyCycleAndForeverWindow) {
  FaultSchedule s;
  FaultSchedule::DegradeSpec spec;
  spec.latency_add = 1;
  // duty 2 of every 4, window [4, 12): degraded ops are 4,5, 8,9.
  s.flaky("n", spec, /*period=*/4, /*duty=*/2, /*from=*/4, /*until=*/12);
  std::vector<std::uint64_t> hit;
  for (std::uint64_t i = 0; i < 16; ++i) {
    if (s.degrade_at("n", i).active()) hit.push_back(i);
  }
  EXPECT_EQ(hit, (std::vector<std::uint64_t>{4, 5, 8, 9}));
  // Default window is forever (a permanently flapping link).
  FaultSchedule s2;
  s2.flaky("m", spec, 2, 1);
  EXPECT_TRUE(s2.degrade_at("m", 1'000'000).active());
  EXPECT_FALSE(s2.degrade_at("m", 1'000'001).active());
}

TEST(FaultSchedule, DegradeNeverConsumesCheckVictims) {
  FaultSchedule s;
  FaultSchedule::DegradeSpec spec;
  spec.bandwidth_mult = 0.1;
  s.degrade("n", 0, 10, spec);
  s.kill("n", 3);
  // check() sees only the kill; the degrade rides beside it on the same
  // op index without shifting the victim slot.
  const auto hits = drain(s, "n", 10);
  EXPECT_EQ(hits, (std::vector<std::uint64_t>{3}));
  EXPECT_TRUE(s.degrade_at("n", 3).active());
  EXPECT_EQ(s.killed(), 1u);  // degrades are not "delivered faults"
}

TEST(FaultCampaign, DegradeBuildersArmRelativeToObserved) {
  FaultCampaign c;
  FaultSchedule::DegradeSpec spec;
  spec.latency_mult = 4.0;
  c.at_phase("p").degrade(0, spec, /*n_ops=*/3, /*delta=*/1);
  c.at_phase("p").degrade_rail(1, 1, spec, /*n_ops=*/2);
  drain(c.schedule(), "node0", 4);  // four ops pass before the phase
  c.on_phase("p");
  EXPECT_EQ(c.armed(), 2u);
  // Node scope: window is [observed(4) + delta(1), +3) = [5, 8).
  EXPECT_FALSE(c.schedule().degrade_at("node0", 4).active());
  EXPECT_TRUE(c.schedule().degrade_at("node0", 5).active());
  EXPECT_TRUE(c.schedule().degrade_at("node0", 7).active());
  EXPECT_FALSE(c.schedule().degrade_at("node0", 8).active());
  // Rail scope keys against its own counter (nothing observed: [0, 2)) and
  // stays out of the node scope -- sub-scope windows are independent, the
  // WQE site composes them.
  const std::string rs = FaultSchedule::rail_scope("node1", 1);
  EXPECT_TRUE(c.schedule().degrade_at(rs, 0).active());
  EXPECT_FALSE(c.schedule().degrade_at(rs, 2).active());
  EXPECT_FALSE(c.schedule().degrade_at("node1", 0).active());
}

TEST(FaultCampaign, FlakyRailBuilderSetsDutyCycle) {
  FaultCampaign c;
  FaultSchedule::DegradeSpec spec;
  spec.drop_prob = 0.5;
  c.at_phase("p").flaky_rail(2, 0, spec, /*period=*/3, /*duty=*/1,
                             /*n_ops=*/6);
  c.on_phase("p");
  const std::string rs = FaultSchedule::rail_scope("node2", 0);
  std::vector<std::uint64_t> hit;
  for (std::uint64_t i = 0; i < 9; ++i) {
    if (c.schedule().degrade_at(rs, i).active()) hit.push_back(i);
  }
  EXPECT_EQ(hit, (std::vector<std::uint64_t>{0, 3}));  // healed at 6
}

}  // namespace
}  // namespace sim
