// Discrete-event simulation kernel.
//
// The Simulator owns a virtual clock and a time-ordered event queue whose
// entries are coroutine handles to resume or callbacks to run.  It is
// strictly single-threaded: concurrency between simulated processes is
// interleaving at co_await points, which makes every run bit-for-bit
// deterministic (events at equal timestamps are processed in scheduling
// order).
//
// Processes come in two flavours:
//   * spawn(task, name)        -- a root process that is expected to finish;
//                                 run() reports a deadlock if the event queue
//                                 drains while any such process is blocked.
//   * spawn_daemon(task, name) -- a service loop (progress engine, HCA
//                                 engine, ...) that may legitimately remain
//                                 blocked forever; ignored by the deadlock
//                                 check and discarded when the run ends.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/pool.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace sim {

/// Thrown by run() when a root process exits via an exception.
class ProcessError : public std::runtime_error {
 public:
  ProcessError(std::string process, std::string what)
      : std::runtime_error("process '" + process + "' failed: " + what),
        process_(std::move(process)) {}
  const std::string& process() const noexcept { return process_; }

 private:
  std::string process_;
};

/// Thrown by run() when the event queue drains while root processes are
/// still blocked (a lost wakeup / protocol deadlock in the simulated code).
class DeadlockError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  Tick now() const noexcept { return now_; }

  /// Schedules `h` to resume at absolute time `at` (clamped to now()).
  /// Events with equal time fire in scheduling order.
  void schedule(Tick at, std::coroutine_handle<> h);

  /// Schedules callable `fn` to run at absolute time `at` (clamped to
  /// now()), ordered with schedule() events by (time, scheduling order).
  /// Used for fire-and-forget completion events that need no coroutine
  /// frame (data delivery, CQE generation).  The callable is moved into a
  /// detail::FramePool cell, so once the pool is warm a call_at allocates
  /// nothing; the cell is released right after the callable runs (or
  /// throws), or by ~Simulator if it is still queued then.
  template <class F>
  void call_at(Tick at, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    void* cell = detail::FramePool::allocate(sizeof(Fn));
    try {
      ::new (cell) Fn(std::forward<F>(fn));
    } catch (...) {
      detail::FramePool::release(cell, sizeof(Fn));
      throw;
    }
    try {
      push(Event{at, 0, cell, &run_callable<Fn>});
    } catch (...) {
      run_callable<Fn>(cell, /*invoke=*/false);
      throw;
    }
  }

  /// Awaitable: resumes the caller `d` ticks from now.  delay(0) still
  /// suspends, acting as a deterministic yield behind already-queued events.
  auto delay(Tick d) {
    struct Awaiter {
      Simulator& sim;
      Tick at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        sim.schedule(at, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, now_ + (d > 0 ? d : 0)};
  }

  /// Awaitable: resumes the caller at absolute time `t` (>= now).
  auto delay_until(Tick t) { return delay(t > now_ ? t - now_ : 0); }

  /// Adopts `proc` as a root process; it starts at the current time, behind
  /// events already queued.
  void spawn(Task<void> proc, std::string name = "process");

  /// Adopts `proc` as a daemon (see file comment).
  void spawn_daemon(Task<void> proc, std::string name = "daemon");

  /// Runs until the event queue is empty.  Throws ProcessError if a root
  /// process failed, DeadlockError if any root process is still blocked
  /// when the queue drains.
  void run();

  /// Runs events with timestamp <= t, then stops (clock advances to t).
  /// Does not perform the deadlock check.  Returns the final clock.
  Tick run_until(Tick t);

  std::size_t events_processed() const noexcept { return events_processed_; }
  /// Events queued and not yet dispatched (resumptions plus callbacks).
  std::size_t pending_events() const noexcept { return queue_.size(); }
  std::size_t live_root_processes() const noexcept;

  /// Shared staging-buffer pool for the DES hot path (HCA engines).
  BufferPool& buffer_pool() noexcept { return pool_; }

  /// Hot-path micro-counters for the perf-smoke guards: dispatched events
  /// plus buffer-pool hit/miss totals (a pooling regression shows up as
  /// misses growing with the op count instead of plateauing).
  struct Stats {
    std::uint64_t events_dispatched = 0;
    std::uint64_t pool_hits = 0;
    std::uint64_t pool_misses = 0;
  };
  Stats stats() const noexcept {
    return Stats{events_processed_, pool_.hits(), pool_.misses()};
  }

 private:
  struct ProcessState {
    Simulator* sim = nullptr;
    std::string name;
    bool finished = false;
    bool daemon = false;
    std::exception_ptr error{};
    std::coroutine_handle<> root{};
  };

  struct RootTask;
  static RootTask root_runner(Task<void> inner);
  void adopt(Task<void> proc, std::string name, bool daemon);
  void drain(Tick limit, bool bounded);

  /// One queued event: a coroutine to resume (`op` null, `obj` its frame
  /// address) or a callable in a pooled cell (`obj`) that `op` runs and
  /// then destroys, or only destroys when `invoke` is false.  Trivially
  /// copyable, so heap sifts are plain 32-byte copies.
  struct Event {
    Tick at;
    std::uint64_t seq;
    void* obj;
    void (*op)(void* obj, bool invoke);
    bool operator>(const Event& o) const noexcept {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  static_assert(sizeof(Event) == 32 && std::is_trivially_copyable_v<Event>);

  /// Clamps `ev.at` to now(), stamps the next sequence number and queues it.
  void push(Event ev) {
    if (ev.at < now_) ev.at = now_;
    ev.seq = next_seq_++;
    queue_.push_back(ev);
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  }

  template <class Fn>
  static void run_callable(void* cell, bool invoke) {
    Fn* fn = static_cast<Fn*>(cell);
    struct Release {
      Fn* fn;
      ~Release() {
        fn->~Fn();
        detail::FramePool::release(fn, sizeof(Fn));
      }
    } release{fn};
    if (invoke) (*fn)();
  }

  // Declared before queue_: queued delivery events may hold pooled buffers,
  // whose deleters must still find a live free-list state at teardown (the
  // state itself is shared_ptr-owned, so even this ordering is belt and
  // braces).
  BufferPool pool_;
  // Binary min-heap on (at, seq) kept with std::push_heap/pop_heap.
  std::vector<Event> queue_;
  std::vector<std::unique_ptr<ProcessState>> processes_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_processed_ = 0;
  ProcessState* failed_ = nullptr;
};

}  // namespace sim
