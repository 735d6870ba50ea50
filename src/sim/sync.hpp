// Synchronization primitives for simulated processes.
//
// All primitives are edge- or level-triggered wakeup devices built on the
// Simulator's event queue.  None of them is thread-safe -- the simulation is
// single-threaded by construction -- and all wakeups are deterministic:
// waiters resume in wait order, at the virtual instant of the notify.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace sim {

/// Edge-triggered broadcast event: fire() wakes every process currently
/// blocked in wait().  A wait() that begins after a fire() blocks until the
/// next fire() -- i.e. notifications are not latched.  Use Gate for latched
/// semantics, or the wait_until() helper to close check-then-wait races.
class Trigger {
 public:
  explicit Trigger(Simulator& sim) : sim_(&sim) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  auto wait() {
    struct Awaiter {
      Trigger& t;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        t.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Wakes all current waiters at the current virtual time.
  void fire() {
    ++fires_;
    for (auto h : waiters_) sim_->schedule(sim_->now(), h);
    waiters_.clear();
  }

  std::size_t waiter_count() const noexcept { return waiters_.size(); }
  std::uint64_t fire_count() const noexcept { return fires_; }
  Simulator& simulator() const noexcept { return *sim_; }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::uint64_t fires_ = 0;
};

/// Blocks until pred() is true, re-testing after every fire of `t`.
/// This is the standard condition-variable-with-predicate idiom; it is
/// immune to the lost-wakeup race because the predicate is tested before
/// the first wait.
template <class Pred>
Task<void> wait_until(Trigger& t, Pred pred) {
  while (!pred()) {
    co_await t.wait();
  }
}

/// Level-triggered latch: once open()ed, all current and future waits
/// complete immediately.
class Gate {
 public:
  explicit Gate(Simulator& sim) : sim_(&sim) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  auto wait() {
    struct Awaiter {
      Gate& g;
      bool await_ready() const noexcept { return g.open_; }
      void await_suspend(std::coroutine_handle<> h) {
        g.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void open() {
    if (open_) return;
    open_ = true;
    for (auto h : waiters_) sim_->schedule(sim_->now(), h);
    waiters_.clear();
  }

  bool is_open() const noexcept { return open_; }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
  bool open_ = false;
};

/// Counting semaphore (FIFO grant order).
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t initial)
      : trigger_(sim), count_(initial) {}

  Task<void> acquire(std::int64_t n = 1) {
    co_await wait_until(trigger_, [this, n] { return count_ >= n; });
    count_ -= n;
    // Leftover permits may satisfy another waiter with a smaller demand.
    if (count_ > 0) trigger_.fire();
  }

  void release(std::int64_t n = 1) {
    count_ += n;
    trigger_.fire();
  }

  std::int64_t available() const noexcept { return count_; }

 private:
  Trigger trigger_;
  std::int64_t count_;
};

/// Unbounded FIFO queue that allocates nothing while it has never held an
/// item: a vector plus a head index.  Popped slots form a dead prefix that
/// is dropped when the queue drains, or compacted away once it is at least
/// half the vector, so a queue held at depth k keeps at most about 2k slots
/// and push/pop stay amortised O(1).  (libstdc++'s std::deque allocates a
/// block and a map on construction; an idle QP holds four queues.)
template <class T>
class Fifo {
 public:
  bool empty() const noexcept { return head_ == items_.size(); }
  std::size_t size() const noexcept { return items_.size() - head_; }

  void push_back(T item) { items_.push_back(std::move(item)); }

  /// Removes and returns the front item (the queue must not be empty).
  T pop_front() {
    T item = std::move(items_[head_]);
    if (++head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return item;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;  // index of the front item; items_[0, head_) are dead
};

/// Unbounded FIFO mailbox of T: the workhorse for work queues and packet
/// queues.  pop() blocks until an item is available.
template <class T>
class Mailbox {
 public:
  explicit Mailbox(Simulator& sim) : trigger_(sim) {}

  void push(T item) {
    items_.push_back(std::move(item));
    trigger_.fire();
  }

  Task<T> pop() {
    co_await wait_until(trigger_, [this] { return !items_.empty(); });
    T item = items_.pop_front();
    // Another waiter may still have items to consume.
    if (!items_.empty()) trigger_.fire();
    co_return item;
  }

  std::optional<T> try_pop() {
    if (items_.empty()) return std::nullopt;
    return items_.pop_front();
  }

  bool empty() const noexcept { return items_.empty(); }
  std::size_t size() const noexcept { return items_.size(); }

 private:
  Trigger trigger_;
  Fifo<T> items_;
};

}  // namespace sim
