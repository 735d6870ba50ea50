// Lazy coroutine task type for simulator processes.
//
// Task<T> is the single coroutine vocabulary of the whole code base: every
// simulated activity that consumes virtual time -- an MPI rank, a channel
// progress loop, an HCA engine, a modelled memcpy -- is a Task.  Tasks are
// lazy: creating one does nothing; `co_await`-ing it starts it and resumes
// the awaiter when it finishes (symmetric transfer, so arbitrarily deep call
// chains use O(1) native stack).  Root processes are adopted by the
// Simulator via Simulator::spawn, which drives them as detached processes.
//
// Exceptions propagate through co_await exactly like ordinary calls; an
// exception escaping a detached root process aborts Simulator::run with a
// ProcessError.
//
// Every call of a Task coroutine allocates a frame.  Frames are recycled
// through FramePool instead of going back to malloc (see below).
#pragma once

#include <sanitizer/asan_interface.h>

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>
#include <vector>

namespace sim {

template <class T>
class Task;

namespace detail {

/// Final awaiter: hands control back to whoever co_awaited this task
/// (symmetric transfer), or to no one for a task that was never awaited.
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <class Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    std::coroutine_handle<> cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

/// Free lists of coroutine frames, one per 64-byte size class.  The
/// simulation runs the same few coroutines over and over, so a released
/// frame is kept for the next call of the same size class rather than
/// freed.  Frames above the largest class come from ::operator new.  Not
/// thread-safe: the simulation is single-threaded by construction.  Under
/// ASan a pooled frame stays poisoned until it is handed out again, so a
/// frame used after its coroutine ended is still reported.
class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 64;  // pooled frames up to 4 KiB

  static void* allocate(std::size_t n) {
    const std::size_t c = (n - 1) / kGranule;
    if (c >= kClasses) return ::operator new(n);
    std::vector<void*>& free = free_list(c);
    if (free.empty()) return ::operator new((c + 1) * kGranule);
    void* p = free.back();
    free.pop_back();
    ASAN_UNPOISON_MEMORY_REGION(p, (c + 1) * kGranule);
    return p;
  }

  static void release(void* p, std::size_t n) noexcept {
    const std::size_t c = (n - 1) / kGranule;
    if (c >= kClasses) {
      ::operator delete(p, n);
      return;
    }
    ASAN_POISON_MEMORY_REGION(p, (c + 1) * kGranule);
    free_list(c).push_back(p);
  }

 private:
  // The links live outside the frames, which stay poisoned whole, and the
  // lists are never destroyed: a frame released during static destruction
  // still finds its list, and the leak checker, which does not look inside
  // poisoned memory, still reaches every pooled frame.
  static std::vector<void*>& free_list(std::size_t c) {
    static auto* lists = new std::vector<void*>[kClasses];
    return lists[c];
  }
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr error{};

  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::release(p, n);
  }

  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() { error = std::current_exception(); }
};

template <class T>
struct TaskPromise final : PromiseBase {
  std::optional<T> value{};

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct TaskPromise<void> final : PromiseBase {
  Task<void> get_return_object();
  void return_void() const noexcept {}
};

}  // namespace detail

/// A lazily-started coroutine producing a T.  Move-only; owns its frame.
template <class T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::TaskPromise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const noexcept { return static_cast<bool>(h_); }
  bool done() const noexcept { return !h_ || h_.done(); }

  /// Awaiting a task starts it immediately (symmetric transfer into the
  /// task's frame) and resumes the awaiter when the task completes.
  auto operator co_await() & noexcept { return Awaiter{h_}; }
  auto operator co_await() && noexcept { return Awaiter{h_}; }

  /// Releases ownership of the coroutine handle (used by the Simulator when
  /// adopting root processes).
  Handle release() noexcept { return std::exchange(h_, {}); }

 private:
  struct Awaiter {
    Handle h;

    bool await_ready() const noexcept { return !h || h.done(); }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> cont) const noexcept {
      h.promise().continuation = cont;
      return h;  // start the child task now
    }
    T await_resume() const {
      if (h && h.promise().error) {
        std::rethrow_exception(h.promise().error);
      }
      if constexpr (!std::is_void_v<T>) {
        return std::move(*h.promise().value);
      }
    }
  };

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  Handle h_{};
};

namespace detail {

template <class T>
Task<T> TaskPromise<T>::get_return_object() {
  return Task<T>{std::coroutine_handle<TaskPromise<T>>::from_promise(*this)};
}

inline Task<void> TaskPromise<void>::get_return_object() {
  return Task<void>{
      std::coroutine_handle<TaskPromise<void>>::from_promise(*this)};
}

}  // namespace detail

}  // namespace sim
