#include "sim/simulator.hpp"

#include <algorithm>
#include <exception>
#include <functional>

namespace sim {

/// Root coroutine wrapper: runs a Task<void> to completion and notifies the
/// owning Simulator's ProcessState.  Stays suspended at final_suspend so the
/// Simulator controls frame destruction.
struct Simulator::RootTask {
  struct promise_type {
    ProcessState* st = nullptr;

    RootTask get_return_object() {
      return RootTask{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }

    struct Final {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept {
        ProcessState* st = h.promise().st;
        st->finished = true;
        if (st->error && st->sim->failed_ == nullptr) st->sim->failed_ = st;
      }
      void await_resume() const noexcept {}
    };
    Final final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception() { st->error = std::current_exception(); }
  };

  std::coroutine_handle<promise_type> h;
};

Simulator::RootTask Simulator::root_runner(Task<void> inner) {
  co_await std::move(inner);
}

Simulator::~Simulator() {
  // Destroy suspended root frames; child frames are destroyed transitively
  // through the Task<> members living in their parents' frames.
  for (auto& p : processes_) {
    if (p->root) p->root.destroy();
  }
  // Callbacks that never ran still own their captures and pooled cells.
  for (const Event& ev : queue_) {
    if (ev.op != nullptr) ev.op(ev.obj, /*invoke=*/false);
  }
}

void Simulator::schedule(Tick at, std::coroutine_handle<> h) {
  push(Event{at, 0, h.address(), nullptr});
}

void Simulator::adopt(Task<void> proc, std::string name, bool daemon) {
  auto st = std::make_unique<ProcessState>();
  st->sim = this;
  st->name = std::move(name);
  st->daemon = daemon;
  RootTask root = root_runner(std::move(proc));
  root.h.promise().st = st.get();
  st->root = root.h;
  schedule(now_, root.h);
  processes_.push_back(std::move(st));
}

void Simulator::spawn(Task<void> proc, std::string name) {
  adopt(std::move(proc), std::move(name), /*daemon=*/false);
}

void Simulator::spawn_daemon(Task<void> proc, std::string name) {
  adopt(std::move(proc), std::move(name), /*daemon=*/true);
}

std::size_t Simulator::live_root_processes() const noexcept {
  std::size_t n = 0;
  for (const auto& p : processes_) {
    if (!p->daemon && !p->finished) ++n;
  }
  return n;
}

void Simulator::drain(Tick limit, bool bounded) {
  while (!queue_.empty()) {
    if (bounded && queue_.front().at > limit) break;
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
    const Event ev = queue_.back();
    queue_.pop_back();
    now_ = ev.at;
    ++events_processed_;
    if (ev.op == nullptr) {
      std::coroutine_handle<>::from_address(ev.obj).resume();
    } else {
      ev.op(ev.obj, /*invoke=*/true);
    }
    if (failed_ != nullptr) break;
  }
  if (bounded && now_ < limit) now_ = limit;
}

void Simulator::run() {
  drain(0, /*bounded=*/false);
  if (failed_ != nullptr) {
    ProcessState* f = failed_;
    failed_ = nullptr;
    try {
      std::rethrow_exception(f->error);
    } catch (const std::exception& e) {
      f->error = nullptr;
      throw ProcessError(f->name, e.what());
    } catch (...) {
      f->error = nullptr;
      throw ProcessError(f->name, "unknown exception");
    }
  }
  if (std::size_t live = live_root_processes(); live != 0) {
    std::string who;
    for (const auto& p : processes_) {
      if (!p->daemon && !p->finished) {
        if (!who.empty()) who += ", ";
        who += p->name;
      }
    }
    throw DeadlockError("event queue drained with " + std::to_string(live) +
                        " blocked process(es): " + who);
  }
}

Tick Simulator::run_until(Tick t) {
  drain(t, /*bounded=*/true);
  return now_;
}

}  // namespace sim
