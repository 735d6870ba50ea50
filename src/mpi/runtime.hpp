// Per-rank MPI runtime: owns the engine and the communicators.
//
// Usage inside a rank coroutine:
//   mpi::Runtime rt(ctx, cfg);
//   co_await rt.init();
//   mpi::Communicator& world = rt.world();
//   ... world.send / world.allreduce / ...
//   co_await rt.finalize();
#pragma once

#include <deque>
#include <memory>

#include "mpi/comm.hpp"
#include "mpi/engine.hpp"

namespace mpi {

struct RuntimeConfig {
  ch3::StackConfig stack;
};

class Runtime {
 public:
  Runtime(pmi::Context& ctx, const RuntimeConfig& cfg = {})
      : ctx_(&ctx), engine_(ctx, cfg.stack) {}

  sim::Task<void> init() {
    co_await engine_.init();
    std::vector<int> group(static_cast<std::size_t>(ctx_->size));
    for (int r = 0; r < ctx_->size; ++r) group[static_cast<std::size_t>(r)] = r;
    world_ = &adopt_comm(std::move(group), ctx_->rank, /*context=*/0);
  }

  sim::Task<void> finalize() {
    // A dead member can never reach the world barrier; survivors skip it
    // (channel finalize's job-wide PMI barrier abandons obituaried ranks,
    // which is the synchronization that actually matters for teardown).
    bool skip_barrier = false;
    if (engine_.ft_armed() && ctx_->kvs->obit_version() != 0) {
      for (const int w : world_->group()) {
        if (ctx_->kvs->is_dead(w)) {
          skip_barrier = true;
          break;
        }
      }
    }
    if (!skip_barrier) co_await world_->barrier();
    co_await engine_.finalize();
  }

  Communicator& world() noexcept { return *world_; }
  Engine& engine() noexcept { return engine_; }
  pmi::Context& ctx() noexcept { return *ctx_; }

  Communicator& adopt_comm(std::vector<int> group, int my_rank,
                           std::uint64_t context) {
    comms_.push_back(std::unique_ptr<Communicator>(new Communicator(
        *this, engine_, std::move(group), my_rank, context)));
    Communicator& c = *comms_.back();
    engine_.register_group(context, &c.group());
    return c;
  }

  std::uint64_t peek_next_context() const noexcept { return next_context_; }
  void bump_next_context(std::uint64_t v) {
    if (v > next_context_) next_context_ = v;
  }

 private:
  pmi::Context* ctx_;
  Engine engine_;
  Communicator* world_ = nullptr;
  std::deque<std::unique_ptr<Communicator>> comms_;
  std::uint64_t next_context_ = 4;  // 0/1: world pt2pt + collectives
};

}  // namespace mpi
