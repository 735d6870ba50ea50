// Extension: MPI-2 one-sided communication over RDMA (the paper's
// future-work section).  Compares one-sided put/get against two-sided
// send/recv: with the window pre-registered and the rendezvous handshake
// gone, a one-sided put is a bare RDMA write plus fence amortization.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "mpi/window.hpp"

namespace {

struct Numbers {
  double put_us = 0, get_us = 0, send_us = 0, fadd_us = 0;
};

Numbers measure(std::size_t msg) {
  Numbers out;
  benchutil::run_pair_rt(
      benchutil::design_config(rdmach::Design::kZeroCopy),
      [msg, &out](mpi::Runtime&, mpi::Communicator& world,
                  pmi::Context& ctx) -> sim::Task<void> {
        constexpr int kIters = 16;
        std::vector<std::byte> mem(msg), buf(msg);
        auto win = co_await mpi::Window::create(world, mem.data(), msg);
        co_await win->fence();
        const int n = static_cast<int>(msg);
        const int peer = 1 - world.rank();

        // One-sided put (rank 0 is origin), fenced per iteration.
        sim::Tick t0 = ctx.sim().now();
        for (int i = 0; i < kIters; ++i) {
          if (world.rank() == 0) {
            co_await win->put(buf.data(), n, mpi::Datatype::kByte, 1, 0);
          }
          co_await win->fence();
        }
        if (world.rank() == 0) {
          out.put_us = sim::to_usec(ctx.sim().now() - t0) / kIters;
        }

        // One-sided get.
        t0 = ctx.sim().now();
        for (int i = 0; i < kIters; ++i) {
          if (world.rank() == 0) {
            co_await win->get(buf.data(), n, mpi::Datatype::kByte, 1, 0);
          }
          co_await win->fence();
        }
        if (world.rank() == 0) {
          out.get_us = sim::to_usec(ctx.sim().now() - t0) / kIters;
        }

        // Two-sided reference: send + barrier (same sync discipline).
        t0 = ctx.sim().now();
        for (int i = 0; i < kIters; ++i) {
          if (world.rank() == 0) {
            co_await world.send(buf.data(), n, mpi::Datatype::kByte, peer, 0);
          } else {
            co_await world.recv(buf.data(), n, mpi::Datatype::kByte, peer, 0);
          }
          co_await world.barrier();
        }
        if (world.rank() == 0) {
          out.send_us = sim::to_usec(ctx.sim().now() - t0) / kIters;
        }

        // Atomic fetch-add round trip.
        t0 = ctx.sim().now();
        if (world.rank() == 0) {
          for (int i = 0; i < kIters; ++i) {
            (void)co_await win->fetch_add(1, 0, 1);
          }
          out.fadd_us = sim::to_usec(ctx.sim().now() - t0) / kIters;
        }
        co_await world.barrier();
        co_await win->fence();
      });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smoke_mode(argc, argv);
  benchutil::title(
      "Extension: MPI-2 one-sided over RDMA vs two-sided (per op + sync, us)");
  std::printf("%8s %10s %10s %12s\n", "size", "put", "get", "send+barrier");
  std::vector<std::size_t> sizes{std::size_t{8}, std::size_t{4096},
                                 std::size_t{64 * 1024}, std::size_t{1 << 20}};
  if (smoke) sizes = {std::size_t{8}, std::size_t{4096}};
  for (std::size_t s : sizes) {
    const Numbers n = measure(s);
    std::printf("%8s %10.2f %10.2f %12.2f\n",
                benchutil::human_size(s).c_str(), n.put_us, n.get_us,
                n.send_us);
  }
  const Numbers n = measure(8);
  std::printf("\natomic fetch-add round trip: %.2f us\n", n.fadd_us);
  return 0;
}
