// BT -- block-tridiagonal ADI solver.
//
// Same ADI structure as SP but each grid point carries a 3-component state
// coupled by a constant 3x3 SPD matrix, so every directional sweep solves
// block-tridiagonal systems with 3x3 blocks (the dense small-block
// arithmetic that makes BT compute-heavy relative to its communication).
// The blocks are constant, so the pivot inverses are factored once per run
// and every line solve only applies them; the virtual charge still counts
// the per-point factorization the kernel models.
// Scaled grids: S 12^3/10, W 24^3/10, A 32^3/20, B 48^3/20 (official A is
// 64^3/200; square process counts as in the paper).
#include <cmath>
#include <vector>

#include "nas/nas.hpp"
#include "nas/pencil.hpp"

namespace nas {

namespace {

struct BtConfig {
  int n;
  int iters;
};

BtConfig bt_config(Class c) {
  switch (c) {
    case Class::S:
      return {12, 10};
    case Class::W:
      return {24, 10};
    case Class::A:
      return {32, 20};
    case Class::B:
      return {48, 20};
  }
  return {12, 10};
}

}  // namespace

sim::Task<Result> bt(mpi::Communicator& world, pmi::Context& ctx, Class cls) {
  const BtConfig cfg = bt_config(cls);
  const int n = cfg.n;
  const int p = world.size();
  const int rank = world.rank();
  const int nzl = n / p;
  const int nxl = n / p;
  const double a = 0.4;

  // Coupling matrix (SPD, diagonally dominant) and the sweep blocks.
  const M3 coupling{2.0, 0.3, 0.1, 0.3, 2.0, 0.3, 0.1, 0.3, 2.0};
  M3 diag{};  // I + 2a*C
  M3 off{};   // a*C
  for (std::size_t k = 0; k < 9; ++k) {
    off[k] = a * coupling[k];
    diag[k] = 2.0 * off[k];
  }
  diag[0] += 1.0;
  diag[4] += 1.0;
  diag[8] += 1.0;
  const BlockFactors pivots = factor_block(diag, off, n);

  auto zidx = [&](int z, int y, int x) {
    return ((static_cast<std::size_t>(z) * n + y) * n + x) * 3;
  };
  auto xidx = [&](int xl, int y, int z) {
    return ((static_cast<std::size_t>(xl) * n + y) * n + z) * 3;
  };

  std::vector<double> u(static_cast<std::size_t>(nzl) * n * n * 3);
  for (int z = 0; z < nzl; ++z) {
    const int gz = rank * nzl + z;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        for (int k = 0; k < 3; ++k) {
          u[zidx(z, y, x) + static_cast<std::size_t>(k)] =
              std::sin(M_PI * (gz + 1) / (n + 1)) *
                  std::sin(M_PI * (y + 1) / (n + 1)) *
                  std::sin(M_PI * (x + 1) / (n + 1)) +
              0.1 * (k + 1) * std::cos(gz + 2.0 * y + 3.0 * x);
        }
      }
    }
  }
  std::vector<double> tr(static_cast<std::size_t>(nxl) * n * n * 3);
  PencilBufs bufs;

  auto norm2 = [&]() -> sim::Task<double> {
    double local = 0;
    for (double v : u) local += v * v;
    double total = 0;
    co_await world.allreduce(&local, &total, 1, mpi::Datatype::kDouble,
                             mpi::Op::kSum);
    co_return std::sqrt(total);
  };

  co_await world.barrier();
  const double t0 = world.wtime();
  const double norm0 = co_await norm2();

  bool monotone = true;
  double prev = norm0;
  const double block_flops = 180.0;  // per point per block-line solve
  for (int it = 0; it < cfg.iters; ++it) {
    notify_phase(world, "bt.sweep", it);
    for (int z = 0; z < nzl; ++z) {
      for (int y = 0; y < n; ++y) {
        thomas_block(pivots, &u[zidx(z, y, 0)], 1);
      }
    }
    co_await charge(ctx, block_flops * nzl * n * n);
    for (int z = 0; z < nzl; ++z) thomas_block(pivots, &u[zidx(z, 0, 0)], n);
    co_await charge(ctx, block_flops * nzl * n * n);
    co_await transpose_zx(world, n, n, n, 3, u.data(), tr.data(), true, bufs);
    co_await charge(ctx, 12.0 * nzl * n * n);
    for (int xl = 0; xl < nxl; ++xl) {
      for (int y = 0; y < n; ++y) {
        thomas_block(pivots, &tr[xidx(xl, y, 0)], 1);
      }
    }
    co_await charge(ctx, block_flops * nxl * n * n);
    co_await transpose_zx(world, n, n, n, 3, tr.data(), u.data(), false, bufs);
    co_await charge(ctx, 12.0 * nzl * n * n);

    const double norm = co_await norm2();
    monotone = monotone && norm < prev;
    prev = norm;
  }
  const double elapsed = world.wtime() - t0;

  const bool ok = monotone && prev < norm0 && std::isfinite(prev);

  Result r;
  r.name = "BT";
  r.cls = cls;
  r.nprocs = p;
  r.verified = ok;
  r.time_sec = elapsed;
  r.mops = 3.0 * block_flops * n * n * n * cfg.iters / elapsed / 1e6;
  r.detail = "|u|/|u0|=" + std::to_string(prev / norm0);
  co_return r;
}

}  // namespace nas
