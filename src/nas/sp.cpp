// SP -- scalar ADI (pentadiagonal-style) solver.
//
// Each iteration performs the three directional implicit sweeps of an ADI
// step for the 3-D heat equation,
//   (I - a Dxx)(I - a Dyy)(I - a Dzz) u^{n+1} = u^n ,
// with Thomas solves along every grid line.  x and y lines are local to
// the z-slab layout; the z sweep redistributes the field to x-pencils with
// a global transpose (alltoall) and back -- one transpose pair per
// iteration, the pattern that dominates SP's communication.
// Scaled grids: S 16^3/10 iters, W 24^3/15, A 32^3/30, B 48^3/30
// (official A is 64^3/400; the paper runs SP on square process counts
// only, which our benches honour by running SP on 4 nodes).
#include <cmath>
#include <vector>

#include "nas/nas.hpp"
#include "nas/pencil.hpp"

namespace nas {

namespace {

struct SpConfig {
  int n;
  int iters;
};

SpConfig sp_config(Class c) {
  switch (c) {
    case Class::S:
      return {16, 10};
    case Class::W:
      return {24, 15};
    case Class::A:
      return {32, 30};
    case Class::B:
      return {48, 30};
  }
  return {16, 10};
}

}  // namespace

sim::Task<Result> sp(mpi::Communicator& world, pmi::Context& ctx, Class cls) {
  const SpConfig cfg = sp_config(cls);
  const int n = cfg.n;
  const int p = world.size();
  const int rank = world.rank();
  const int nzl = n / p;
  const int nxl = n / p;
  const double a = 0.5;  // diffusion number per sweep
  const ScalarFactors pivots = factor_scalar(a, n);

  auto zidx = [&](int z, int y, int x) {
    return (static_cast<std::size_t>(z) * n + y) * n + x;
  };
  auto xidx = [&](int xl, int y, int z) {
    return (static_cast<std::size_t>(xl) * n + y) * n + z;
  };

  // Initial condition: smooth deterministic bump field.
  std::vector<double> u(static_cast<std::size_t>(nzl) * n * n);
  for (int z = 0; z < nzl; ++z) {
    const int gz = rank * nzl + z;
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        u[zidx(z, y, x)] = std::sin(M_PI * (gz + 1) / (n + 1)) *
                           std::sin(M_PI * (y + 1) / (n + 1)) *
                           std::sin(M_PI * (x + 1) / (n + 1)) +
                           0.3 * std::cos(2.0 * (gz + y + x));
      }
    }
  }
  std::vector<double> tr(static_cast<std::size_t>(nxl) * n * n);
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
  for (int it = 0; it < cfg.iters; ++it) {
    notify_phase(world, "sp.sweep", it);
    // x sweep (lines contiguous in the z-slab layout).
    for (int z = 0; z < nzl; ++z) {
      for (int y = 0; y < n; ++y) {
        thomas_scalar(pivots, &u[zidx(z, y, 0)], 1);
      }
    }
    co_await charge(ctx, 8.0 * nzl * n * n);
    // y sweep (stride n): a whole z-plane at once, x as the lanes.
    for (int z = 0; z < nzl; ++z) thomas_scalar(pivots, &u[zidx(z, 0, 0)], n);
    co_await charge(ctx, 8.0 * nzl * n * n);
    // z sweep: transpose to x-pencils, solve contiguous z lines, back.
    co_await transpose_zx(world, n, n, n, 1, u.data(), tr.data(),
                          /*forward=*/true, bufs);
    co_await charge(ctx, 4.0 * nzl * n * n);
    for (int xl = 0; xl < nxl; ++xl) {
      for (int y = 0; y < n; ++y) {
        thomas_scalar(pivots, &tr[xidx(xl, y, 0)], 1);
      }
    }
    co_await charge(ctx, 8.0 * nxl * n * n);
    co_await transpose_zx(world, n, n, n, 1, tr.data(), u.data(),
                          /*forward=*/false, bufs);
    co_await charge(ctx, 4.0 * nzl * n * n);

    // Heat diffusion with Dirichlet walls decays monotonically.
    const double norm = co_await norm2();
    monotone = monotone && norm < prev;
    prev = norm;
  }
  const double elapsed = world.wtime() - t0;

  const bool ok = monotone && prev < norm0 && std::isfinite(prev);

  Result r;
  r.name = "SP";
  r.cls = cls;
  r.nprocs = p;
  r.verified = ok;
  r.time_sec = elapsed;
  r.mops = 32.0 * n * n * n * cfg.iters / elapsed / 1e6;
  r.detail = "|u|/|u0|=" + std::to_string(prev / norm0);
  co_return r;
}

}  // namespace nas
