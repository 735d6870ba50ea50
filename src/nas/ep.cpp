// EP -- embarrassingly parallel.
//
// Generates pairs of uniform deviates with the NAS generator, applies the
// Marsaglia polar method acceptance test, and tallies Gaussian deviates in
// ten concentric square annuli.  Each rank jumps to its slice of the random
// stream with the log-time seed advance, so the global result is
// independent of the process count -- which is exactly what verification
// checks (a serial reference over the same stream).
// Communication: three allreduces at the end.  Scaled sample counts:
// S 2^18, W 2^20, A 2^22, B 2^23 (official A is 2^28).
#include <algorithm>
#include <array>
#include <cmath>

#include "nas/ep.hpp"
#include "nas/nas.hpp"
#include "nas/nas_random.hpp"

namespace nas {

namespace {

std::int64_t samples_for(Class c) {
  switch (c) {
    case Class::S:
      return 1 << 18;
    case Class::W:
      return 1 << 20;
    case Class::A:
      return 1 << 22;
    case Class::B:
      return 1 << 23;
  }
  return 1 << 18;
}

}  // namespace

// The pairs are drawn in blocks of kBlock.  The first pass runs only the
// generator and the acceptance test, and compacts the accepted pairs with a
// branch-free index; the next two take log, then sqrt/divide and the tally,
// over the compacted pairs.  The deviates come from two interleaved
// generator chains (x_{k+2} = a^2 x_k mod 2^46, exact), so neither waits on
// the other's multiply, and no pass waits on a mispredicted acceptance
// branch or spills its sums around a libm call.  Every pair gets the
// one-pair-at-a-time loop's operations in its order, sx and sy are summed in
// stream order, and the annulus counts are integers until the end, so the
// tally is that loop's bits (tests/nas_test.cpp keeps it as the oracle).
EpTally ep_slice(std::int64_t first, std::int64_t count) {
  constexpr double kSeed = 271828183.0;
  constexpr int kBlock = 1024;
  const std::uint64_t a = detail::to_u46(kDefaultA);
  const std::uint64_t a2 = detail::mul46(a, a);
  // Each pair consumes two deviates: u1 from x1, u2 from x2.
  std::uint64_t x1 = detail::mul46(
      detail::to_u46(advance_seed(kSeed, kDefaultA, 2 * first)), a);
  std::uint64_t x2 = detail::mul46(x1, a);
  std::array<std::int64_t, 10> bins{};
  EpTally t;
  double u1s[kBlock] = {}, u2s[kBlock] = {}, ss[kBlock] = {},
         logs[kBlock] = {};
  for (std::int64_t done = 0; done < count; done += kBlock) {
    const int len =
        static_cast<int>(std::min<std::int64_t>(kBlock, count - done));
    int kept = 0;
    for (int i = 0; i < len; ++i) {
      // randlc's deviate, kR46 * x, from the integer state.
      const double u1 = 2.0 * (kR46 * detail::from_u46(x1)) - 1.0;
      const double u2 = 2.0 * (kR46 * detail::from_u46(x2)) - 1.0;
      x1 = detail::mul46(x1, a2);
      x2 = detail::mul46(x2, a2);
      const double s = u1 * u1 + u2 * u2;
      u1s[kept] = u1;
      u2s[kept] = u2;
      ss[kept] = s;
      // Accepted unless s > 1 or s == 0; `&` keeps it free of branches.
      kept += static_cast<int>(!(s > 1.0)) & static_cast<int>(s != 0.0);
    }
    for (int j = 0; j < kept; ++j) logs[j] = std::log(ss[j]);
    for (int j = 0; j < kept; ++j) {
      const double s = ss[j];
      const double f = std::sqrt(-2.0 * logs[j] / s);
      const double gx = u1s[j] * f;
      const double gy = u2s[j] * f;
      t.sx += gx;
      t.sy += gy;
      const double m = std::max(std::fabs(gx), std::fabs(gy));
      const auto bin = static_cast<std::size_t>(m);
      if (bin < bins.size()) ++bins[bin];
    }
  }
  for (std::size_t b = 0; b < bins.size(); ++b) {
    t.q[b] = static_cast<double>(bins[b]);
  }
  return t;
}

sim::Task<Result> ep(mpi::Communicator& world, pmi::Context& ctx, Class cls) {
  const std::int64_t n = samples_for(cls);
  const int p = world.size();
  const std::int64_t per = n / p;
  const std::int64_t first = per * world.rank();
  const std::int64_t mine =
      world.rank() == p - 1 ? n - first : per;  // remainder to the last rank

  co_await world.barrier();
  const double t0 = world.wtime();

  const EpTally local = ep_slice(first, mine);
  // ~60 flops per generated pair (two randlc + polar test + occasional
  // log/sqrt).
  co_await charge(ctx, static_cast<double>(mine) * 60.0);

  EpTally global;
  notify_phase(world, "ep.tally", 0);
  co_await world.allreduce(&local.sx, &global.sx, 2, mpi::Datatype::kDouble,
                           mpi::Op::kSum);
  co_await world.allreduce(local.q.data(), global.q.data(), 10,
                           mpi::Datatype::kDouble, mpi::Op::kSum);
  const double elapsed = world.wtime() - t0;

  // Verification: the parallel tallies must reproduce the serial stream
  // bit-for-bit (EP's defining property), and every accepted pair must be
  // counted exactly once.
  bool ok = true;
  if (world.rank() == 0) {
    const EpTally ref = ep_slice(0, n);
    ok = std::fabs(global.sx - ref.sx) < 1e-9 &&
         std::fabs(global.sy - ref.sy) < 1e-9;
    for (std::size_t i = 0; i < ref.q.size(); ++i) {
      ok = ok && global.q[i] == ref.q[i];
    }
  }
  int ok_int = ok ? 1 : 0;
  co_await world.bcast(&ok_int, 1, mpi::Datatype::kInt, 0);

  Result r;
  r.name = "EP";
  r.cls = cls;
  r.nprocs = p;
  r.verified = ok_int == 1;
  r.time_sec = elapsed;
  r.mops = static_cast<double>(n) / elapsed / 1e6;
  r.detail = "sx=" + std::to_string(global.sx);
  co_return r;
}

}  // namespace nas
