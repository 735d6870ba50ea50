// FT -- 3-D fast Fourier transform.
//
// Complex radix-2 FFTs along x and y on local z-slabs, then a global
// transpose (alltoall of large blocks -- the benchmark's signature
// communication) to make z local for the final pass.  Each iteration runs
// forward + inverse transforms; verification checks the round trip against
// the original field and a checksum reduction.
// Scaled grids (nx, ny, nz): S 32^3, W 64x32x32, A 64^3, B 128x64x64
// (official A is 256x256x128).
#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <vector>

#include "nas/fft.hpp"
#include "nas/nas.hpp"
#include "nas/nas_random.hpp"

namespace nas {

namespace {

using Cplx = std::complex<double>;

struct FtConfig {
  int nx, ny, nz;
  int iters;
};

constexpr FtConfig ft_config(Class c) {
  switch (c) {
    case Class::S:
      return {32, 32, 32, 2};
    case Class::W:
      return {64, 32, 32, 2};
    case Class::A:
      return {64, 64, 64, 4};
    case Class::B:
      return {128, 64, 64, 4};
  }
  return {32, 32, 32, 2};
}

static_assert(ft_config(Class::B).nx <= kMaxFftLen,
              "an FT axis is longer than the twiddle tables");

/// Every radix-2 stage's twiddles for one direction (sign = -1 forward, +1
/// inverse): stage `len` reads w^0..w^(len/2-1) from offset len/2 - 1.
/// They come from the recurrence  w *= wl,  not from cos/sin per k: FT's
/// results are pinned to that rounding.  A stage's twiddles do not depend
/// on the transform length, so one table per direction serves every axis.
struct Twiddles {
  std::array<Cplx, kMaxFftLen - 1> w;

  explicit Twiddles(int sign) {
    std::size_t o = 0;
    for (int len = 2; len <= kMaxFftLen; len <<= 1) {
      const double ang = sign * 2.0 * M_PI / len;
      const Cplx wl(std::cos(ang), std::sin(ang));
      Cplx t(1.0, 0.0);
      for (int k = 0; k < len / 2; ++k) {
        w[o++] = t;
        t *= wl;
      }
    }
  }
};

// Built on first use, not at start-up: built before main, the tables raised
// the peak resident set of runs that never execute FT by ~0.3 MB.
const Twiddles& twiddles(int sign) {
  static const Twiddles forward(-1), inverse(+1);
  return sign < 0 ? forward : inverse;
}

double fft_flops(int n) { return 5.0 * n * std::log2(static_cast<double>(n)); }

// One radix-2 butterfly, lo, hi <- lo + w hi, lo - w hi.  The product is
// written out as the same IEEE operations std::complex's operator* performs
// on finite values, without its NaN-recovery branch.
inline void butterfly(Cplx& lo, Cplx& hi, Cplx w) {
  const double br = hi.real(), bi = hi.imag();
  const double vr = br * w.real() - bi * w.imag();
  const double vi = br * w.imag() + bi * w.real();
  const double ur = lo.real(), ui = lo.imag();
  lo = Cplx(ur + vr, ui + vi);
  hi = Cplx(ur - vr, ui - vi);
}

}  // namespace

void fft1d(Cplx* a, int n, int sign) {
  const Cplx* tw = twiddles(sign).w.data();
  // Bit-reversal permutation.
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (int len = 2; len <= n; len <<= 1) {
    const int half = len / 2;
    const Cplx* w = tw + (half - 1);
    for (int i = 0; i < n; i += len) {
      for (int k = 0; k < half; ++k) butterfly(a[i + k], a[i + k + half], w[k]);
    }
  }
}

// The same passes as fft1d with every step run across all lanes: the lanes'
// butterflies are independent, so they overlap, and no strided line is
// gathered into a buffer or scattered back.
void fft1d_lanes(Cplx* a, int n, int lanes, int sign) {
  const Cplx* tw = twiddles(sign).w.data();
  const auto row = static_cast<std::size_t>(lanes);
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap_ranges(a + i * row, a + (i + 1) * row, a + j * row);
  }
  for (int len = 2; len <= n; len <<= 1) {
    const int half = len / 2;
    const Cplx* w = tw + (half - 1);
    for (int i = 0; i < n; i += len) {
      for (int k = 0; k < half; ++k) {
        Cplx* lo = a + static_cast<std::size_t>(i + k) * row;
        Cplx* hi = lo + static_cast<std::size_t>(half) * row;
        const Cplx wk = w[k];
        for (std::size_t l = 0; l < row; ++l) butterfly(lo[l], hi[l], wk);
      }
    }
  }
}

// A point can raise the maximum only if |d| > err.  Its squared norm n2 is
// |d|^2 to within a few ulps, plus at most 2^-1074 lost to underflow in each
// square, so for 2^-500 <= err <= 2^500 a point with n2 below
// err^2 (1 - 2^-40) has |d| hundreds of ulps under err, and std::abs
// (within one ulp) cannot return more than err there.  Outside that range,
// and for NaN, every point takes the std::abs path.
double max_abs_diff(const Cplx* a, const Cplx* b, std::size_t n) {
  double err = 0;
  double below = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Cplx d = a[i] - b[i];
    const double n2 = d.real() * d.real() + d.imag() * d.imag();
    if (n2 < below) continue;
    err = std::max(err, std::abs(d));
    below = err >= 0x1p-500 && err <= 0x1p500 ? err * err * (1.0 - 0x1p-40)
                                              : 0.0;
  }
  return err;
}

sim::Task<Result> ft(mpi::Communicator& world, pmi::Context& ctx, Class cls) {
  const FtConfig cfg = ft_config(cls);
  const int p = world.size();
  const int rank = world.rank();
  const int nzl = cfg.nz / p;  // local z planes (z-slab layout)
  const int nxl = cfg.nx / p;  // local x pencils (after transpose)
  const std::size_t local_n =
      static_cast<std::size_t>(nzl) * cfg.ny * cfg.nx;

  // Deterministic initial field from the NAS stream (sliced per rank).
  std::vector<Cplx> u0(local_n);
  {
    double seed =
        advance_seed(314159265.0, kDefaultA,
                     2 * static_cast<std::int64_t>(local_n) * rank);
    for (auto& c : u0) {
      const double re = randlc(&seed, kDefaultA);
      const double im = randlc(&seed, kDefaultA);
      c = Cplx(re, im);
    }
  }

  // work[z][y][x] layout, x fastest.
  auto at = [&](std::vector<Cplx>& v, int z, int y, int x) -> Cplx& {
    return v[(static_cast<std::size_t>(z) * cfg.ny + y) * cfg.nx + x];
  };
  // transposed layout: [x_local][y][z], z fastest.
  auto att = [&](std::vector<Cplx>& v, int xl, int y, int z) -> Cplx& {
    return v[(static_cast<std::size_t>(xl) * cfg.ny + y) * cfg.nz + z];
  };

  std::vector<Cplx> work = u0;
  std::vector<Cplx> tr(static_cast<std::size_t>(nxl) * cfg.ny * cfg.nz);
  std::vector<Cplx> sendbuf(local_n), recvbuf(local_n);

  // Forward (sign=-1) or inverse (sign=+1) distributed 3-D FFT.
  // Forward: work (z-slab) -> tr (x-pencil).  Inverse: tr -> work.
  auto fft3d = [&](int sign, bool forward) -> sim::Task<void> {
    if (forward) {
      // x-direction (contiguous lines).
      for (int z = 0; z < nzl; ++z) {
        for (int y = 0; y < cfg.ny; ++y) {
          fft1d(&at(work, z, y, 0), cfg.nx, sign);
        }
      }
      co_await charge(ctx, nzl * cfg.ny * fft_flops(cfg.nx));
      // y-direction (strided: a whole z-plane at once, x as the lanes).
      for (int z = 0; z < nzl; ++z) {
        fft1d_lanes(&at(work, z, 0, 0), cfg.ny, cfg.nx, sign);
      }
      co_await charge(ctx, nzl * cfg.nx * (fft_flops(cfg.ny) + 4.0 * cfg.ny));

      // Global transpose z-slabs -> x-pencils: block for rank j is
      // x in [j*nxl, (j+1)*nxl).
      for (int j = 0; j < p; ++j) {
        std::size_t o = static_cast<std::size_t>(j) * nzl * cfg.ny * nxl;
        for (int z = 0; z < nzl; ++z) {
          for (int y = 0; y < cfg.ny; ++y) {
            for (int xl = 0; xl < nxl; ++xl) {
              sendbuf[o++] = at(work, z, y, j * nxl + xl);
            }
          }
        }
      }
      co_await charge(ctx, static_cast<double>(local_n) * 2.0);
      co_await world.alltoall(sendbuf.data(),
                              static_cast<int>(nzl * cfg.ny * nxl * 2),
                              recvbuf.data(), mpi::Datatype::kDouble);
      // Unpack: block from rank j covers z in [j*nzl, (j+1)*nzl).
      for (int j = 0; j < p; ++j) {
        std::size_t o = static_cast<std::size_t>(j) * nzl * cfg.ny * nxl;
        for (int zl = 0; zl < nzl; ++zl) {
          for (int y = 0; y < cfg.ny; ++y) {
            for (int xl = 0; xl < nxl; ++xl) {
              att(tr, xl, y, j * nzl + zl) = recvbuf[o++];
            }
          }
        }
      }
      co_await charge(ctx, static_cast<double>(local_n) * 2.0);
      // z-direction (contiguous in tr).
      for (int xl = 0; xl < nxl; ++xl) {
        for (int y = 0; y < cfg.ny; ++y) {
          fft1d(&att(tr, xl, y, 0), cfg.nz, sign);
        }
      }
      co_await charge(ctx, nxl * cfg.ny * fft_flops(cfg.nz));
    } else {
      // Inverse order: z first, transpose back, then y, then x.
      for (int xl = 0; xl < nxl; ++xl) {
        for (int y = 0; y < cfg.ny; ++y) {
          fft1d(&att(tr, xl, y, 0), cfg.nz, sign);
        }
      }
      co_await charge(ctx, nxl * cfg.ny * fft_flops(cfg.nz));
      for (int j = 0; j < p; ++j) {
        std::size_t o = static_cast<std::size_t>(j) * nzl * cfg.ny * nxl;
        for (int zl = 0; zl < nzl; ++zl) {
          for (int y = 0; y < cfg.ny; ++y) {
            for (int xl = 0; xl < nxl; ++xl) {
              sendbuf[o++] = att(tr, xl, y, j * nzl + zl);
            }
          }
        }
      }
      co_await charge(ctx, static_cast<double>(local_n) * 2.0);
      co_await world.alltoall(sendbuf.data(),
                              static_cast<int>(nzl * cfg.ny * nxl * 2),
                              recvbuf.data(), mpi::Datatype::kDouble);
      for (int j = 0; j < p; ++j) {
        std::size_t o = static_cast<std::size_t>(j) * nzl * cfg.ny * nxl;
        for (int z = 0; z < nzl; ++z) {
          for (int y = 0; y < cfg.ny; ++y) {
            for (int xl = 0; xl < nxl; ++xl) {
              at(work, z, y, j * nxl + xl) = recvbuf[o++];
            }
          }
        }
      }
      co_await charge(ctx, static_cast<double>(local_n) * 2.0);
      for (int z = 0; z < nzl; ++z) {
        fft1d_lanes(&at(work, z, 0, 0), cfg.ny, cfg.nx, sign);
      }
      co_await charge(ctx, nzl * cfg.nx * (fft_flops(cfg.ny) + 4.0 * cfg.ny));
      for (int z = 0; z < nzl; ++z) {
        for (int y = 0; y < cfg.ny; ++y) {
          fft1d(&at(work, z, y, 0), cfg.nx, sign);
        }
      }
      co_await charge(ctx, nzl * cfg.ny * fft_flops(cfg.nx));
    }
  };

  co_await world.barrier();
  const double t0 = world.wtime();

  bool ok = true;
  Cplx checksum{};
  const double n_total =
      static_cast<double>(cfg.nx) * cfg.ny * cfg.nz;
  for (int it = 0; it < cfg.iters; ++it) {
    notify_phase(world, "ft.pass", it);
    co_await fft3d(-1, /*forward=*/true);
    // Checksum of the spectrum (reduced): NAS-style per-iteration output.
    Cplx local{};
    for (std::size_t i = 0; i < tr.size(); i += 97) local += tr[i];
    double re[2] = {local.real(), local.imag()};
    double sum[2] = {0, 0};
    co_await world.allreduce(re, sum, 2, mpi::Datatype::kDouble, mpi::Op::kSum);
    checksum = Cplx(sum[0], sum[1]);

    co_await fft3d(+1, /*forward=*/false);
    // Normalize and compare with the original field.
    for (Cplx& c : work) c /= n_total;
    const double err = max_abs_diff(work.data(), u0.data(), work.size());
    co_await charge(ctx, static_cast<double>(local_n) * 4.0);
    double max_err = 0;
    co_await world.allreduce(&err, &max_err, 1, mpi::Datatype::kDouble,
                             mpi::Op::kMax);
    ok = ok && max_err < 1e-9;
  }
  const double elapsed = world.wtime() - t0;

  Result r;
  r.name = "FT";
  r.cls = cls;
  r.nprocs = p;
  r.verified = ok && std::isfinite(checksum.real());
  r.time_sec = elapsed;
  const double flops_per_iter =
      2.0 * n_total *
      (5.0 * std::log2(n_total));  // fwd+inv 3-D transforms
  r.mops = flops_per_iter * cfg.iters / elapsed / 1e6;
  r.detail = "checksum=(" + std::to_string(checksum.real()) + "," +
             std::to_string(checksum.imag()) + ")";
  co_return r;
}

}  // namespace nas
