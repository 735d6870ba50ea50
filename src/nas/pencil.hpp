// Shared pencil-transpose helper for the ADI solvers (SP, BT) and their
// factored tri- / block-tridiagonal line solvers.
//
// Fields live in z-slab layout  in[z_local][y][x][K]  (K components, K
// fastest).  The z sweep needs whole z lines, so the field is globally
// transposed to x-slab layout  out[x_local][y][z][K]  with one alltoall --
// the same redistribution NAS SP/BT perform between directional sweeps.
#pragma once

#include <array>
#include <vector>

#include "mpi/comm.hpp"
#include "sim/task.hpp"

namespace nas {

struct PencilBufs {
  std::vector<double> send, recv;
  void ensure(std::size_t n) {
    if (send.size() < n) send.resize(n);
    if (recv.size() < n) recv.resize(n);
  }
};

/// z-slabs -> x-slabs when `forward`, the inverse otherwise.
inline sim::Task<void> transpose_zx(mpi::Communicator& world, int nx, int ny,
                                    int nz, int K, const double* in,
                                    double* out, bool forward,
                                    PencilBufs& bufs) {
  const int p = world.size();
  const int nzl = nz / p;
  const int nxl = nx / p;
  const std::size_t total =
      static_cast<std::size_t>(nzl) * ny * nx * static_cast<std::size_t>(K);
  const std::size_t block = total / static_cast<std::size_t>(p);
  bufs.ensure(total);

  auto zidx = [&](int z, int y, int x) {
    return ((static_cast<std::size_t>(z) * ny + y) * nx + x) *
           static_cast<std::size_t>(K);
  };
  auto xidx = [&](int xl, int y, int z) {
    return ((static_cast<std::size_t>(xl) * ny + y) * nz + z) *
           static_cast<std::size_t>(K);
  };

  if (forward) {
    std::size_t o = 0;
    for (int j = 0; j < p; ++j) {
      for (int z = 0; z < nzl; ++z) {
        for (int y = 0; y < ny; ++y) {
          for (int xl = 0; xl < nxl; ++xl) {
            const double* src = in + zidx(z, y, j * nxl + xl);
            for (int k = 0; k < K; ++k) bufs.send[o++] = src[k];
          }
        }
      }
    }
    co_await world.alltoall(bufs.send.data(), static_cast<int>(block),
                            bufs.recv.data(), mpi::Datatype::kDouble);
    o = 0;
    for (int j = 0; j < p; ++j) {
      for (int zl = 0; zl < nzl; ++zl) {
        for (int y = 0; y < ny; ++y) {
          for (int xl = 0; xl < nxl; ++xl) {
            double* dst = out + xidx(xl, y, j * nzl + zl);
            for (int k = 0; k < K; ++k) dst[k] = bufs.recv[o++];
          }
        }
      }
    }
  } else {
    std::size_t o = 0;
    for (int j = 0; j < p; ++j) {
      for (int zl = 0; zl < nzl; ++zl) {
        for (int y = 0; y < ny; ++y) {
          for (int xl = 0; xl < nxl; ++xl) {
            const double* src = in + xidx(xl, y, j * nzl + zl);
            for (int k = 0; k < K; ++k) bufs.send[o++] = src[k];
          }
        }
      }
    }
    co_await world.alltoall(bufs.send.data(), static_cast<int>(block),
                            bufs.recv.data(), mpi::Datatype::kDouble);
    o = 0;
    for (int j = 0; j < p; ++j) {
      for (int z = 0; z < nzl; ++z) {
        for (int y = 0; y < ny; ++y) {
          for (int xl = 0; xl < nxl; ++xl) {
            double* dst = out + zidx(z, y, j * nxl + xl);
            for (int k = 0; k < K; ++k) dst[k] = bufs.recv[o++];
          }
        }
      }
    }
  }
}

/// Pivots of the Thomas algorithm for the constant-coefficient tridiagonal
/// system  (1 + 2a) x_i - a x_{i-1} - a x_{i+1} = d_i  (Dirichlet ends) on
/// lines of length n.  c[i] and m[i] = 1 / (b + a c[i-1]) depend only on a
/// and i, so one factorization serves every line of every sweep (m[0] is
/// unused: the first row divides by b).
struct ScalarFactors {
  double a = 0, b = 0;
  std::vector<double> c, m;
};

inline ScalarFactors factor_scalar(double a, int n) {
  const auto len = static_cast<std::size_t>(n);
  ScalarFactors f{a, 1.0 + 2.0 * a, std::vector<double>(len),
                  std::vector<double>(len)};
  f.c[0] = -a / f.b;
  for (std::size_t i = 1; i < len; ++i) {
    f.m[i] = 1.0 / (f.b + a * f.c[i - 1]);
    f.c[i] = -a * f.m[i];
  }
  return f;
}

/// Solves the factored system in place on `lanes` interleaved lines:
/// element i of line l is d[i * lanes + l].  lanes = 1 is one contiguous
/// line; the y lines of a z-plane are its x lanes.  Step i runs over every
/// line before step i + 1, so the lines' serial chains overlap, and each
/// line sees the single-line operations in the single-line order.
inline void thomas_scalar(const ScalarFactors& f, double* d, int lanes) {
  const std::size_t n = f.c.size();
  const auto row = static_cast<std::size_t>(lanes);
  for (std::size_t l = 0; l < row; ++l) d[l] /= f.b;
  for (std::size_t i = 1; i < n; ++i) {
    double* cur = d + i * row;
    const double* prev = cur - row;
    const double m = f.m[i];
    for (std::size_t l = 0; l < row; ++l) {
      cur[l] = (cur[l] + f.a * prev[l]) * m;
    }
  }
  for (std::size_t i = n - 1; i-- > 0;) {
    double* cur = d + i * row;
    const double* next = cur + row;
    const double c = f.c[i];
    for (std::size_t l = 0; l < row; ++l) cur[l] -= c * next[l];
  }
}

using M3 = std::array<double, 9>;  // row-major 3x3
using V3 = std::array<double, 3>;

inline M3 mat_mul(const M3& a, const M3& b) {
  M3 c{};
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < 3; ++k) s += a[i * 3 + k] * b[k * 3 + j];
      c[i * 3 + j] = s;
    }
  }
  return c;
}

inline V3 mat_vec(const M3& a, const V3& v) {
  V3 r{};
  for (std::size_t i = 0; i < 3; ++i) {
    r[i] = a[i * 3] * v[0] + a[i * 3 + 1] * v[1] + a[i * 3 + 2] * v[2];
  }
  return r;
}

inline M3 mat_inv(const M3& m) {
  const double a = m[0], b = m[1], c = m[2], d = m[3], e = m[4], f = m[5],
               g = m[6], h = m[7], i = m[8];
  const double det =
      a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g);
  const double s = 1.0 / det;
  return M3{(e * i - f * h) * s, (c * h - b * i) * s, (b * f - c * e) * s,
            (f * g - d * i) * s, (a * i - c * g) * s, (c * d - a * f) * s,
            (d * h - e * g) * s, (b * g - a * h) * s, (a * e - b * d) * s};
}

inline M3 mat_sub(const M3& a, const M3& b) {
  M3 c;
  for (std::size_t k = 0; k < 9; ++k) c[k] = a[k] - b[k];
  return c;
}

/// Pivots of the block Thomas algorithm for the constant-block system
/// diag x_i - off x_{i-1} - off x_{i+1} = d_i  on lines of length n:
/// inv[i] inverts the i-th pivot block  diag - off cp[i-1]  and
/// cp[i] = inv[i] off.  Like the scalar pivots they depend only on the
/// blocks and on i, so one factorization serves every line.
struct BlockFactors {
  M3 off{};
  std::vector<M3> inv, cp;
};

inline BlockFactors factor_block(const M3& diag, const M3& off, int n) {
  const auto len = static_cast<std::size_t>(n);
  BlockFactors f{off, std::vector<M3>(len), std::vector<M3>(len)};
  f.inv[0] = mat_inv(diag);
  f.cp[0] = mat_mul(f.inv[0], off);
  for (std::size_t i = 1; i < len; ++i) {
    f.inv[i] = mat_inv(mat_sub(diag, mat_mul(off, f.cp[i - 1])));
    f.cp[i] = mat_mul(f.inv[i], off);
  }
  return f;
}

/// Solves the factored system in place on `lanes` interleaved lines of
/// 3-vectors: element i of line l starts at d[(i * lanes + l) * 3].  Like
/// thomas_scalar, step i runs over every line before step i + 1.  Step i's
/// blocks are copied out first: d could alias them as far as the compiler
/// knows, and would otherwise reload them for every line.
inline void thomas_block(const BlockFactors& f, double* d, int lanes) {
  const std::size_t n = f.inv.size();
  const std::size_t row = static_cast<std::size_t>(lanes) * 3;
  auto load = [](const double* p) { return V3{p[0], p[1], p[2]}; };
  auto store = [](double* p, const V3& v) {
    p[0] = v[0];
    p[1] = v[1];
    p[2] = v[2];
  };
  const M3 off = f.off;
  // Forward elimination.
  {
    const M3 inv = f.inv[0];
    for (std::size_t l = 0; l < row; l += 3) {
      store(d + l, mat_vec(inv, load(d + l)));
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    double* cur = d + i * row;
    const M3 inv = f.inv[i];
    for (std::size_t l = 0; l < row; l += 3) {
      const V3 c = load(cur + l);
      const V3 carry = mat_vec(off, load(cur + l - row));
      store(cur + l, mat_vec(inv, V3{c[0] + carry[0], c[1] + carry[1],
                                     c[2] + carry[2]}));
    }
  }
  // Back substitution.
  for (std::size_t i = n - 1; i-- > 0;) {
    double* cur = d + i * row;
    const M3 cp = f.cp[i];
    for (std::size_t l = 0; l < row; l += 3) {
      const V3 corr = mat_vec(cp, load(cur + l + row));
      cur[l] -= corr[0];
      cur[l + 1] -= corr[1];
      cur[l + 2] -= corr[2];
    }
  }
}

}  // namespace nas
