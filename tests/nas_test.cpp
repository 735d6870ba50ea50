// NAS kernel tests: every kernel must self-verify on class S over several
// process counts and over the three stacks the paper compares in Figures
// 16/17 (pipelining, RDMA-channel zero-copy, CH3 zero-copy), plus the
// exactness of the NAS random-number generator, the factored and
// plane-batched line solvers, the tabulated and plane-batched FFT, EP's
// blocked tally and IS's bucket-owner map against the algorithms they
// replaced, and pinned class S results.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "nas/ep.hpp"
#include "nas/fft.hpp"
#include "nas/is.hpp"
#include "nas/nas.hpp"
#include "nas/nas_random.hpp"
#include "nas/pencil.hpp"
#include "pmi/pmi.hpp"

namespace nas {
namespace {

mpi::RuntimeConfig stack_cfg(ch3::Stack stack, rdmach::Design design) {
  mpi::RuntimeConfig cfg;
  cfg.stack.stack = stack;
  cfg.stack.channel.design = design;
  return cfg;
}

Result run_kernel(const std::string& name, int nprocs, Class cls,
                  mpi::RuntimeConfig cfg) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, nprocs);
  Result result;
  job.launch([&, name, cls](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    Result r = co_await kernel(name)(rt.world(), ctx, cls);
    if (ctx.rank == 0) result = r;
    co_await rt.finalize();
  });
  sim.run();
  return result;
}

TEST(NasRandom, MatchesKnownReferenceStream) {
  // The NPB generator with the default seed/multiplier: the first value.
  double x = 314159265.0;
  const double r1 = randlc(&x, kDefaultA);
  EXPECT_GT(r1, 0.0);
  EXPECT_LT(r1, 1.0);
  // Seed advance must equal stepping one-by-one.
  double y = 314159265.0;
  for (int i = 0; i < 1000; ++i) (void)randlc(&y, kDefaultA);
  const double jumped = advance_seed(314159265.0, kDefaultA, 1000);
  EXPECT_DOUBLE_EQ(jumped, y);
}

TEST(NasRandom, StreamSlicesAreConsistent) {
  // Concatenating two half streams equals the full stream.
  double full_seed = 271828183.0;
  std::vector<double> full(100);
  vranlc(100, &full_seed, kDefaultA, full.data());
  double s2 = advance_seed(271828183.0, kDefaultA, 50);
  std::vector<double> second(50);
  vranlc(50, &s2, kDefaultA, second.data());
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(second[static_cast<std::size_t>(i)],
                     full[static_cast<std::size_t>(50 + i)]);
  }
}

// The classic NPB generator step: 46-bit modular multiplication emulated
// exactly in doubles by splitting a and x into 23-bit halves.  The oracle
// the integer step must match bit for bit.
double randlc_split(double* x, double a) {
  constexpr double r23 = 1.0 / 8388608.0;  // 2^-23
  constexpr double t23 = 8388608.0;        // 2^23
  constexpr double r46 = r23 * r23;
  constexpr double t46 = t23 * t23;
  const double a1 = static_cast<double>(static_cast<std::int64_t>(r23 * a));
  const double a2 = a - t23 * a1;
  const double x1 = static_cast<double>(static_cast<std::int64_t>(r23 * *x));
  const double x2 = *x - t23 * x1;
  const double t1 = a1 * x2 + a2 * x1;
  const double t2 = static_cast<double>(static_cast<std::int64_t>(r23 * t1));
  const double z = t1 - t23 * t2;
  const double t3 = t23 * z + a2 * x2;
  const double t4 = static_cast<double>(static_cast<std::int64_t>(r46 * t3));
  *x = t3 - t46 * t4;
  return r46 * (*x);
}

TEST(NasRandom, IntegerStepMatchesDoubleSplit) {
  constexpr std::uint64_t kMask46 = (std::uint64_t{1} << 46) - 1;
  std::mt19937_64 rng(46);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto a = static_cast<double>(rng() & kMask46);
    double xi = static_cast<double>(rng() & kMask46);
    double xs = xi;
    const double ri = randlc(&xi, a);
    const double rs = randlc_split(&xs, a);
    ASSERT_EQ(ri, rs) << "pair " << i << ", a = " << a;
    ASSERT_EQ(xi, xs) << "pair " << i << ", a = " << a;
  }
  // The default stream every kernel draws from.
  double xi = 314159265.0;
  double xs = xi;
  for (int i = 0; i < 1'000'000; ++i) {
    const double ri = randlc(&xi, kDefaultA);
    const double rs = randlc_split(&xs, kDefaultA);
    ASSERT_EQ(ri, rs) << "step " << i;
    ASSERT_EQ(xi, xs) << "step " << i;
  }
  // The seed advance equals stepping the oracle one by one.
  for (const std::int64_t exp :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, std::int64_t{3},
        std::int64_t{1000}, (std::int64_t{1} << 20) + 7}) {
    double stepped = 271828183.0;
    for (std::int64_t i = 0; i < exp; ++i) {
      (void)randlc_split(&stepped, kDefaultA);
    }
    EXPECT_EQ(advance_seed(271828183.0, kDefaultA, exp), stepped)
        << "exp = " << exp;
  }
}

// The line solvers as the kernels ran them before the pivots were factored
// out and the y sweeps batched: one strided line at a time, every line
// recomputing the same pivots.  Oracles for the solvers in nas/pencil.hpp.
void thomas_scalar_per_line(double a, int n, double* d, int stride) {
  std::vector<double> c(static_cast<std::size_t>(n));
  const auto s = static_cast<std::size_t>(stride);
  const double b = 1.0 + 2.0 * a;
  c[0] = -a / b;
  d[0] /= b;
  for (std::size_t i = 1; i < c.size(); ++i) {
    const double m = 1.0 / (b + a * c[i - 1]);
    c[i] = -a * m;
    d[i * s] = (d[i * s] + a * d[(i - 1) * s]) * m;
  }
  for (int i = n - 2; i >= 0; --i) {
    const auto k = static_cast<std::size_t>(i);
    d[k * s] -= c[k] * d[(k + 1) * s];
  }
}

void thomas_block_per_line(const M3& diag, const M3& off, int n, double* d,
                           int stride) {
  std::vector<M3> cp(static_cast<std::size_t>(n));
  auto vec_at = [&](int i) {
    return d + static_cast<std::size_t>(i) * static_cast<std::size_t>(stride) *
                   3;
  };
  auto store = [](double* p, const V3& r) {
    p[0] = r[0];
    p[1] = r[1];
    p[2] = r[2];
  };
  M3 inv = mat_inv(diag);
  cp[0] = mat_mul(inv, off);
  store(vec_at(0),
        mat_vec(inv, V3{vec_at(0)[0], vec_at(0)[1], vec_at(0)[2]}));
  for (int i = 1; i < n; ++i) {
    const auto k = static_cast<std::size_t>(i);
    inv = mat_inv(mat_sub(diag, mat_mul(off, cp[k - 1])));
    cp[k] = mat_mul(inv, off);
    const V3 prev{vec_at(i - 1)[0], vec_at(i - 1)[1], vec_at(i - 1)[2]};
    const V3 cur{vec_at(i)[0], vec_at(i)[1], vec_at(i)[2]};
    const V3 carry = mat_vec(off, prev);
    store(vec_at(i), mat_vec(inv, V3{cur[0] + carry[0], cur[1] + carry[1],
                                     cur[2] + carry[2]}));
  }
  for (int i = n - 2; i >= 0; --i) {
    const V3 next{vec_at(i + 1)[0], vec_at(i + 1)[1], vec_at(i + 1)[2]};
    const V3 corr = mat_vec(cp[static_cast<std::size_t>(i)], next);
    vec_at(i)[0] -= corr[0];
    vec_at(i)[1] -= corr[1];
    vec_at(i)[2] -= corr[2];
  }
}

std::vector<double> random_values(std::size_t count, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(count);
  for (double& x : v) x = dist(rng);
  return v;
}

// The solvers take `lanes` interleaved lines at once (lanes = 1 is one
// contiguous line; a z-plane's y lines are its x lanes).  Each of them must
// get exactly the bits of a single-line solve at stride `lanes`, for every
// lane count a plane can have and then some.
TEST(NasSolvers, FactoredScalarSolveMatchesPerLine) {
  for (const double a : {0.5, 0.37}) {
    for (const int n : {2, 3, 12, 16, 32, 48}) {
      const ScalarFactors f = factor_scalar(a, n);
      for (int lanes = 1; lanes <= 64; ++lanes) {
        std::vector<double> got = random_values(
            static_cast<std::size_t>(n) * lanes, 7u * n + lanes);
        std::vector<double> want = got;
        thomas_scalar(f, got.data(), lanes);
        for (int l = 0; l < lanes; ++l) {
          thomas_scalar_per_line(a, n, &want[static_cast<std::size_t>(l)],
                                 lanes);
        }
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "a = " << a << ", n = " << n << ", lanes = " << lanes;
      }
    }
  }
}

TEST(NasSolvers, FactoredBlockSolveMatchesPerLine) {
  // BT's blocks: diag = I + 2aC, off = aC for the SPD coupling C.
  const M3 coupling{2.0, 0.3, 0.1, 0.3, 2.0, 0.3, 0.1, 0.3, 2.0};
  for (const double a : {0.4, 0.23}) {
    M3 diag{};
    M3 off{};
    for (std::size_t k = 0; k < 9; ++k) {
      off[k] = a * coupling[k];
      diag[k] = 2.0 * off[k];
    }
    diag[0] += 1.0;
    diag[4] += 1.0;
    diag[8] += 1.0;
    for (const int n : {2, 3, 12, 24, 32, 48}) {
      const BlockFactors f = factor_block(diag, off, n);
      for (int lanes = 1; lanes <= 64; ++lanes) {
        std::vector<double> got = random_values(
            static_cast<std::size_t>(n) * lanes * 3, 11u * n + lanes);
        std::vector<double> want = got;
        thomas_block(f, got.data(), lanes);
        for (int l = 0; l < lanes; ++l) {
          thomas_block_per_line(diag, off, n,
                                &want[static_cast<std::size_t>(l) * 3], lanes);
        }
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "a = " << a << ", n = " << n << ", lanes = " << lanes;
      }
    }
  }
}

// The radix-2 FFT as FT ran it before its twiddles were tabulated: every
// butterfly block rebuilds w by repeated multiplication.
void fft1d_inline_twiddles(std::complex<double>* a, int n, int sign) {
  using Cplx = std::complex<double>;
  for (int i = 1, j = 0; i < n; ++i) {
    int bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (int len = 2; len <= n; len <<= 1) {
    const double ang = sign * 2.0 * M_PI / len;
    const Cplx wl(std::cos(ang), std::sin(ang));
    for (int i = 0; i < n; i += len) {
      Cplx w(1.0, 0.0);
      for (int k = 0; k < len / 2; ++k) {
        const Cplx u = a[i + k];
        const Cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
}

TEST(NasFft, TabulatedTwiddlesMatchInline) {
  std::mt19937 rng(2004);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int n = 1; n <= kMaxFftLen; n <<= 1) {
    for (const int sign : {-1, +1}) {
      std::vector<std::complex<double>> got(static_cast<std::size_t>(n));
      for (auto& c : got) c = {dist(rng), dist(rng)};
      std::vector<std::complex<double>> want = got;
      fft1d(got.data(), n, sign);
      fft1d_inline_twiddles(want.data(), n, sign);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(got[0])),
                0)
          << "n = " << n << ", sign = " << sign;
    }
  }
}

TEST(NasFft, LanesMatchPerLine) {
  // fft1d_lanes over a plane must give every column the bits fft1d gives it
  // gathered into a contiguous line.
  std::mt19937 rng(1024);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int n = 1; n <= kMaxFftLen; n <<= 1) {
    for (int lanes = 1; lanes <= 64; ++lanes) {
      for (const int sign : {-1, +1}) {
        std::vector<std::complex<double>> got(static_cast<std::size_t>(n) *
                                              lanes);
        for (auto& c : got) c = {dist(rng), dist(rng)};
        std::vector<std::complex<double>> want = got;
        fft1d_lanes(got.data(), n, lanes, sign);
        std::vector<std::complex<double>> line(static_cast<std::size_t>(n));
        for (int l = 0; l < lanes; ++l) {
          for (int j = 0; j < n; ++j) {
            line[static_cast<std::size_t>(j)] =
                want[static_cast<std::size_t>(j) * lanes + l];
          }
          fft1d(line.data(), n, sign);
          for (int j = 0; j < n; ++j) {
            want[static_cast<std::size_t>(j) * lanes + l] =
                line[static_cast<std::size_t>(j)];
          }
        }
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(got[0])),
                  0)
            << "n = " << n << ", lanes = " << lanes << ", sign = " << sign;
      }
    }
  }
}

// FT's round-trip error as it was computed before: std::abs at every point.
double max_abs_diff_every_point(const std::complex<double>* a,
                                const std::complex<double>* b,
                                std::size_t n) {
  double err = 0;
  for (std::size_t i = 0; i < n; ++i) {
    err = std::max(err, std::abs(a[i] - b[i]));
  }
  return err;
}

TEST(NasFft, MaxAbsDiffMatchesStdAbs) {
  using C = std::complex<double>;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Differences (b = 0) picked to sit on the skip test's edges: zeros and
  // signed zeros, ties of |d| from different components, neighbours one ulp
  // apart, subnormals, squares that underflow or overflow, both ends of the
  // range where the skip applies, and non-finite values.
  std::vector<C> d = {
      {0, 0},
      {-0.0, 0},
      {3, 4},
      {4, 3},
      {-3, -4},
      {5, 0},
      {0, -5},
      {0.6, 0.8},
      {0.8, 0.6},
      {1, 0},
      {std::nextafter(1.0, 2.0), 0},
      {std::nextafter(1.0, 0.0), 0},
      {0.7071067811865476, 0.7071067811865476},
      {0.7071067811865475, 0.7071067811865476},
      {tiny, 0},
      {tiny, tiny},
      {3 * tiny, 4 * tiny},
      {1e-310, 1e-310},
      {std::numeric_limits<double>::min(), 0},
      {1e-170, 1e-170},
      {1e-200, 0},
      {0x1p-600, 0x1p-600},
      {0x1p-500, 0},
      {std::nextafter(0x1p-500, 0.0), 0},
      {std::nextafter(0x1p-500, 1.0), 0},
      {0x1p-501, 0x1p-501},
      {1e-9, 2e-9},
      {2e-9, 1e-9},
      {0x1p500, 0},
      {std::nextafter(0x1p500, inf), 0},
      {0x1p499, 0x1p499},
      {1e300, 1e300},
      {std::numeric_limits<double>::max(), 0},
      {inf, 0},
      {nan, 0},
      {0, nan},
  };
  const std::vector<C> zeros(d.size());
  std::mt19937 rng(500);
  auto check = [&](const std::vector<C>& a, const std::vector<C>& b,
                   const char* what) {
    const double got = max_abs_diff(a.data(), b.data(), a.size());
    const double want = max_abs_diff_every_point(a.data(), b.data(), a.size());
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << what << ": got " << got << ", want " << want;
  };
  // Each finite case alone, after every other case, and in random orders
  // of the finite cases (inf and NaN would end the comparison early).
  const std::vector<C> finite(d.begin(), d.end() - 3);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = 0; j < d.size(); ++j) {
      check({d[i], d[j]}, {C{}, C{}}, "pair");
    }
  }
  std::vector<C> order = finite;
  std::sort(order.begin(), order.end(),
            [](const C& x, const C& y) { return std::abs(x) < std::abs(y); });
  check(order, std::vector<C>(order.size()), "ascending");
  std::reverse(order.begin(), order.end());
  check(order, std::vector<C>(order.size()), "descending");
  for (int round = 0; round < 200; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    check(order, std::vector<C>(order.size()), "shuffled");
  }
  check(d, zeros, "all");
  // Near-ties of FT's own kind: a field and a copy perturbed by a few ulps,
  // at several scales.
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (const double scale : {1.0, 1e-150, 0x1p-499, 1e150}) {
    std::vector<C> a(4096), b(4096);
    for (std::size_t i = 0; i < a.size(); ++i) {
      b[i] = {scale * dist(rng), scale * dist(rng)};
      a[i] = b[i];
      for (int k = static_cast<int>(rng() % 4); k > 0; --k) {
        a[i] = {std::nextafter(a[i].real(), 2 * scale), a[i].imag()};
      }
      if (rng() % 2) a[i] = {a[i].real(), std::nextafter(a[i].imag(), 0.0)};
    }
    check(a, b, "perturbed");
  }
}

// EP's slice as it ran before the pairs were drawn in blocks: one pair at a
// time, the annulus counts kept as doubles.
EpTally ep_slice_per_pair(std::int64_t first, std::int64_t count) {
  EpTally t;
  double x = advance_seed(271828183.0, kDefaultA, 2 * first);
  for (std::int64_t i = 0; i < count; ++i) {
    const double u1 = 2.0 * randlc(&x, kDefaultA) - 1.0;
    const double u2 = 2.0 * randlc(&x, kDefaultA) - 1.0;
    const double s = u1 * u1 + u2 * u2;
    if (s > 1.0 || s == 0.0) continue;
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    const double gx = u1 * f;
    const double gy = u2 * f;
    t.sx += gx;
    t.sy += gy;
    const double m = std::max(std::fabs(gx), std::fabs(gy));
    const auto bin = static_cast<std::size_t>(m);
    if (bin < t.q.size()) t.q[bin] += 1.0;
  }
  return t;
}

TEST(NasEp, BlockedSliceMatchesPerPair) {
  // Counts around the block size, and offsets that start mid-block and on
  // an odd pair.
  for (const std::int64_t count :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{1023},
        std::int64_t{1024}, std::int64_t{1025}, std::int64_t{1} << 18}) {
    for (const std::int64_t first :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{777},
          (std::int64_t{1} << 20) + 5}) {
      const EpTally got = ep_slice(first, count);
      const EpTally want = ep_slice_per_pair(first, count);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "first = " << first << ", count = " << count;
    }
  }
}

TEST(NasEp, ClassSTallyPinned) {
  // The whole class S stream (2^18 pairs), every bit: the sums and all ten
  // annulus counts.
  const EpTally t = ep_slice(0, std::int64_t{1} << 18);
  EXPECT_EQ(t.sx, 0x1.76a3c988d5097p+7);
  EXPECT_EQ(t.sy, -0x1.7bbda7456b055p+8);
  const std::array<double, 10> q = {0x1.77c8p+16, 0x1.645ep+16, 0x1.08d8p+14,
                                    0x1.08p+10,   0x1.6p+4,     0,
                                    0,            0,            0,
                                    0};
  for (std::size_t b = 0; b < q.size(); ++b) {
    EXPECT_EQ(t.q[b], q[b]) << "annulus " << b;
  }
}

TEST(NasIs, MultiplyShiftOwnerMatchesDivision) {
  for (const Class cls : {Class::S, Class::W, Class::A, Class::B}) {
    const int max_key = is_config(cls).max_key;
    for (int p = 1; p <= 8; ++p) {
      const BucketOwner owner(max_key, p);
      const int keys_per_rank = max_key / p;
      for (int key = 0; key < max_key; ++key) {
        ASSERT_EQ(owner(key), std::min(key / keys_per_rank, p - 1))
            << "max_key = " << max_key << ", p = " << p << ", key = " << key;
      }
    }
  }
}

struct KernelParam {
  const char* name;
  int nprocs;
};

// Without this gtest prints the raw bytes of the param, and `name` is a
// pointer whose value moves with ASLR: the listed test names would change
// from one build to the next.
void PrintTo(const KernelParam& p, std::ostream* os) {
  *os << p.name << " on " << p.nprocs << " ranks";
}

class KernelTest : public ::testing::TestWithParam<KernelParam> {};

INSTANTIATE_TEST_SUITE_P(
    ClassS, KernelTest,
    ::testing::Values(KernelParam{"ep", 4}, KernelParam{"is", 4},
                      KernelParam{"cg", 4}, KernelParam{"mg", 4},
                      KernelParam{"ft", 4}, KernelParam{"lu", 4},
                      KernelParam{"sp", 4}, KernelParam{"bt", 4},
                      KernelParam{"ep", 2}, KernelParam{"is", 2},
                      KernelParam{"cg", 2}, KernelParam{"mg", 2},
                      KernelParam{"ft", 2}, KernelParam{"lu", 2},
                      KernelParam{"sp", 2}, KernelParam{"bt", 2}),
    [](const auto& info) {
      return std::string(info.param.name) + "_p" +
             std::to_string(info.param.nprocs);
    });

TEST_P(KernelTest, VerifiesOnZeroCopyStack) {
  const Result r = run_kernel(
      GetParam().name, GetParam().nprocs, Class::S,
      stack_cfg(ch3::Stack::kRdmaChannel, rdmach::Design::kZeroCopy));
  EXPECT_TRUE(r.verified) << r.name << ": " << r.detail;
  EXPECT_GT(r.time_sec, 0.0);
  EXPECT_GT(r.mops, 0.0);
}

TEST(NasClass, NamesAreTheNpbLetters) {
  // bench/nas_fault labels its rows "<class>/<kernel>" with these.
  EXPECT_STREQ(to_string(Class::S), "S");
  EXPECT_STREQ(to_string(Class::W), "W");
  EXPECT_STREQ(to_string(Class::A), "A");
  EXPECT_STREQ(to_string(Class::B), "B");
}

TEST(NasStacks, AllThreePaperDesignsVerifyOnClassS) {
  const std::pair<ch3::Stack, rdmach::Design> stacks[] = {
      {ch3::Stack::kRdmaChannel, rdmach::Design::kPipeline},
      {ch3::Stack::kRdmaChannel, rdmach::Design::kZeroCopy},
      {ch3::Stack::kCh3Direct, rdmach::Design::kPipeline},
  };
  for (const auto& [stack, design] : stacks) {
    for (const auto& [name, fn] : suite()) {
      const Result r =
          run_kernel(name, 4, Class::S, stack_cfg(stack, design));
      EXPECT_TRUE(r.verified)
          << name << " on " << ch3::to_string(stack) << "/"
          << rdmach::to_string(design) << ": " << r.detail;
    }
  }
}

TEST(NasKernels, ClassSResultsUnchanged) {
  // Every kernel's class S result on 4 ranks, captured before the generator
  // became integer arithmetic and the line-solve pivots and FFT twiddles
  // were tabulated.  Those changes are exact, so nothing here may move: not
  // a result digit and not a nanosecond of virtual time.
  struct Pinned {
    const char* name;
    const char* detail;
    double time_sec;
  };
  const Pinned pinned[] = {
      {"ep", "sx=187.319897", 0x1.ba8695ff5113dp-9},
      {"is", "keys=65536", 0x1.84aa222777e9p-9},
      {"cg", "r/r0=0.000000", 0x1.881e9ecb50f5p-9},
      {"mg", "r/r0=0.005674", 0x1.58a02989bf0edp-8},
      {"ft", "checksum=(16440.146777,17063.269553)", 0x1.cc1edd844f25ep-9},
      {"lu", "r/r0=0.000000", 0x1.85798b384e648p-9},
      {"sp", "|u|/|u0|=0.528487", 0x1.bbea0242d24bcp-10},
      {"bt", "|u|/|u0|=0.000000", 0x1.e2c77403878b5p-9},
  };
  for (const Pinned& p : pinned) {
    const Result r = run_kernel(
        p.name, 4, Class::S,
        stack_cfg(ch3::Stack::kRdmaChannel, rdmach::Design::kZeroCopy));
    EXPECT_TRUE(r.verified) << p.name << ": " << r.detail;
    EXPECT_EQ(r.detail, p.detail) << p.name;
    EXPECT_EQ(r.time_sec, p.time_sec) << p.name;
  }
}

TEST(NasKernels, ClassSVirtualTimeWithoutRegCache) {
  // Every kernel's class S virtual time on 4 ranks with the registration
  // cache off.  RegCache hits follow malloc's address reuse, so with the
  // cache on virtual time can move with heap layout alone.  With it off,
  // a change that only makes the host faster must leave every one of these
  // bits alone.
  struct Pinned {
    const char* name;
    double time_sec;
  };
  const Pinned pinned[] = {
      {"ep", 0x1.ba8695ff5113dp-9}, {"is", 0x1.84aa222777e9p-9},
      {"cg", 0x1.881e9ecb50f5p-9},  {"mg", 0x1.58a02989bf0edp-8},
      {"ft", 0x1.f8a05a8b2c8acp-9}, {"lu", 0x1.85798b384e648p-9},
      {"sp", 0x1.bbea0242d24bcp-10}, {"bt", 0x1.e2c77403878b5p-9},
  };
  mpi::RuntimeConfig cfg =
      stack_cfg(ch3::Stack::kRdmaChannel, rdmach::Design::kZeroCopy);
  cfg.stack.channel.use_reg_cache = false;
  for (const Pinned& p : pinned) {
    const Result r = run_kernel(p.name, 4, Class::S, cfg);
    EXPECT_TRUE(r.verified) << p.name << ": " << r.detail;
    EXPECT_EQ(r.time_sec, p.time_sec) << p.name;
  }
}

TEST(NasDeterminism, ResultIndependentOfProcessCountForEp) {
  // EP's tallies must be identical for any decomposition (exact stream
  // splitting); the Result.detail carries sx.
  const Result r2 = run_kernel(
      "ep", 2, Class::S,
      stack_cfg(ch3::Stack::kRdmaChannel, rdmach::Design::kZeroCopy));
  const Result r4 = run_kernel(
      "ep", 4, Class::S,
      stack_cfg(ch3::Stack::kRdmaChannel, rdmach::Design::kZeroCopy));
  EXPECT_EQ(r2.detail, r4.detail);
}

}  // namespace
}  // namespace nas
