// NAS kernel tests: every kernel must self-verify on class S over several
// process counts and over the three stacks the paper compares in Figures
// 16/17 (pipelining, RDMA-channel zero-copy, CH3 zero-copy), plus basic
// sanity of the NAS random-number generator.
#include <gtest/gtest.h>

#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "nas/nas.hpp"
#include "nas/nas_random.hpp"
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
