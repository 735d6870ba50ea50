// NAS-under-fault suite (`nasfault` ctest label): phased fault campaigns
// on real kernels, the recovery watchdog's no-wedge guarantee, and the
// bounded-cost contract.
//
// Three layers:
//   * Watchdog: a recovery episode that can never complete (every rail of
//     both nodes dead mid-replay, attempt budget effectively infinite)
//     must surface ChannelError::kDead with a diagnostic RecoverySnapshot
//     within the virtual-time deadline, on every channel design -- never a
//     hang.  Before the watchdog this scenario spun in the retry loop
//     until the harness deadline.
//   * Standard mix on real kernels: IS and CG class A on 4 nodes complete
//     with numerically verified results under the combined seeded mix, and
//     the Mop/s loss against a clean run stays within the 25% bound
//     (bench/nas_fault.cpp reports the full table).
//   * Campaign soak: 60 seeded random campaigns (class S IS, rotating over
//     all six designs and all four mixes) each end in a verified result or
//     a clean per-rank transport error -- no schedule may wedge a run.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "campaign_util.hpp"
#include "channel_test_util.hpp"
#include "ib/fabric.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/channel.hpp"
#include "sim/campaign.hpp"
#include "sim/simulator.hpp"

namespace {

using rdmach::testutil::FaultPlan;
using rdmach::testutil::Traffic;

constexpr sim::Tick kDeadline = sim::usec(5'000'000);  // 5 virtual seconds

// ---------------------------------------------------------------------------
// Watchdog: stuck recovery surfaces kDead + snapshot, bounded in time
// ---------------------------------------------------------------------------

struct WatchdogRun {
  bool send_done = false, recv_done = false;
  bool send_error = false, recv_error = false;
  rdmach::ChannelError::Kind send_kind = rdmach::ChannelError::kDead;
  rdmach::ChannelError::Kind recv_kind = rdmach::ChannelError::kDead;
  bool send_snapshot = false, recv_snapshot = false;
  rdmach::RecoverySnapshot first_snapshot;
  sim::Tick first_error_time = 0;
  std::uint64_t watchdog_trips = 0;
};

/// Streams `traffic` rank0 -> rank1 under `plan`; same deadline-bounded
/// shape as the chaos harness, plus snapshot and error-time capture.
WatchdogRun run_watchdog(rdmach::Design design, const Traffic& traffic,
                         FaultPlan& plan, rdmach::ChannelConfig cfg) {
  WatchdogRun rr;
  sim::Simulator sim;
  ib::Fabric fabric{sim};
  fabric.attach_faults(&plan.schedule);
  pmi::Job job{fabric, 2};
  cfg.design = design;
  std::unique_ptr<rdmach::Channel> ch[2];
  std::vector<std::byte> received(traffic.total());

  auto note_error = [&](const rdmach::ChannelError& e, bool sender) {
    (sender ? rr.send_error : rr.recv_error) = true;
    (sender ? rr.send_kind : rr.recv_kind) = e.kind();
    (sender ? rr.send_snapshot : rr.recv_snapshot) = e.has_snapshot();
    if (rr.first_error_time == 0) {
      rr.first_error_time = sim.now();
      if (e.has_snapshot()) rr.first_snapshot = e.snapshot();
    }
  };

  job.launch([&](pmi::Context& ctx) -> sim::Task<void> {
    ch[ctx.rank] = rdmach::Channel::create(ctx, cfg);
    rdmach::Channel& c = *ch[ctx.rank];
    co_await c.init();
    rdmach::Connection& conn = c.connection(1 - ctx.rank);
    if (ctx.rank == 0) {
      try {
        std::size_t off = 0;
        for (const std::size_t sz : traffic.sizes) {
          co_await rdmach::testutil::send_all(c, conn,
                                              traffic.bytes.data() + off, sz);
          off += sz;
        }
        std::byte token{};
        co_await rdmach::testutil::recv_all(c, conn, &token, 1);
        rr.send_done = true;
      } catch (const rdmach::ChannelError& e) {
        note_error(e, /*sender=*/true);
      }
    } else {
      try {
        co_await rdmach::testutil::recv_all(c, conn, received.data(),
                                            received.size());
        const std::byte token{0x1};
        co_await rdmach::testutil::send_all(c, conn, &token, 1);
        rr.recv_done = true;
      } catch (const rdmach::ChannelError& e) {
        note_error(e, /*sender=*/false);
      }
    }
  });
  sim.run_until(kDeadline);
  for (int r = 0; r < 2; ++r) {
    if (ch[r] != nullptr) rr.watchdog_trips += ch[r]->stats().watchdog_trips;
  }
  return rr;
}

class NasFaultDesignTest : public ::testing::TestWithParam<rdmach::Design> {};

INSTANTIATE_TEST_SUITE_P(AllRdmaDesigns, NasFaultDesignTest,
                         ::testing::Values(rdmach::Design::kBasic,
                                           rdmach::Design::kPiggyback,
                                           rdmach::Design::kPipeline,
                                           rdmach::Design::kZeroCopy,
                                           rdmach::Design::kMultiMethod,
                                           rdmach::Design::kAdaptive),
                         [](const auto& info) {
                           std::string n = rdmach::to_string(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(NasFaultDesignTest, StuckRecoverySurfacesDeadWithSnapshot) {
  // Both nodes lose their only rail mid-stream: every replay and re-issued
  // WQE dies, so no recovery epoch can ever complete.  The attempt budget
  // is effectively infinite -- before the watchdog this spun in the
  // backoff loop for the whole 5 virtual seconds.  The watchdog must
  // convert the stuck episode into kDead with a diagnostic snapshot within
  // its epoch deadline, and no rank may still be running at the harness
  // deadline.
  const Traffic traffic = Traffic::make(/*seed=*/400, /*messages=*/30,
                                        /*min_len=*/200, /*max_len=*/2000);
  FaultPlan plan;
  plan.rail_down(0, 0, /*from=*/6).rail_down(1, 0, /*from=*/6);
  rdmach::ChannelConfig cfg;
  cfg.recovery_max_attempts = 1'000'000;
  cfg.recovery_epoch_deadline = sim::usec(3'000);
  WatchdogRun rr = run_watchdog(GetParam(), traffic, plan, cfg);

  // No wedge: every rank either finished or failed clean.
  EXPECT_TRUE(rr.send_done || rr.send_error);
  EXPECT_TRUE(rr.recv_done || rr.recv_error);
  ASSERT_TRUE(rr.send_error || rr.recv_error);
  EXPECT_GE(rr.watchdog_trips, 1u);
  // The first failure carries the episode diagnostics.
  ASSERT_TRUE(rr.send_error ? rr.send_snapshot : rr.recv_snapshot);
  if (rr.send_error) {
    EXPECT_EQ(rr.send_kind, rdmach::ChannelError::kDead);
  }
  if (rr.recv_error) {
    EXPECT_EQ(rr.recv_kind, rdmach::ChannelError::kDead);
  }
  EXPECT_EQ(rr.first_snapshot.stage.rfind("watchdog:", 0), 0u)
      << rr.first_snapshot.to_string();
  EXPECT_EQ(rr.first_snapshot.live_rails, 0);
  EXPECT_GE(rr.first_snapshot.total_rails, 1);
  // Bounded: the trip lands within a small multiple of the epoch deadline,
  // not at the harness deadline.
  EXPECT_GT(rr.first_error_time, 0);
  EXPECT_LT(rr.first_error_time, sim::usec(1'000'000));
}

TEST(NasFaultWatchdog, BudgetExhaustionCarriesSnapshotWhenDisabled) {
  // recovery_epoch_deadline = 0 disables the watchdog; the classic attempt
  // budget still bounds the episode and its error now carries the same
  // diagnostic snapshot, tagged with the retry-budget stage.
  const Traffic traffic = Traffic::make(/*seed=*/401, /*messages=*/20,
                                        /*min_len=*/100, /*max_len=*/1000);
  FaultPlan plan;
  plan.kill_from(0, /*from=*/6);
  rdmach::ChannelConfig cfg;
  cfg.recovery_max_attempts = 3;
  cfg.recovery_epoch_deadline = 0;
  WatchdogRun rr =
      run_watchdog(rdmach::Design::kPiggyback, traffic, plan, cfg);
  ASSERT_TRUE(rr.send_error);
  EXPECT_EQ(rr.send_kind, rdmach::ChannelError::kDead);
  ASSERT_TRUE(rr.send_snapshot);
  EXPECT_EQ(rr.first_snapshot.stage, "retry-budget");
  EXPECT_EQ(rr.watchdog_trips, 0u);
}

// ---------------------------------------------------------------------------
// Standard mix on real kernels: verified results, bounded cost
// ---------------------------------------------------------------------------

void expect_bounded(const std::string& kernel) {
  const mpi::RuntimeConfig cfg =
      benchutil::campaign_config(rdmach::Design::kZeroCopy);
  const ib::FabricConfig fabric = benchutil::two_rail_fabric();
  const benchutil::CampaignOutcome clean =
      benchutil::run_nas_campaign(kernel, 4, nas::Class::A, cfg, nullptr,
                                  fabric);
  ASSERT_TRUE(clean.completed);
  ASSERT_TRUE(clean.result.verified);

  sim::FaultCampaign campaign(/*seed=*/2026);
  benchutil::mix_combined(campaign, benchutil::phase_of(kernel), 4);
  const benchutil::CampaignOutcome r = benchutil::run_nas_campaign(
      kernel, 4, nas::Class::A, cfg, &campaign, fabric);
  EXPECT_FALSE(r.wedged);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.errors, 0);
  ASSERT_TRUE(r.result.verified) << r.result.detail;
  EXPECT_GE(r.faults_armed, 1u);
  EXPECT_GE(r.stats.recoveries, 1u);  // the mix actually bit
  const double loss = 100.0 * (1.0 - r.result.mops / clean.result.mops);
  EXPECT_LE(loss, 25.0) << "clean " << clean.result.mops << " Mop/s, faulted "
                        << r.result.mops << " Mop/s";
}

TEST(NasFaultCampaign, IsClassAStandardMixVerifiedAndBounded) {
  expect_bounded("is");
}

TEST(NasFaultCampaign, CgClassAStandardMixVerifiedAndBounded) {
  expect_bounded("cg");
}

// ---------------------------------------------------------------------------
// Randomized campaign soak: never wedged, never silently wrong
// ---------------------------------------------------------------------------

TEST(NasFaultCampaign, SeededCampaignSoakTerminatesCleanOnEveryDesign) {
  const rdmach::Design designs[] = {
      rdmach::Design::kBasic,     rdmach::Design::kPiggyback,
      rdmach::Design::kPipeline,  rdmach::Design::kZeroCopy,
      rdmach::Design::kMultiMethod, rdmach::Design::kAdaptive,
  };
  const auto& mixes = benchutil::standard_mixes();
  const ib::FabricConfig fabric = benchutil::two_rail_fabric();
  // Wall-clock budget: the soak normally takes a couple of seconds, but a
  // pathological schedule (or a sanitizer build on a loaded machine) must
  // not turn it into the suite's long pole.  Seeds are visited in order, so
  // a capped run still covers a deterministic prefix.
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr auto kWallBudget = std::chrono::seconds(120);
  std::uint64_t ran = 0;
  int completed_verified = 0, clean_errors = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    if (std::chrono::steady_clock::now() - wall_start > kWallBudget) break;
    ++ran;
    const rdmach::Design design = designs[seed % 6];
    const mpi::RuntimeConfig cfg = benchutil::campaign_config(design);
    sim::FaultCampaign campaign(seed);
    mixes[seed % mixes.size()].second(campaign, "is.iter", 4);
    // One extra seed-jittered kill so no two campaigns hit alike.
    campaign.at_phase("is.iter")
        .times(2)
        .jitter(32)
        .kill(static_cast<int>(seed % 4));
    const benchutil::CampaignOutcome r = benchutil::run_nas_campaign(
        "is", 4, nas::Class::S, cfg, &campaign, fabric,
        /*deadline=*/sim::usec(30'000'000));
    ASSERT_FALSE(r.wedged) << "seed " << seed << " design "
                           << rdmach::to_string(design);
    ASSERT_TRUE(r.completed) << "seed " << seed;
    if (r.errors == 0) {
      EXPECT_TRUE(r.result.verified)
          << "seed " << seed << ": completed but wrong answer";
      ++completed_verified;
    } else {
      ASSERT_FALSE(r.error_whats.empty());
      ++clean_errors;
    }
  }
  // The soak is useful only if most campaigns actually complete, and the
  // wall-clock cap may only trim the tail, never gut the suite.
  EXPECT_EQ(completed_verified + clean_errors, static_cast<int>(ran));
  EXPECT_GE(ran, 12u) << "wall-clock cap cut the soak below usefulness";
  EXPECT_GE(completed_verified, static_cast<int>(ran * 2 / 3));
}

}  // namespace
