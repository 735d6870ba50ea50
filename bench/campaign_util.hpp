// NAS-under-fault campaign harness.
//
// Runs one NAS kernel on an MPI job while a sim::FaultCampaign keys faults
// to the kernel's own progress events (nas::notify_phase -> campaign
// on_phase), then reports what a fault mix actually cost: the kernel's
// Result (verified + Mop/s), the summed per-rank ChannelStats *for the
// workload alone* (counters are reset right after init, so bootstrap
// traffic never pollutes the deltas), and how the run ended -- completed,
// clean ChannelError/VcError per rank, or wedged at the virtual deadline
// (which the recovery watchdog is there to make impossible).
//
// Shared between bench/nas_fault.cpp (the Mop/s-vs-clean cost tables in
// BENCH_nasfault.json) and tests/nas_fault_test.cpp (bounded-cost checks,
// watchdog guarantees, randomized campaign soak).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ch3/ch3.hpp"
#include "sim/campaign.hpp"

namespace benchutil {

struct CampaignOutcome {
  nas::Result result;      // rank 0's Result (meaningful when completed)
  bool completed = false;  // every rank finished its kernel or failed clean
  bool wedged = false;     // virtual deadline hit with a rank still stuck
  int errors = 0;          // ranks that surfaced a transport error
  std::vector<std::string> error_whats;  // their messages (snapshot texts)
  rdmach::ChannelStats stats;            // all ranks, workload-only deltas
  std::uint64_t faults_armed = 0;        // campaign rules -> schedule
  std::uint64_t faults_delivered = 0;    // kills the fabric actually dealt
  int phase_events = 0;                  // rank-0 progress events observed
};

/// Phase key each kernel announces from its main loop (src/nas/*.cpp).
inline std::string phase_of(const std::string& kernel) {
  if (kernel == "is") return "is.iter";
  if (kernel == "cg") return "cg.iter";
  if (kernel == "ft") return "ft.pass";
  if (kernel == "bt") return "bt.sweep";
  if (kernel == "mg") return "mg.cycle";
  if (kernel == "lu") return "lu.ssor";
  if (kernel == "sp") return "sp.sweep";
  if (kernel == "ep") return "ep.tally";
  return kernel + ".iter";
}

/// Runs `kernel` on `nprocs` ranks under `campaign` (nullptr: clean run).
/// Rank 0's phase events drive the campaign; faults armed by its rules are
/// injected through the fabric's schedule.  The job is bounded by
/// `deadline` virtual time -- a run that neither completes nor errors by
/// then comes back wedged, which no fault schedule may cause.
inline CampaignOutcome run_nas_campaign(
    const std::string& kernel, int nprocs, nas::Class cls,
    const mpi::RuntimeConfig& cfg, sim::FaultCampaign* campaign,
    const ib::FabricConfig& fcfg = {},
    sim::Tick deadline = sim::usec(120'000'000)) {
  CampaignOutcome out;
  sim::Simulator sim;
  ib::Fabric fabric(sim, fcfg);
  if (campaign != nullptr) fabric.attach_faults(&campaign->schedule());
  pmi::Job job(fabric, nprocs);

  // The hook fires once per rank per loop turn; the campaign wants one
  // event per logical iteration, so only rank 0's announcements count.
  nas::ScopedPhaseHook hook([&](const nas::PhaseEvent& e) {
    if (e.rank != 0) return;
    ++out.phase_events;
    if (campaign != nullptr) campaign->on_phase(e.phase);
  });

  std::vector<int> done(static_cast<std::size_t>(nprocs), 0);
  std::vector<rdmach::ChannelStats> stats(static_cast<std::size_t>(nprocs));
  job.launch([&, kernel, cls](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    // Workload-only counters: drop everything bootstrap charged.
    rt.engine().channel().reset_channel_stats();
    const std::size_t me = static_cast<std::size_t>(ctx.rank);
    bool failed = false;
    std::string what;
    try {
      nas::Result r = co_await nas::kernel(kernel)(rt.world(), ctx, cls);
      stats[me] = rt.engine().channel().channel_stats();
      done[me] = 1;
      if (ctx.rank == 0) out.result = r;
    } catch (const rdmach::ChannelError& e) {
      failed = true;
      what = e.to_string();  // kind + peer + recovery snapshot, not just the message
    } catch (const ch3::VcError& e) {
      failed = true;
      what = e.what();
    }
    if (failed) {
      stats[me] = rt.engine().channel().channel_stats();
      done[me] = 1;
      ++out.errors;
      out.error_whats.push_back(std::move(what));
      co_return;  // finalize would barrier against a fenced-off peer
    }
    co_await rt.finalize();
  });
  sim.run_until(deadline);

  out.completed = true;
  for (const int d : done) out.completed = out.completed && d != 0;
  out.wedged = !out.completed;
  for (const rdmach::ChannelStats& t : stats) out.stats += t;
  if (campaign != nullptr) {
    out.faults_armed = campaign->armed();
    out.faults_delivered = campaign->schedule().killed();
  }
  return out;
}

// ---- seeded standard mixes --------------------------------------------------
// Each installs rules into a fresh campaign.  Intensity is phrased per
// phase occurrence so the same mix scales from IS's 10 iterations to CG's
// 25; jitter scatters the hit points across each iteration's traffic so a
// seed sweep exercises different operations, reproducibly.

/// Kill-only: every iteration past the first, one rank's QP takes a fatal
/// WQE error (rotating over ranks); recovery must replay and rejoin.  Each
/// rule is capped with times() so total campaign intensity is bounded --
/// LU's 60 wavefront iterations get the same fault count as IS's 10, and
/// the Mop/s-loss bound measures recovery cost, not kernel length.
inline void mix_kill(sim::FaultCampaign& c, const std::string& phase,
                     int nprocs) {
  for (int r = 0; r < nprocs; ++r) {
    c.at_phase(phase)
        .from(1 + r)
        .repeat_every(nprocs)
        .times(4)
        .jitter(16)
        .kill(r);
  }
}

/// Corrupt + exhaust: silent payload corruption (caught by the end-to-end
/// CRC; requires integrity_check on) plus registration / CQ / credit
/// denial, staggered over ranks.
inline void mix_corrupt_exhaust(sim::FaultCampaign& c,
                                const std::string& phase, int nprocs) {
  for (int r = 0; r < nprocs; ++r) {
    c.at_phase(phase)
        .from(1 + r)
        .repeat_every(2 * nprocs)
        .times(4)
        .jitter(24)
        .corrupt(r);
    c.at_phase(phase)
        .from(2 + r)
        .repeat_every(3 * nprocs)
        .times(3)
        .jitter(8)
        .exhaust_reg(r, 1)
        .exhaust_cq(r, 2)
        .exhaust_credit(r, 2);
  }
}

/// Rail-down: on a >= 2-rail fabric, two ranks each lose one (different)
/// port for good early in the run; striping must fail over to the
/// surviving rail.  Every node keeps at least one live rail.
inline void mix_raildown(sim::FaultCampaign& c, const std::string& phase,
                         int nprocs) {
  c.at_phase(phase).from(1).once().rail_down(0, 1);
  if (nprocs > 1) c.at_phase(phase).from(2).once().rail_down(1, 0);
}

/// Combined (the standard mix): kills, corruption, exhaustion, and one
/// rail loss in the same run, each at half the single-mix rate.
inline void mix_combined(sim::FaultCampaign& c, const std::string& phase,
                         int nprocs) {
  for (int r = 0; r < nprocs; ++r) {
    c.at_phase(phase)
        .from(1 + r)
        .repeat_every(2 * nprocs)
        .times(3)
        .jitter(16)
        .kill(r);
    c.at_phase(phase)
        .from(2 + r)
        .repeat_every(3 * nprocs)
        .times(3)
        .jitter(24)
        .corrupt(r);
    c.at_phase(phase)
        .from(3 + r)
        .repeat_every(4 * nprocs)
        .times(2)
        .jitter(8)
        .exhaust_reg(r, 1)
        .exhaust_credit(r, 1);
  }
  c.at_phase(phase).from(1).once().rail_down(0, 1);
}

/// Degrade-only (gray failures): no rank ever dies.  Each node's
/// *secondary* rail turns gray for a window -- 10x latency and a tenth of
/// the bandwidth -- then heals; rank 0's rail 1 also flickers with a
/// duty-cycled flaky window.  Rail 1 is the classic gray-failure spot:
/// the main QP (eager ring + control slots) lives on rail 0, so a sick
/// secondary only drags the rendezvous stripes that land on it -- exactly
/// the traffic the suspicion detector samples and quarantine can steer
/// away.  The acceptance bar is zero kDead convictions and zero
/// ChannelErrors: everything must flow through suspicion + quarantine,
/// never the kill path.  Windows are op-indexed, so they are sized to
/// expire mid-run: once a rail is quarantined only probe traffic advances
/// its op counter, and an oversized window would self-sustain -- the probe
/// keeps measuring the degrade it is trying to outlive.
inline void mix_degrade(sim::FaultCampaign& c, const std::string& phase,
                        int nprocs) {
  sim::FaultSchedule::DegradeSpec gray;
  gray.latency_mult = 10.0;
  gray.bandwidth_mult = 0.1;
  for (int r = 0; r < nprocs; ++r) {
    c.at_phase(phase)
        .from(1 + r)
        .repeat_every(2 * nprocs)
        .times(2)
        .jitter(16)
        .degrade_rail(r, 1, gray, 60);
  }
  sim::FaultSchedule::DegradeSpec flicker;
  flicker.latency_add = 40'000;  // +40us on every covered op
  c.at_phase(phase).from(2).once().flaky_rail(0, 1, flicker, 8, 3, 120);
}

/// Degrade + kill: the gray mix above at half intensity, plus one real
/// fatal kill per surviving rank -- the detector must keep degraded (but
/// alive) rails out of the kDead path while still convicting the peers
/// that genuinely die.
inline void mix_degrade_kill(sim::FaultCampaign& c, const std::string& phase,
                             int nprocs) {
  sim::FaultSchedule::DegradeSpec gray;
  gray.latency_mult = 10.0;
  gray.bandwidth_mult = 0.1;
  for (int r = 0; r < nprocs; ++r) {
    c.at_phase(phase)
        .from(1 + r)
        .repeat_every(3 * nprocs)
        .times(2)
        .jitter(16)
        .degrade_rail(r, 1, gray, 60);
    c.at_phase(phase)
        .from(2 + r)
        .repeat_every(2 * nprocs)
        .times(2)
        .jitter(16)
        .kill(r);
  }
}

using MixFn = std::function<void(sim::FaultCampaign&, const std::string&,
                                 int)>;

/// The four seeded mixes of the NAS-under-fault evaluation, in table order.
inline const std::vector<std::pair<std::string, MixFn>>& standard_mixes() {
  static const std::vector<std::pair<std::string, MixFn>> mixes = {
      {"kill", mix_kill},
      {"corrupt+exhaust", mix_corrupt_exhaust},
      {"raildown", mix_raildown},
      {"combined", mix_combined},
  };
  return mixes;
}

/// Gray-failure mixes (degrade-only and degrade+kill), kept separate from
/// standard_mixes() so the original four-mix tables are byte-stable.
inline const std::vector<std::pair<std::string, MixFn>>& gray_mixes() {
  static const std::vector<std::pair<std::string, MixFn>> mixes = {
      {"degrade", mix_degrade},
      {"degrade+kill", mix_degrade_kill},
  };
  return mixes;
}

/// Fabric for the campaign runs: two rails per node so the rail-down mixes
/// have a failure domain to take away and a survivor to fail over to.
inline ib::FabricConfig two_rail_fabric() {
  ib::FabricConfig f;
  f.ports_per_hca = 2;
  return f;
}

/// Channel configuration for all campaign runs: end-to-end integrity on
/// (corruption mixes are silent without it), same design for clean and
/// faulted runs so Mop/s deltas isolate the fault cost.
inline mpi::RuntimeConfig campaign_config(rdmach::Design design) {
  mpi::RuntimeConfig cfg = design_config(design);
  cfg.stack.channel.integrity_check = true;
  return cfg;
}

}  // namespace benchutil
