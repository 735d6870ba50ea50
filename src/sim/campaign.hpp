// Phased fault campaigns.
//
// A FaultSchedule (fault.hpp) keys faults to per-scope operation counters,
// which is exact but blind to *workload* progress: "kill node1's 40th WQE"
// lands somewhere unknowable inside a NAS kernel, and the interesting
// questions -- does recovery survive a kill in every iteration? what does a
// corruption during the alltoall phase cost? -- need faults armed relative
// to where the kernel currently is.  A FaultCampaign closes that gap: the
// workload reports progress events ("is.iter" occurred, "ft.pass"
// occurred, ...) through on_phase(), and declarative rules built with
// at_phase() arm faults into the underlying schedule *relative to the
// operation counts observed at that moment* -- "at every 3rd IS iteration,
// kill rank 2's next WQE" is
//
//     campaign.at_phase("is.iter").repeat_every(3).kill(2);
//
// Rules are evaluated deterministically (the simulation is single-threaded
// and phase events are totally ordered), and the campaign carries a seeded
// Rng so randomized soaks derive every choice from one reproducible seed.
//
// Scope naming follows the pmi convention: rank R runs on node "nodeR", so
// rank-addressed rules map to the schedule scopes "nodeR" (WQEs),
// "nodeR.reg"/".cq"/".credit" (resources), and "nodeR.railK" (rails).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace sim {

class FaultCampaign {
 public:
  explicit FaultCampaign(std::uint64_t seed = 1) : rng_(seed) {}

  /// One declarative injection rule bound to a phase key.  Builder calls
  /// accumulate actions; occurrence modifiers (from/repeat_every/times)
  /// select which phase occurrences fire them.  All actions arm faults at
  /// `observed(scope) + delta`, i.e. `delta` operations *after* the
  /// workload reported the phase -- delta 0 is the very next operation.
  class Rule {
   public:
    /// Kill rank's `delta`-th next WQE (the QP errors and flushes).
    Rule& kill(int rank, std::uint64_t delta = 0) {
      actions_.push_back({Action::kKill, rank, delta, 1, 0});
      return *this;
    }
    /// Corrupt the payload of rank's `delta`-th next WQE (delivered as a
    /// success; only an end-to-end integrity check can catch it).
    Rule& corrupt(int rank, std::uint64_t delta = 0) {
      actions_.push_back({Action::kCorrupt, rank, delta, 1, 0});
      return *this;
    }
    /// Deny rank's next `n` memory registrations starting `delta` from now.
    Rule& exhaust_reg(int rank, std::uint64_t n = 1, std::uint64_t delta = 0) {
      actions_.push_back({Action::kExhaustReg, rank, delta, n, 0});
      return *this;
    }
    /// Drop rank's next `n` CQE deliveries into the overrun buffer.
    Rule& exhaust_cq(int rank, std::uint64_t n = 1, std::uint64_t delta = 0) {
      actions_.push_back({Action::kExhaustCq, rank, delta, n, 0});
      return *this;
    }
    /// Withhold rank's next `n` ring-credit grants.
    Rule& exhaust_credit(int rank, std::uint64_t n = 1,
                         std::uint64_t delta = 0) {
      actions_.push_back({Action::kExhaustCredit, rank, delta, n, 0});
      return *this;
    }
    /// Take rank's rail `rail` down at its next WQE (sticky: a dead port
    /// never comes back; surviving rails absorb the traffic).
    Rule& rail_down(int rank, int rail) {
      actions_.push_back({Action::kRailDown, rank, 0, 1, rail});
      return *this;
    }
    /// Gray-degrade rank's next `n_ops` WQEs (node scope) with `spec`,
    /// starting `delta` operations from the phase event.  Heals after the
    /// window.
    Rule& degrade(int rank, FaultSchedule::DegradeSpec spec,
                  std::uint64_t n_ops, std::uint64_t delta = 0) {
      Action a{Action::kDegrade, rank, delta, n_ops, 0};
      a.spec = spec;
      actions_.push_back(a);
      return *this;
    }
    /// Gray-degrade the next `n_ops` WQEs initiated through rank's rail
    /// `rail` -- the per-rail failure domain, so only that rail slows down.
    Rule& degrade_rail(int rank, int rail, FaultSchedule::DegradeSpec spec,
                       std::uint64_t n_ops, std::uint64_t delta = 0) {
      Action a{Action::kDegrade, rank, delta, n_ops, rail};
      a.spec = spec;
      a.rail_scoped = true;
      actions_.push_back(a);
      return *this;
    }
    /// Intermittent degrade of rank's rail `rail`: inside the next `n_ops`
    /// WQEs, `duty` out of every `period` are degraded (flapping link).
    Rule& flaky_rail(int rank, int rail, FaultSchedule::DegradeSpec spec,
                     std::uint64_t period, std::uint64_t duty,
                     std::uint64_t n_ops, std::uint64_t delta = 0) {
      Action a{Action::kFlaky, rank, delta, n_ops, rail};
      a.spec = spec;
      a.rail_scoped = true;
      a.period = period;
      a.duty = duty;
      actions_.push_back(a);
      return *this;
    }

    /// Fire on every `n`th matching occurrence (1 = every occurrence, the
    /// default; 3 = occurrences 0, 3, 6, ... counting from `from()`).
    Rule& repeat_every(int n) {
      every_ = n > 0 ? n : 1;
      return *this;
    }
    /// Skip the first `k` occurrences of the phase.
    Rule& from(int k) {
      from_ = k > 0 ? k : 0;
      return *this;
    }
    /// Fire at most `n` times over the campaign.
    Rule& times(int n) {
      max_firings_ = n;
      return *this;
    }
    Rule& once() { return times(1); }
    /// Adds Rng-drawn jitter in [0, max_delta] to every armed delta, so a
    /// seeded campaign scatters its hits across the phase's traffic instead
    /// of always striking the same operation.
    Rule& jitter(std::uint64_t max_delta) {
      jitter_ = max_delta;
      return *this;
    }

    int firings() const noexcept { return firings_; }

   private:
    friend class FaultCampaign;
    struct Action {
      enum Kind {
        kKill,
        kCorrupt,
        kExhaustReg,
        kExhaustCq,
        kExhaustCredit,
        kRailDown,
        kDegrade,
        kFlaky,
      };
      Kind kind;
      int rank;
      std::uint64_t delta;
      std::uint64_t n;
      int rail;
      FaultSchedule::DegradeSpec spec{};
      bool rail_scoped = false;
      std::uint64_t period = 0;
      std::uint64_t duty = 0;
    };
    std::string phase_;
    std::vector<Action> actions_;
    int every_ = 1;
    int from_ = 0;
    int max_firings_ = -1;  // < 0: unlimited
    std::uint64_t jitter_ = 0;
    int seen_ = 0;     // matching phase occurrences observed
    int firings_ = 0;  // times the actions were armed
  };

  /// Starts a rule for `phase` (e.g. "is.iter", "ft.pass", "cg.iter").
  /// The returned reference stays valid for the campaign's lifetime.
  Rule& at_phase(std::string phase) {
    rules_.push_back(std::make_unique<Rule>());
    rules_.back()->phase_ = std::move(phase);
    return *rules_.back();
  }

  /// Progress callback: the workload reached `phase` once more.  Call it
  /// from exactly one rank's perspective per logical event (the NAS
  /// harness forwards rank 0's phase hook), otherwise one iteration fires
  /// the rules once per rank.  Matching rules arm their faults into the
  /// schedule relative to the operation counts observed right now.
  void on_phase(const std::string& phase) {
    for (auto& rp : rules_) {
      Rule& r = *rp;
      if (r.phase_ != phase) continue;
      const int idx = r.seen_++;
      if (idx < r.from_) continue;
      if ((idx - r.from_) % r.every_ != 0) continue;
      if (r.max_firings_ >= 0 && r.firings_ >= r.max_firings_) continue;
      ++r.firings_;
      for (const Rule::Action& a : r.actions_) fire(r, a);
    }
  }

  /// Scope string of rank R's WQE stream (the pmi node-naming convention).
  static std::string scope_of(int rank) {
    return "node" + std::to_string(rank);
  }

  FaultSchedule& schedule() noexcept { return schedule_; }
  const FaultSchedule& schedule() const noexcept { return schedule_; }
  Rng& rng() noexcept { return rng_; }
  /// Total faults armed into the schedule by fired rules.
  std::uint64_t armed() const noexcept { return armed_; }

 private:
  void fire(Rule& r, const Rule::Action& a) {
    const std::string scope = scope_of(a.rank);
    const std::uint64_t delta =
        a.delta + (r.jitter_ > 0 ? rng_.below(r.jitter_ + 1) : 0);
    switch (a.kind) {
      case Rule::Action::kKill:
        schedule_.kill(scope, schedule_.observed(scope) + delta);
        ++armed_;
        break;
      case Rule::Action::kCorrupt:
        schedule_.corrupt(scope, schedule_.observed(scope) + delta);
        ++armed_;
        break;
      case Rule::Action::kExhaustReg:
        arm_exhaust(scope + ".reg", delta, a.n);
        break;
      case Rule::Action::kExhaustCq:
        arm_exhaust(scope + ".cq", delta, a.n);
        break;
      case Rule::Action::kExhaustCredit:
        arm_exhaust(scope + ".credit", delta, a.n);
        break;
      case Rule::Action::kRailDown: {
        const std::string rs = FaultSchedule::rail_scope(scope, a.rail);
        schedule_.kill_from(rs, schedule_.observed(rs));
        ++armed_;
        break;
      }
      case Rule::Action::kDegrade: {
        const std::string ds =
            a.rail_scoped ? FaultSchedule::rail_scope(scope, a.rail) : scope;
        const std::uint64_t from = schedule_.observed(ds) + delta;
        schedule_.degrade(ds, from, from + a.n, a.spec);
        ++armed_;
        break;
      }
      case Rule::Action::kFlaky: {
        const std::string ds =
            a.rail_scoped ? FaultSchedule::rail_scope(scope, a.rail) : scope;
        const std::uint64_t from = schedule_.observed(ds) + delta;
        schedule_.flaky(ds, a.spec, a.period, a.duty, from, from + a.n);
        ++armed_;
        break;
      }
    }
  }

  void arm_exhaust(const std::string& scope, std::uint64_t delta,
                   std::uint64_t n) {
    schedule_.exhaust(scope, schedule_.observed(scope) + delta, n);
    armed_ += n;
  }

  FaultSchedule schedule_;
  Rng rng_;
  std::vector<std::unique_ptr<Rule>> rules_;
  std::uint64_t armed_ = 0;
};

}  // namespace sim
