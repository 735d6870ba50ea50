// Deterministic fault-schedule injection.
//
// `inject_error_rate` (ib/config.hpp) models *random* attempt failures; it
// cannot express "kill exactly the 3rd WQE node0 posts", which is what the
// connection-recovery tests need.  A FaultSchedule holds per-scope fault
// plans keyed by a running operation counter: instrumented subsystems call
// check(scope) once per operation and receive the scheduled fault, if any.
// Scopes are plain strings chosen by the instrumentation site (the QP send
// engines use the initiator node's name; resource sites append a suffix --
// "<node>.reg" for memory registration, "<node>.cq" for CQE delivery,
// "<node>.credit" for ring-credit grants), so one schedule can steer many
// components.  The simulation is single-threaded and event order is
// deterministic, so the Nth operation of a scope is the same operation in
// every run.
//
// Four fault kinds:
//   * kKill    -- the operation dies: RC retry exhaustion, so the victim
//                 completes with a transport error AND its QP enters the
//                 error state (everything posted behind it flushes).
//   * kCorrupt -- the operation SUCCEEDS but its payload is bit-flipped in
//                 flight, modelling an undetected link/DMA error.  Only
//                 meaningful at data-moving sites; on an atomic it kills.
//   * kExhaust -- the operation is refused by a temporarily exhausted
//                 resource (registration failure, CQ overrun, no ring
//                 credit); the resource comes back once the scheduled
//                 window passes.  Scheduled on a WQE scope, it kills.
//   * kDegrade -- gray failure: the operation still completes, but its link
//                 service-time model is perturbed (extra latency, reduced
//                 bandwidth, probabilistic retransmits -- and loss that
//                 exhausts the retry budget errors the QP like a kill).
//                 Unlike the fail-stop kinds, degrades HEAL: they apply to
//                 an op-index window [from, until) and the scope returns to
//                 full health afterwards.  Delivered through degrade_at(),
//                 not check(), because a degrade is a property of a window
//                 of operations rather than of one victim op.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sim {

class FaultSchedule {
 public:
  struct Fault {
    enum class Kind { kKill, kCorrupt, kExhaust, kDegrade };
    Kind kind = Kind::kKill;
  };

  /// Gray-failure shape applied to operations inside a degrade window.  A
  /// default-constructed spec is a no-op (active() == false); composing two
  /// specs stacks their effects (latencies add, multipliers multiply, drop
  /// probabilities combine as independent events).
  struct DegradeSpec {
    std::int64_t latency_add = 0;  ///< extra wire latency, ticks (ns)
    double latency_mult = 1.0;     ///< wire-latency multiplier
    double bandwidth_mult = 1.0;   ///< link-rate multiplier (0.1 = 10 % bw)
    double drop_prob = 0.0;        ///< per-attempt loss -> link-level retry
    bool active() const noexcept {
      return latency_add != 0 || latency_mult != 1.0 ||
             bandwidth_mult != 1.0 || drop_prob != 0.0;
    }
    void compose(const DegradeSpec& o) noexcept {
      latency_add += o.latency_add;
      latency_mult *= o.latency_mult;
      bandwidth_mult *= o.bandwidth_mult;
      drop_prob = 1.0 - (1.0 - drop_prob) * (1.0 - o.drop_prob);
    }
  };

  /// Scope string the QP engines consult once per WQE initiated through
  /// rail `rail` of `node` -- the per-rail failure domain of the multirail
  /// fabric.  Any fault kind scheduled here takes the port down, sticky.
  static std::string rail_scope(const std::string& node, int rail) {
    return node + ".rail" + std::to_string(rail);
  }

  /// Kills rail `rail` of `node` at its `from`th WQE (and everything after:
  /// a dead port never comes back; surviving rails absorb the stripe set).
  void rail_down(const std::string& node, int rail, std::uint64_t from = 0) {
    kill_from(rail_scope(node, rail), from);
  }

  /// Permanently kills the process on `node` once it has initiated `at_op`
  /// WQEs (0 = dead from the start).  Unlike kill_from, death is symmetric:
  /// every WQE initiated *by* the node and every WQE initiated *towards* it
  /// errors forever, and reconnect/lazy-connect attempts against it can
  /// never succeed.  Instrumentation queries node_dead() rather than
  /// check(), since death is a property of the endpoint, not of one scope's
  /// op counter.
  void rank_down(const std::string& node, std::uint64_t at_op = 0) {
    rank_down_at_[node] = at_op;
  }

  /// True once `node` is past its rank_down threshold.  The threshold is
  /// measured against the node's own initiated-WQE scope counter, so
  /// "die at op N" is deterministic across runs.  Sticky.
  bool node_dead(const std::string& node) const {
    auto it = rank_down_at_.find(node);
    if (it == rank_down_at_.end()) return false;
    return observed(node) >= it->second;
  }

  /// Any rank_down rules armed at all?  Lets hot paths skip the map lookup
  /// when no process faults are scheduled (fault-free traces stay
  /// bit-identical).
  bool any_rank_down() const noexcept { return !rank_down_at_.empty(); }

  /// Kills the `nth` (0-based) operation observed in `scope`.
  void kill(const std::string& scope, std::uint64_t nth) {
    scopes_[scope].plans[nth] = Fault{Fault::Kind::kKill};
  }

  /// Kills every operation in `scope` from index `from` onward (retry-budget
  /// exhaustion scenarios: nothing ever gets through again).
  void kill_from(const std::string& scope, std::uint64_t from) {
    scopes_[scope].all_from = std::make_pair(from, Fault{Fault::Kind::kKill});
  }

  /// Corrupts the `nth` operation: it is delivered as a success with its
  /// payload bit-flipped (silent data corruption unless a checksum catches
  /// it).
  void corrupt(const std::string& scope, std::uint64_t nth) {
    scopes_[scope].plans[nth] = Fault{Fault::Kind::kCorrupt};
  }

  /// Denies operations [from, from + n) with a temporary resource-exhaustion
  /// failure; the resource recovers afterwards.
  void exhaust(const std::string& scope, std::uint64_t from,
               std::uint64_t n = 1) {
    Scope& s = scopes_[scope];
    for (std::uint64_t i = 0; i < n; ++i) {
      s.plans[from + i] = Fault{Fault::Kind::kExhaust};
    }
  }

  /// Degrades operations [from, until) of `scope` with `spec`.  Heals: ops
  /// at index >= until see full health again.  Windows stack: an op covered
  /// by several windows sees their composed spec.  Degrades live beside the
  /// fail-stop plans and never consume check() victim slots, so a degrade
  /// window and a kill can target the same op index independently.
  void degrade(const std::string& scope, std::uint64_t from,
               std::uint64_t until, DegradeSpec spec) {
    scopes_[scope].degrades.push_back(
        DegradeWindow{from, until, spec, /*period=*/0, /*duty=*/0});
    ++degrade_windows_;
  }

  /// Intermittent degrade: within [from, until), op i is degraded iff
  /// ((i - from) % period) < duty -- `duty` bad ops out of every `period`,
  /// modelling a flapping link.  period == 0 degenerates to degrade().
  void flaky(const std::string& scope, DegradeSpec spec, std::uint64_t period,
             std::uint64_t duty, std::uint64_t from = 0,
             std::uint64_t until = kForever) {
    scopes_[scope].degrades.push_back(
        DegradeWindow{from, until, spec, period, duty});
    ++degrade_windows_;
  }

  /// Any degrade windows armed at all?  Hot-path guard mirroring
  /// any_rank_down(): fault-free traces skip the per-op window scan.
  bool any_degrade() const noexcept { return degrade_windows_ > 0; }

  /// Composed degrade spec covering operation `idx` of `scope` (the same
  /// op counter check() advances: call check() first, then query index
  /// observed(scope) - 1).  Returns an inactive spec outside all windows.
  DegradeSpec degrade_at(const std::string& scope, std::uint64_t idx) {
    DegradeSpec out;
    auto it = scopes_.find(scope);
    if (it == scopes_.end()) return out;
    for (const DegradeWindow& w : it->second.degrades) {
      if (w.covers(idx)) out.compose(w.spec);
    }
    if (out.active()) ++degraded_ops_;
    return out;
  }

  /// Operations that have fallen inside an active degrade window so far.
  std::uint64_t degraded_ops() const noexcept { return degraded_ops_; }

  /// Instrumentation hook: counts one operation in `scope` and returns the
  /// fault scheduled for it, if any.
  std::optional<Fault> check(const std::string& scope) {
    Scope& s = scopes_[scope];
    const std::uint64_t idx = s.count++;
    std::optional<Fault> hit;
    if (auto it = s.plans.find(idx); it != s.plans.end()) hit = it->second;
    if (!hit && s.all_from && idx >= s.all_from->first) {
      hit = s.all_from->second;
    }
    if (hit) ++delivered_;
    return hit;
  }

  /// Operations observed so far in `scope`.
  std::uint64_t observed(const std::string& scope) const {
    auto it = scopes_.find(scope);
    return it == scopes_.end() ? 0 : it->second.count;
  }

  /// Total faults delivered across all scopes (all kinds).
  std::uint64_t killed() const noexcept { return delivered_; }

  /// Sentinel "never heals" window end for degrade()/flaky().
  static constexpr std::uint64_t kForever =
      ~static_cast<std::uint64_t>(0);

 private:
  struct DegradeWindow {
    std::uint64_t from = 0;
    std::uint64_t until = kForever;  // [from, until)
    DegradeSpec spec;
    std::uint64_t period = 0;  // 0 = steady window
    std::uint64_t duty = 0;    // degraded ops per period
    bool covers(std::uint64_t idx) const noexcept {
      if (idx < from || idx >= until) return false;
      if (period == 0) return true;
      return ((idx - from) % period) < duty;
    }
  };

  struct Scope {
    std::map<std::uint64_t, Fault> plans;
    std::optional<std::pair<std::uint64_t, Fault>> all_from;
    std::vector<DegradeWindow> degrades;
    std::uint64_t count = 0;
  };

  std::map<std::string, Scope> scopes_;
  std::map<std::string, std::uint64_t> rank_down_at_;
  std::uint64_t delivered_ = 0;
  std::uint64_t degrade_windows_ = 0;
  std::uint64_t degraded_ops_ = 0;
};

}  // namespace sim
