// Helpers for driving the nonblocking put/get interface from tests:
// blocking send/recv retry loops with the standard activity-count pattern
// that closes the check-then-sleep race, a rank-addressed fault-schedule
// builder, and a randomized traffic generator whose concatenated byte
// stream doubles as the differential-test oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rdmach/channel.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace rdmach::testutil {

inline sim::Task<void> send_all(Channel& ch, Connection& c, const void* buf,
                                std::size_t n) {
  const auto* p = static_cast<const std::byte*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const std::uint64_t gen = ch.activity_count();
    const std::size_t k = co_await ch.put(c, p + done, n - done);
    done += k;
    if (done < n && k == 0 && ch.activity_count() == gen) {
      co_await ch.wait_for_activity();
    }
  }
}

inline sim::Task<void> recv_all(Channel& ch, Connection& c, void* buf,
                                std::size_t n) {
  auto* p = static_cast<std::byte*>(buf);
  std::size_t done = 0;
  while (done < n) {
    const std::uint64_t gen = ch.activity_count();
    const std::size_t k = co_await ch.get(c, p + done, n - done);
    done += k;
    if (done < n && k == 0 && ch.activity_count() == gen) {
      co_await ch.wait_for_activity();
    }
  }
}

/// Rank-addressed wrapper over sim::FaultSchedule: pmi::Job names nodes
/// "node0".."nodeN-1", one rank per node (the default), so "kill rank R's
/// Nth WQE" translates directly to a node-name scope.  Attach `schedule`
/// to the fabric before launching.
struct FaultPlan {
  sim::FaultSchedule schedule;

  static std::string scope_of(int rank) {
    return "node" + std::to_string(rank);
  }

  /// Kills the `nth` (0-based) WQE that rank's HCA processes.
  FaultPlan& kill(int rank, std::uint64_t nth) {
    schedule.kill(scope_of(rank), nth);
    return *this;
  }

  /// Kills every WQE from the `from`th onward (budget-exhaustion tests).
  FaultPlan& kill_from(int rank, std::uint64_t from) {
    schedule.kill_from(scope_of(rank), from);
    return *this;
  }

  /// Takes rail `rail` of that rank's node down, sticky, at the `from`th
  /// WQE the rank initiates through it (multi-rail failure domains: the
  /// surviving rails absorb the stripe set).
  FaultPlan& rail_down(int rank, int rail, std::uint64_t from = 0) {
    schedule.rail_down(scope_of(rank), rail, from);
    return *this;
  }

  /// Flips one payload bit in the `nth` WQE that rank's HCA processes; the
  /// operation still completes with kSuccess (silent data corruption).
  FaultPlan& corrupt(int rank, std::uint64_t nth) {
    schedule.corrupt(scope_of(rank), nth);
    return *this;
  }

  /// Denies `n` memory registrations on that rank starting from its
  /// `from`th register_memory call.  Init-time registrations (rings, ctrl
  /// blocks, FIN arrays) come first, so chaos schedules should keep `from`
  /// past the bootstrap -- a denied bootstrap is a setup error, not a
  /// degradation path.
  FaultPlan& exhaust_reg(int rank, std::uint64_t from, std::uint64_t n = 1) {
    schedule.exhaust(scope_of(rank) + ".reg", from, n);
    return *this;
  }

  /// Drops `n` CQEs into that rank's CQ overrun buffer starting from its
  /// `from`th delivered completion (drain-and-rearm recovery path).
  FaultPlan& exhaust_cq(int rank, std::uint64_t from, std::uint64_t n = 1) {
    schedule.exhaust(scope_of(rank) + ".cq", from, n);
    return *this;
  }

  /// Denies `n` ring-credit grants on that rank starting from its `from`th
  /// put-side credit check (backpressure/retry path).
  FaultPlan& exhaust_credit(int rank, std::uint64_t from,
                            std::uint64_t n = 1) {
    schedule.exhaust(scope_of(rank) + ".credit", from, n);
    return *this;
  }

  /// Gray-degrades rank's WQEs [from, until) with `spec` (node scope; the
  /// link heals once the window passes).
  FaultPlan& degrade(int rank, sim::FaultSchedule::DegradeSpec spec,
                     std::uint64_t from = 0,
                     std::uint64_t until = sim::FaultSchedule::kForever) {
    schedule.degrade(scope_of(rank), from, until, spec);
    return *this;
  }

  /// Gray-degrades WQEs [from, until) initiated through rank's rail `rail`
  /// only -- the other rails stay at full health.
  FaultPlan& degrade_rail(int rank, int rail,
                          sim::FaultSchedule::DegradeSpec spec,
                          std::uint64_t from = 0,
                          std::uint64_t until = sim::FaultSchedule::kForever) {
    schedule.degrade(sim::FaultSchedule::rail_scope(scope_of(rank), rail),
                     from, until, spec);
    return *this;
  }

  /// Flapping link: inside [from, until), `duty` of every `period` WQEs on
  /// rank's rail `rail` are degraded by `spec`.
  FaultPlan& flaky_rail(int rank, int rail,
                        sim::FaultSchedule::DegradeSpec spec,
                        std::uint64_t period, std::uint64_t duty,
                        std::uint64_t from = 0,
                        std::uint64_t until = sim::FaultSchedule::kForever) {
    schedule.flaky(sim::FaultSchedule::rail_scope(scope_of(rank), rail), spec,
                   period, duty, from, until);
    return *this;
  }
};

/// Randomized put-sized message stream.  `bytes` is the full concatenated
/// stream in FIFO order -- exactly what a correct channel must deliver, so
/// it serves as the oracle for differential fault tests.
struct Traffic {
  std::vector<std::size_t> sizes;
  std::vector<std::byte> bytes;

  static Traffic make(std::uint64_t seed, std::size_t messages,
                      std::size_t min_len, std::size_t max_len) {
    sim::Rng rng(seed);
    Traffic t;
    t.sizes.reserve(messages);
    for (std::size_t i = 0; i < messages; ++i) {
      const std::size_t n =
          min_len + static_cast<std::size_t>(rng.below(
                        static_cast<std::uint64_t>(max_len - min_len + 1)));
      t.sizes.push_back(n);
      for (std::size_t b = 0; b < n; ++b) {
        t.bytes.push_back(static_cast<std::byte>(rng.next() & 0xff));
      }
    }
    return t;
  }

  std::size_t total() const { return bytes.size(); }
};

}  // namespace rdmach::testutil
