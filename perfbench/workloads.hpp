// The benchmark's three closed-loop workloads against the default stack
// (RDMA Channel, zero-copy design):
//
//   p2p     2 ranks: 4 B ping-pong, then windowed streaming (window 16,
//           handshaked rounds as in bench_util.hpp) at 64 KiB and 1 MiB.
//   nas-a4  the eight NAS kernels, class A, 4 ranks, one job per kernel.
//   rma-64  64 ranks, lazy connect: Window::create, a seeded random-target
//           put/get mix with flush_all every 16 ops, a halo put+flush ring,
//           then fence epochs.
//
// A Workload generates its inputs once from the seed; run() executes one
// pass (every job of the workload, freshly constructed) and reports both
// clocks, the layer counters and the output checks of that pass.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace.hpp"

namespace perfbench {

/// Everything one pass measured.
struct Pass {
  // ---- host clock (seconds) -------------------------------------------------
  /// Construction of Simulator/Fabric/Job, Runtime::init on every rank, and
  /// Window::create on rma-64; summed over the pass's jobs, and per job in
  /// run order.
  double setup_s = 0;
  std::vector<double> job_setup_s;
  /// The measured phase: from the last rank finishing set-up to the last
  /// rank finishing the workload (finalize excluded); the sum of
  /// job_wall_s, which holds it per job in run order.
  double wall_s = 0;
  std::vector<double> job_wall_s;
  /// Inside Simulator::run (set-up tail, measured phase and finalize).
  double run_host_s = 0;
  /// From the start of Simulator::run until the last rank finished
  /// Runtime::init, and from there until the last Window::create returned.
  double init_host_s = 0;
  double window_host_s = 0;
  /// Host seconds of each NAS kernel's measured phase, keyed "nas.<k>".
  std::map<std::string, double> kernel_host_s;

  // ---- virtual clock --------------------------------------------------------
  /// Measured-phase virtual time summed over the pass's jobs.
  sim::Tick virt = 0;
  /// Workload-specific virtual figures (lat_p50_us, bw_1m_MBps, ...).
  std::map<std::string, double> figures;

  // ---- layer counters (summed over jobs and ranks) --------------------------
  std::map<std::string, double> layer;

  // ---- outputs --------------------------------------------------------------
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one pass.  `inject_failure` makes the first job of the pass end
  /// in a sim::ProcessError, to exercise the failure accounting.
  virtual Pass run(Recorder& rec, bool inject_failure) = 0;
};

/// "p2p", "nas-a4" or "rma-64"; nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
