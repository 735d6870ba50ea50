// Shared measurement harness for the figure-reproduction benches.
//
// Methodology mirrors the paper (section 4.2.1): latency is half the
// average ping-pong round trip; bandwidth sends back-to-back windows of W
// messages, waits for them to finish, and repeats, deriving MB/s (MB =
// 1e6 bytes) from total bytes and total time.  All numbers are virtual
// time from the deterministic simulation: rerunning a bench reproduces
// them exactly.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "ib/fabric.hpp"
#include "mpi/runtime.hpp"
#include "nas/nas.hpp"
#include "pmi/pmi.hpp"

namespace benchutil {

inline mpi::RuntimeConfig stack_config(ch3::Stack stack,
                                       rdmach::Design design) {
  mpi::RuntimeConfig cfg;
  cfg.stack.stack = stack;
  cfg.stack.channel.design = design;
  return cfg;
}

inline mpi::RuntimeConfig design_config(rdmach::Design design) {
  return stack_config(ch3::Stack::kRdmaChannel, design);
}

/// Runs a 2-rank MPI job; `body` executes on both ranks between init and
/// finalize, so it can also read engine/channel statistics from the
/// Runtime.  `fcfg` selects the fabric model (rail counts, per-rail link
/// speeds); the default is the calibrated single-rail fabric every figure
/// bench uses.
inline void run_pair_rt(
    const mpi::RuntimeConfig& cfg,
    const std::function<sim::Task<void>(mpi::Runtime&, mpi::Communicator&,
                                        pmi::Context&)>& body,
    const ib::FabricConfig& fcfg = {}) {
  sim::Simulator sim;
  ib::Fabric fabric(sim, fcfg);
  pmi::Job job(fabric, 2);
  job.launch([&cfg, body](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    co_await body(rt, rt.world(), ctx);
    co_await rt.finalize();
  });
  sim.run();
}

/// One-way MPI latency in microseconds for `msg`-byte messages.
inline double mpi_latency_usec(const mpi::RuntimeConfig& cfg, std::size_t msg,
                               int iters = 30,
                               const ib::FabricConfig& fcfg = {}) {
  sim::Tick elapsed = 0;
  run_pair_rt(cfg, [msg, iters, &elapsed](
                       mpi::Runtime&, mpi::Communicator& world,
                       pmi::Context& ctx) -> sim::Task<void> {
    std::vector<std::byte> buf(msg > 0 ? msg : 1);
    const int n = static_cast<int>(msg);
    if (world.rank() == 0) {
      co_await world.send(buf.data(), n, mpi::Datatype::kByte, 1, 0);
      co_await world.recv(buf.data(), n, mpi::Datatype::kByte, 1, 0);
      const sim::Tick t0 = ctx.sim().now();
      for (int i = 0; i < iters; ++i) {
        co_await world.send(buf.data(), n, mpi::Datatype::kByte, 1, 0);
        co_await world.recv(buf.data(), n, mpi::Datatype::kByte, 1, 0);
      }
      elapsed = ctx.sim().now() - t0;
    } else {
      for (int i = 0; i < iters + 1; ++i) {
        co_await world.recv(buf.data(), n, mpi::Datatype::kByte, 0, 0);
        co_await world.send(buf.data(), n, mpi::Datatype::kByte, 0, 0);
      }
    }
  }, fcfg);
  return sim::to_usec(elapsed) / (2.0 * iters);
}

/// Streaming MPI bandwidth (MB/s, MB = 1e6 B) at message size `msg`.
inline double mpi_bandwidth_mbps(const mpi::RuntimeConfig& cfg,
                                 std::size_t msg, std::size_t total_bytes = 0,
                                 int window = 16,
                                 const ib::FabricConfig& fcfg = {}) {
  if (total_bytes == 0) {
    total_bytes = std::max<std::size_t>(msg * 128, 8u << 20);
    total_bytes = std::min<std::size_t>(total_bytes, 64u << 20);
  }
  int rounds = static_cast<int>(total_bytes / (msg * window));
  // Small messages reach steady state within a few windows; cap the count
  // so tiny-message sweeps stay fast.
  rounds = std::min(rounds, 2048 / window);
  rounds = std::max(rounds, 1);
  sim::Tick elapsed = 0;
  std::size_t moved = 0;
  run_pair_rt(cfg, [msg, window, rounds, &elapsed, &moved](
                       mpi::Runtime&, mpi::Communicator& world,
                       pmi::Context& ctx) -> sim::Task<void> {
    std::vector<std::vector<std::byte>> bufs(
        static_cast<std::size_t>(window), std::vector<std::byte>(msg));
    const int n = static_cast<int>(msg);
    // Each round is handshaked so the receiver's window is pre-posted
    // before the sender fires (standard bandwidth-test methodology; it
    // keeps the measurement on the transport, not on the unexpected-
    // message copy path).
    std::byte token{1};
    if (world.rank() == 0) {
      const sim::Tick t0 = ctx.sim().now();
      for (int r = 0; r < rounds; ++r) {
        co_await world.recv(&token, 1, mpi::Datatype::kByte, 1, 1);
        std::vector<mpi::Request> reqs;
        for (int w = 0; w < window; ++w) {
          reqs.push_back(co_await world.isend(
              bufs[static_cast<std::size_t>(w)].data(), n,
              mpi::Datatype::kByte, 1, 0));
        }
        co_await world.wait_all(reqs);
      }
      // Final handshake so the clock covers delivery of the last window.
      co_await world.recv(&token, 1, mpi::Datatype::kByte, 1, 2);
      elapsed = ctx.sim().now() - t0;
    } else {
      for (int r = 0; r < rounds; ++r) {
        std::vector<mpi::Request> reqs;
        for (int w = 0; w < window; ++w) {
          reqs.push_back(co_await world.irecv(
              bufs[static_cast<std::size_t>(w)].data(), n,
              mpi::Datatype::kByte, 0, 0));
        }
        co_await world.send(&token, 1, mpi::Datatype::kByte, 0, 1);
        co_await world.wait_all(reqs);
      }
      co_await world.send(&token, 1, mpi::Datatype::kByte, 0, 2);
    }
  }, fcfg);
  moved = msg * static_cast<std::size_t>(window) *
          static_cast<std::size_t>(rounds);
  return sim::bandwidth_mbps(static_cast<std::int64_t>(moved), elapsed);
}

/// Runs one NAS kernel on `nprocs` ranks; returns rank 0's Result.
inline nas::Result run_nas(const std::string& name, int nprocs,
                           nas::Class cls, const mpi::RuntimeConfig& cfg) {
  sim::Simulator sim;
  ib::Fabric fabric(sim);
  pmi::Job job(fabric, nprocs);
  nas::Result result;
  job.launch([&, name, cls](pmi::Context& ctx) -> sim::Task<void> {
    mpi::Runtime rt(ctx, cfg);
    co_await rt.init();
    nas::Result r = co_await nas::kernel(name)(rt.world(), ctx, cls);
    if (ctx.rank == 0) result = r;
    co_await rt.finalize();
  });
  sim.run();
  return result;
}

/// Message-size sweeps used across the figures.
inline std::vector<std::size_t> sizes_4_to(std::size_t max) {
  std::vector<std::size_t> v;
  for (std::size_t s = 4; s <= max; s *= 4) v.push_back(s);
  return v;
}
inline std::vector<std::size_t> sizes_pow2(std::size_t from, std::size_t to) {
  std::vector<std::size_t> v;
  for (std::size_t s = from; s <= to; s *= 2) v.push_back(s);
  return v;
}

inline std::string human_size(std::size_t s) {
  if (s >= (1u << 20) && s % (1u << 20) == 0) {
    return std::to_string(s >> 20) + "M";
  }
  if (s >= 1024 && s % 1024 == 0) return std::to_string(s >> 10) + "K";
  return std::to_string(s);
}

inline void title(const std::string& t) {
  std::printf("\n=== %s ===\n", t.c_str());
}

/// Machine-readable bench output: rows of (series, message size, value)
/// collected during a run and dumped as one JSON file next to the console
/// tables, so plots and regression checks need no text scraping.
class JsonResult {
 public:
  explicit JsonResult(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& series, std::size_t msg_bytes, double value,
           const std::string& unit) {
    rows_.push_back(Row{series, unit, msg_bytes, value});
  }

  /// Writes `path` (overwriting); returns false when the file cannot be
  /// opened.  Values use enough digits to round-trip a double.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": [\n",
                 bench_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"series\": \"%s\", \"msg_bytes\": %zu, "
                   "\"value\": %.17g, \"unit\": \"%s\"}%s\n",
                   r.series.c_str(), r.msg_bytes, r.value, r.unit.c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  struct Row {
    std::string series;
    std::string unit;
    std::size_t msg_bytes;
    double value;
  };
  std::string bench_;
  std::vector<Row> rows_;
};

/// True when argv carries --smoke: benches then run reduced sweeps so the
/// `perf`-labelled ctest smokes stay fast.
inline bool smoke_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return true;
  }
  return false;
}

}  // namespace benchutil
