#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "ch3/adapter_channel.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "mpi/runtime.hpp"
#include "mpi/window.hpp"
#include "nas/nas.hpp"
#include "pmi/pmi.hpp"
#include "rdmach/zerocopy_channel.hpp"

namespace perfbench {
namespace {

constexpr mpi::Datatype kByte = mpi::Datatype::kByte;

/// The default stack: RDMA Channel, zero-copy design.
mpi::RuntimeConfig default_stack() {
  mpi::RuntimeConfig cfg;
  cfg.stack.stack = ch3::Stack::kRdmaChannel;
  cfg.stack.channel.design = rdmach::Design::kZeroCopy;
  return cfg;
}

/// splitmix64 finalizer: the seeded value stream behind every payload
/// pattern and random choice.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Fills `n` bytes with the pattern named by `key`.
void fill_pattern(std::byte* dst, std::size_t n, std::uint64_t key) {
  std::uint64_t x = mix(key);
  for (std::size_t i = 0; i < n; i += 8) {
    x = mix(x);
    std::memcpy(dst + i, &x, std::min<std::size_t>(8, n - i));
  }
}

/// Nearest-rank percentile of an ascending sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void add_latency_figures(Pass& p, std::vector<double> lat) {
  std::sort(lat.begin(), lat.end());
  p.figures["lat_p50_us"] = percentile(lat, 50);
  p.figures["lat_p99_us"] = percentile(lat, 99);
  p.figures["lat_samples"] = static_cast<double>(lat.size());
}

// ---- per-job harness --------------------------------------------------------

/// State one job's rank coroutines share: the set-up / measured-phase
/// boundaries on both clocks, and a per-rank snapshot of the layer counters
/// taken before finalize.
struct JobCtx {
  JobCtx(int n, Recorder& r)
      : rec(&r), init_left(n), setup_left(n), measured_left(n),
        snaps(static_cast<std::size_t>(n)) {}

  struct Snap {
    rdmach::ChannelStats cs;
    std::uint64_t sends = 0, recvs = 0, unexpected = 0;
    std::uint64_t rc_hits = 0, rc_misses = 0;
    mpi::Window::Stats ws;
  };

  Recorder* rec;
  int run_span = -1;
  int init_left, setup_left, measured_left;
  double h_init_done = 0, h_setup_done = 0, h_measured_done = 0;
  sim::Tick v_setup_done = 0, v_measured_done = 0;
  std::vector<Snap> snaps;
  std::uint64_t rma_bytes = 0;  // one-sided payload (the channel never sees it)

  void init_done() {
    if (--init_left == 0) h_init_done = host_now();
  }
  void setup_done(pmi::Context& ctx) {
    v_setup_done = std::max(v_setup_done, ctx.sim().now());
    if (--setup_left == 0) h_setup_done = host_now();
  }
  void measured_done(pmi::Context& ctx) {
    v_measured_done = std::max(v_measured_done, ctx.sim().now());
    if (--measured_left == 0) h_measured_done = host_now();
  }

  void snapshot(mpi::Runtime& rt, const mpi::Window* win) {
    Snap& s = snaps[static_cast<std::size_t>(rt.ctx().rank)];
    mpi::Engine& eng = rt.engine();
    s.cs = eng.channel().channel_stats();
    s.sends = eng.sends;
    s.recvs = eng.recvs;
    s.unexpected = eng.unexpected_hits;
    if (auto* a = dynamic_cast<ch3::AdapterChannel*>(&eng.channel())) {
      if (auto* zc = dynamic_cast<rdmach::ZeroCopyChannel*>(&a->channel())) {
        s.rc_hits = zc->reg_cache().hits();
        s.rc_misses = zc->reg_cache().misses();
      }
    }
    if (win != nullptr) s.ws = win->stats();
  }

  /// Opens a per-rank span under the job's Simulator::run span.
  int open_rank(pmi::Context& ctx, const char* name, const char* layer) {
    return rec->open(name, layer, ctx.rank, run_span, 0, ctx.sim().now());
  }
  /// Opens a per-rank phase span: the parent of that rank's call spans.
  int open_phase(pmi::Context& ctx, const char* name, const char* layer) {
    const int id = open_rank(ctx, name, layer);
    rec->set_phase(ctx.rank, id);
    return id;
  }
  void close(pmi::Context& ctx, int id) { rec->close(id, ctx.sim().now()); }
};

using RankMain = std::function<sim::Task<void>(pmi::Context&, JobCtx&)>;

/// What one job reports besides what it folds into the Pass.
struct JobOut {
  bool ok = true;
  std::string error;
  double measured_host_s = 0;
  std::uint64_t events = 0;
};

sim::Task<void> injected_failure(sim::Simulator* sim) {
  co_await sim->delay(sim::usec(1));
  throw std::runtime_error("injected failure");
}

/// Sums the public layer counters of a finished job into the pass.
void fold_layers(sim::Simulator& sim, ib::Fabric& fabric, pmi::Job& job,
                 const JobCtx& jc, Pass& pass) {
  auto& L = pass.layer;
  const sim::Simulator::Stats st = sim.stats();
  L["sim.events"] += static_cast<double>(st.events_dispatched);
  L["sim.pool_hits"] += static_cast<double>(st.pool_hits);
  L["sim.pool_misses"] += static_cast<double>(st.pool_misses);

  const double vt = static_cast<double>(std::max<sim::Tick>(sim.now(), 1));
  double link_busy = 0, bus_busy = 0;
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    ib::Node& nd = fabric.node(i);
    for (int h = 0; h < nd.hca_count(); ++h) {
      ib::Hca& hca = nd.hca(h);
      L["ib.writes"] += static_cast<double>(hca.writes_posted);
      L["ib.reads"] += static_cast<double>(hca.reads_posted);
      L["ib.sends"] += static_cast<double>(hca.sends_posted);
      L["ib.atomics"] += static_cast<double>(hca.atomics_posted);
      for (int p = 0; p < hca.port_count(); ++p) {
        ib::Port& port = hca.port(p);
        L["ib.wire_bytes"] += static_cast<double>(port.tx_link().total_bytes());
        const sim::Tick busy =
            std::max(port.tx_link().busy_ticks(), port.rx_link().busy_ticks());
        link_busy = std::max(link_busy, static_cast<double>(busy) / vt);
      }
    }
    bus_busy = std::max(bus_busy, static_cast<double>(nd.bus().busy_ticks()) / vt);
    L["ib.copied_bytes"] += static_cast<double>(nd.copied_bytes());
  }
  L["ib.link_busy_ratio"] = std::max(L["ib.link_busy_ratio"], link_busy);
  L["ib.bus_busy_ratio"] = std::max(L["ib.bus_busy_ratio"], bus_busy);
  L["pmi.kvs_keys"] += static_cast<double>(job.kvs().size());

  double payload = static_cast<double>(jc.rma_bytes);
  for (const JobCtx::Snap& s : jc.snaps) {
    const rdmach::ChannelStats& cs = s.cs;
    L["rdmach.eager_ops"] += static_cast<double>(cs.eager.ops);
    L["rdmach.eager_bytes"] += static_cast<double>(cs.eager.bytes);
    L["rdmach.rndv_read_ops"] += static_cast<double>(cs.rndv_read.ops);
    L["rdmach.rndv_read_bytes"] += static_cast<double>(cs.rndv_read.bytes);
    L["rdmach.rndv_write_ops"] += static_cast<double>(cs.rndv_write.ops);
    L["rdmach.credit_stalls"] += static_cast<double>(cs.credit_stalls);
    L["rdmach.qps_created"] += static_cast<double>(cs.qps_created);
    L["rdmach.connects_on_demand"] += static_cast<double>(cs.connects_on_demand);
    L["rdmach.qps_evicted"] += static_cast<double>(cs.qps_evicted);
    L["rdmach.qp_thrash"] += static_cast<double>(cs.qp_thrash);
    L["rdmach.retransmits"] += static_cast<double>(cs.retransmits);
    L["rdmach.recoveries"] += static_cast<double>(cs.recoveries);
    L["rdmach.resident_bytes_max"] = std::max(
        L["rdmach.resident_bytes_max"], static_cast<double>(cs.resident_bytes));
    L["rdmach.regcache_hits"] += static_cast<double>(s.rc_hits);
    L["rdmach.regcache_misses"] += static_cast<double>(s.rc_misses);
    L["mpi.sends"] += static_cast<double>(s.sends);
    L["mpi.recvs"] += static_cast<double>(s.recvs);
    L["mpi.unexpected"] += static_cast<double>(s.unexpected);
    L["mpi.win_puts"] += static_cast<double>(s.ws.puts);
    L["mpi.win_gets"] += static_cast<double>(s.ws.gets);
    L["mpi.win_flushes"] += static_cast<double>(s.ws.flushes);
    L["mpi.win_replays"] += static_cast<double>(s.ws.replays);
    payload += static_cast<double>(cs.eager.bytes + cs.rndv_read.bytes +
                                   cs.rndv_write.bytes);
  }
  L["payload_bytes"] += payload;
}

/// Builds a fresh Simulator/Fabric/Job, runs `main` on every rank and
/// accounts the job into `pass`.  A job ending in sim::ProcessError or
/// sim::DeadlockError is reported through JobOut, never thrown.
JobOut run_job(int n, Recorder& rec, Pass& pass, bool inject,
               const RankMain& main) {
  const double h0 = host_now();
  const int job_span = rec.open("job", "bench", -1, -1, 0, 0);
  int span = rec.open("sim.construct", "sim", -1, job_span, 0, 0);
  sim::Simulator sim;
  rec.close(span, 0);
  span = rec.open("ib.fabric", "ib", -1, job_span, 0, 0);
  ib::Fabric fabric(sim);
  rec.close(span, 0);
  span = rec.open("pmi.job", "pmi", -1, job_span, 0, 0);
  pmi::Job job(fabric, n);
  rec.close(span, 0);

  JobCtx jc(n, rec);
  job.launch([&main, &jc](pmi::Context& ctx) { return main(ctx, jc); });
  if (inject) sim.spawn(injected_failure(&sim), "injected");

  JobOut out;
  jc.run_span = rec.open("sim.run", "sim", -1, job_span, 0, 0);
  const double h_run0 = host_now();
  try {
    sim.run();
  } catch (const sim::ProcessError& e) {
    out.ok = false;
    out.error = e.what();
  } catch (const sim::DeadlockError& e) {
    out.ok = false;
    out.error = e.what();
  }
  const double h_run1 = host_now();
  rec.close(jc.run_span, sim.now());
  rec.close(job_span, sim.now());

  pass.run_host_s += h_run1 - h_run0;
  if (!out.ok) {
    pass.errors.push_back(out.error);
    pass.job_setup_s.push_back(0);
    pass.job_wall_s.push_back(0);
    return out;
  }
  pass.setup_s += jc.h_setup_done - h0;
  pass.job_setup_s.push_back(jc.h_setup_done - h0);
  pass.init_host_s += jc.h_init_done - h_run0;
  pass.window_host_s += jc.h_setup_done - jc.h_init_done;
  out.measured_host_s = jc.h_measured_done - jc.h_setup_done;
  pass.wall_s += out.measured_host_s;
  pass.job_wall_s.push_back(out.measured_host_s);
  pass.virt += jc.v_measured_done - jc.v_setup_done;
  out.events = sim.stats().events_dispatched;
  fold_layers(sim, fabric, job, jc, pass);
  return out;
}

/// Runtime::init and finalize wrapped in per-rank spans.
sim::Task<void> traced_init(mpi::Runtime& rt, pmi::Context& ctx,
                            JobCtx& jc) {
  const int id = jc.open_rank(ctx, "mpi.init", "mpi");
  co_await rt.init();
  jc.close(ctx, id);
  jc.init_done();
}

sim::Task<void> traced_finalize(mpi::Runtime& rt, pmi::Context& ctx,
                                JobCtx& jc) {
  const int id = jc.open_rank(ctx, "mpi.finalize", "mpi");
  co_await rt.finalize();
  jc.close(ctx, id);
}

// ---- p2p ----------------------------------------------------------------------

class P2p final : public Workload {
 public:
  explicit P2p(std::uint64_t seed) : seed_(seed) {
    const std::size_t sizes[2] = {64 * 1024, 1u << 20};
    const char* spans[2] = {"p2p.stream_64k", "p2p.stream_1m"};
    const char* figures[2] = {"bw_64k_MBps", "bw_1m_MBps"};
    for (int s = 0; s < 2; ++s) {
      Stream& st = streams_[s];
      st.msg = sizes[s];
      st.rounds = rounds_for(st.msg);
      st.span = spans[s];
      st.figure = figures[s];
      // Seeded payload pool: one distinct pattern per window slot.
      st.pool.assign(kWindow, std::vector<std::byte>(st.msg));
      for (int w = 0; w < kWindow; ++w) {
        fill_pattern(st.pool[static_cast<std::size_t>(w)].data(), st.msg,
                     seed_ ^ (st.msg << 20) ^ static_cast<std::uint64_t>(w));
      }
      // Seeded buffer choice: round r sends pool slot (w + rot[r]) % W as
      // message w.  Consecutive rotations differ, so a receive buffer left
      // holding the previous round's data fails the check.
      int rot = static_cast<int>(mix(seed_ ^ st.msg) % kWindow);
      for (int r = 0; r < st.rounds; ++r) {
        st.rot.push_back(rot);
        const std::uint64_t x = mix(seed_ + st.msg * 131 + r);
        rot = (rot + 1 + static_cast<int>(x % (kWindow - 1))) % kWindow;
      }
    }
  }

  Pass run(Recorder& rec, bool inject) override {
    Pass p;
    lat_us_.clear();
    bad_ = 0;
    // One job per phase, as the figure benches measure them: a phase's
    // numbers do not depend on the channel state the previous one left.
    // A failed job's ops all count as failed; the other phases still run.
    bool ok = true;
    for (phase_ = 0; phase_ < 3; ++phase_) {
      const std::uint64_t bad_before = bad_;
      const JobOut o = run_job(
          2, rec, p, inject && phase_ == 0,
          [this](pmi::Context& c, JobCtx& jc) { return rank_main(c, jc); });
      const std::uint64_t ops = phase_ == 0 ? 2 * (kPingIters + 1)
                                            : kWindow * streams_[phase_ - 1].rounds;
      p.attempted += ops;
      if (!o.ok) {
        p.failed += ops;
        bad_ = bad_before;
      }
      ok = ok && o.ok;
    }
    p.failed += bad_;
    if (!ok) return p;
    add_latency_figures(p, lat_us_);
    double sum = 0;
    for (double v : lat_us_) sum += v;
    p.figures["lat_mean_us"] = sum / static_cast<double>(lat_us_.size());
    for (int s = 0; s < 2; ++s) p.figures[streams_[s].figure] = bw_[s];
    return p;
  }

 private:
  static constexpr int kPingIters = 1000;
  static constexpr int kWindow = 16;

  struct Stream {
    std::size_t msg = 0;
    int rounds = 0;
    std::vector<std::vector<std::byte>> pool;
    std::vector<int> rot;
    const char* span = "";
    const char* figure = "";
  };

  /// Round count of benchutil::mpi_bandwidth_mbps, so the streaming phases
  /// move exactly what the figure benches move.
  static int rounds_for(std::size_t msg) {
    std::size_t total = std::max<std::size_t>(msg * 128, 8u << 20);
    total = std::min<std::size_t>(total, 64u << 20);
    int rounds = static_cast<int>(total / (msg * kWindow));
    rounds = std::min(rounds, 2048 / kWindow);
    return std::max(rounds, 1);
  }

  static std::uint64_t req_id(int phase, int i) {
    return (static_cast<std::uint64_t>(phase) << 32) |
           static_cast<std::uint64_t>(i);
  }

  sim::Task<void> rank_main(pmi::Context& ctx, JobCtx& jc) {
    mpi::Runtime rt(ctx, default_stack());
    co_await traced_init(rt, ctx, jc);
    mpi::Communicator& world = rt.world();
    if (phase_ == 0) {
      jc.setup_done(ctx);
      co_await pingpong(world, ctx, jc);
    } else {
      // Set-up: the sender's buffers hold copies of the seeded pool; the
      // receiver's window starts zeroed.
      const int s = phase_ - 1;
      std::vector<std::vector<std::byte>> bufs =
          ctx.rank == 0 ? streams_[s].pool
                        : std::vector<std::vector<std::byte>>(
                              kWindow, std::vector<std::byte>(streams_[s].msg));
      jc.setup_done(ctx);
      co_await stream(world, ctx, jc, s, bufs);
    }
    jc.measured_done(ctx);
    jc.snapshot(rt, nullptr);
    co_await traced_finalize(rt, ctx, jc);
  }

  /// 4 B ping-pong: one warm-up round trip, then kPingIters timed ones
  /// (the sequence of benchutil::mpi_latency_usec).  Every ping carries a
  /// seeded value; the pong returns its complement.
  sim::Task<void> pingpong(mpi::Communicator& world, pmi::Context& ctx,
                           JobCtx& jc) {
    Recorder& rec = *jc.rec;
    const int ph = jc.open_phase(ctx, "p2p.pingpong", "bench");
    std::uint32_t out = 0, in = 0;
    for (int i = 0; i <= kPingIters; ++i) {
      const std::uint64_t req = req_id(1, i);
      const auto v = static_cast<std::uint32_t>(mix(seed_ + 7919u * i));
      if (world.rank() == 0) {
        out = v;
        const sim::Tick t0 = ctx.sim().now();
        co_await rec.call(ctx, "mpi.send", req,
                          world.send(&out, 4, kByte, 1, 0));
        co_await rec.call(ctx, "mpi.recv", req,
                          world.recv(&in, 4, kByte, 1, 0));
        if (in != ~v) ++bad_;
        if (i > 0) lat_us_.push_back(sim::to_usec(ctx.sim().now() - t0) / 2.0);
      } else {
        co_await rec.call(ctx, "mpi.recv", req,
                          world.recv(&in, 4, kByte, 0, 0));
        if (in != v) ++bad_;
        out = ~in;
        co_await rec.call(ctx, "mpi.send", req,
                          world.send(&out, 4, kByte, 0, 0));
      }
    }
    jc.close(ctx, ph);
  }

  /// Windowed streaming with handshaked rounds (the sequence of
  /// benchutil::mpi_bandwidth_mbps); the receiver checks every message.
  sim::Task<void> stream(mpi::Communicator& world, pmi::Context& ctx,
                         JobCtx& jc, int s,
                         std::vector<std::vector<std::byte>>& bufs) {
    Recorder& rec = *jc.rec;
    const Stream& st = streams_[s];
    const int n = static_cast<int>(st.msg);
    const int ph = jc.open_phase(ctx, st.span, "bench");
    std::byte token{1};
    if (world.rank() == 0) {
      const sim::Tick t0 = ctx.sim().now();
      for (int r = 0; r < st.rounds; ++r) {
        const std::uint64_t req = req_id(2 + s, r);
        co_await rec.call(ctx, "mpi.recv", req,
                          world.recv(&token, 1, kByte, 1, 1));
        std::vector<mpi::Request> reqs;
        for (int w = 0; w < kWindow; ++w) {
          const int slot = (w + st.rot[static_cast<std::size_t>(r)]) % kWindow;
          reqs.push_back(co_await rec.call(
              ctx, "mpi.isend", req,
              world.isend(bufs[static_cast<std::size_t>(slot)].data(), n,
                          kByte, 1, 0)));
        }
        co_await rec.call(ctx, "mpi.wait_all", req, world.wait_all(reqs));
      }
      co_await rec.call(ctx, "mpi.recv", req_id(2 + s, st.rounds),
                        world.recv(&token, 1, kByte, 1, 2));
      const std::size_t moved =
          st.msg * kWindow * static_cast<std::size_t>(st.rounds);
      bw_[s] = sim::bandwidth_mbps(static_cast<std::int64_t>(moved),
                                   ctx.sim().now() - t0);
    } else {
      for (int r = 0; r < st.rounds; ++r) {
        const std::uint64_t req = req_id(2 + s, r);
        std::vector<mpi::Request> reqs;
        for (int w = 0; w < kWindow; ++w) {
          reqs.push_back(co_await rec.call(
              ctx, "mpi.irecv", req,
              world.irecv(bufs[static_cast<std::size_t>(w)].data(), n, kByte,
                          0, 0)));
        }
        co_await rec.call(ctx, "mpi.send", req,
                          world.send(&token, 1, kByte, 0, 1));
        co_await rec.call(ctx, "mpi.wait_all", req, world.wait_all(reqs));
        for (int w = 0; w < kWindow; ++w) {
          const int slot = (w + st.rot[static_cast<std::size_t>(r)]) % kWindow;
          if (std::memcmp(bufs[static_cast<std::size_t>(w)].data(),
                          st.pool[static_cast<std::size_t>(slot)].data(),
                          st.msg) != 0) {
            ++bad_;
          }
        }
      }
      co_await rec.call(ctx, "mpi.send", req_id(2 + s, st.rounds),
                        world.send(&token, 1, kByte, 0, 2));
    }
    jc.close(ctx, ph);
  }

  std::uint64_t seed_;
  Stream streams_[2];
  int phase_ = 0;  // 0: ping-pong, 1: 64 KiB stream, 2: 1 MiB stream
  // Per-pass results.
  std::vector<double> lat_us_;
  double bw_[2] = {0, 0};
  std::uint64_t bad_ = 0;
};

// ---- nas-a4 -------------------------------------------------------------------

class NasA4 final : public Workload {
 public:
  Pass run(Recorder& rec, bool inject) override {
    Pass p;
    const auto& suite = nas::suite();
    for (std::size_t k = 0; k < suite.size(); ++k) {
      kernel_ = k;
      result_ = nas::Result{};
      const JobOut o = run_job(
          kRanks, rec, p, inject && k == 0,
          [this](pmi::Context& c, JobCtx& jc) { return rank_main(c, jc); });
      ++p.attempted;
      const std::string key = "nas." + suite[k].first;
      if (!o.ok) {
        ++p.failed;
        continue;
      }
      if (!result_.verified) {
        ++p.failed;
        p.errors.push_back(key + " not verified: " + result_.detail);
      }
      p.kernel_host_s[key] = o.measured_host_s;
      p.figures[key + ".mops"] = result_.mops;
      p.figures[key + ".virt_ms"] = result_.time_sec * 1e3;
      p.figures[key + ".events"] = static_cast<double>(o.events);
    }
    return p;
  }

 private:
  static constexpr int kRanks = 4;

  sim::Task<void> rank_main(pmi::Context& ctx, JobCtx& jc) {
    static const char* const kSpans[] = {"nas.ep", "nas.is", "nas.cg",
                                         "nas.mg", "nas.ft", "nas.lu",
                                         "nas.sp", "nas.bt"};
    mpi::Runtime rt(ctx, default_stack());
    co_await traced_init(rt, ctx, jc);
    jc.setup_done(ctx);
    const int ph = jc.open_phase(ctx, kSpans[kernel_], "nas");
    nas::Result r =
        co_await nas::suite()[kernel_].second(rt.world(), ctx, nas::Class::A);
    jc.close(ctx, ph);
    jc.measured_done(ctx);
    jc.snapshot(rt, nullptr);
    if (ctx.rank == 0) result_ = r;
    co_await traced_finalize(rt, ctx, jc);
  }

  std::size_t kernel_ = 0;
  nas::Result result_;
};

// ---- rma-64 -------------------------------------------------------------------

class Rma64 final : public Workload {
 public:
  explicit Rma64(std::uint64_t seed)
      : seed_(seed),
        ops_(kRanks),
        last_(kRanks, std::vector<std::uint64_t>(kRanks, 0)) {
    // Seeded per-origin op lists: random target (never self), and one get
    // in three.  last_[t][o] is the stamp of origin o's last put into its
    // slot at target t, in program order -- what the read-back expects.
    for (int o = 0; o < kRanks; ++o) {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t x = mix(seed_ * 1000003u + o * kOps + i);
        int t = static_cast<int>(x % (kRanks - 1));
        if (t >= o) ++t;
        const bool get = (x >> 32) % 3 == 0;
        ops_[o].push_back(Op{t, get});
        if (!get) last_[t][o] = stamp(kRandom, o, i);
      }
      const int right = (o + 1) % kRanks;
      last_[right][o] = stamp(kFence, o, kFences - 1);
    }
  }

  Pass run(Recorder& rec, bool inject) override {
    Pass p;
    halo_us_.clear();
    fence_ticks_ = 0;
    random_elapsed_ = 0;
    bad_ = 0;
    const std::uint64_t ops =
        static_cast<std::uint64_t>(kRanks) * (kOps + kHalo + kFences);
    const JobOut o = run_job(
        kRanks, rec, p, inject,
        [this](pmi::Context& c, JobCtx& jc) { return rank_main(c, jc); });
    p.attempted = ops;
    p.failed = o.ok ? bad_ : ops;
    if (!o.ok) return p;
    add_latency_figures(p, halo_us_);
    p.figures["rma_op_us"] = sim::to_usec(random_elapsed_) /
                             (static_cast<double>(kOps) * kRanks);
    p.figures["fence_us"] = sim::to_usec(fence_ticks_) /
                            (static_cast<double>(kFences) * kRanks);
    return p;
  }

 private:
  static constexpr int kRanks = 64;
  static constexpr int kOps = 64;        // random-phase ops per rank
  static constexpr int kFlushEvery = 16;
  static constexpr int kHalo = 20;       // halo iterations per rank
  static constexpr int kFences = 4;      // fence epochs
  static constexpr std::size_t kMsg = 256;
  /// Window layout: kRanks origin slots, then a read-only region the gets
  /// target, filled with a per-rank seeded pattern.
  static constexpr std::size_t kReadOnly = kRanks * kMsg;
  static constexpr std::size_t kWinBytes = kReadOnly + kMsg;
  enum Phase : std::uint64_t { kRandom = 1, kHaloPhase = 2, kFence = 3 };

  struct Op {
    int target;
    bool get;
  };

  /// Identifies one put; also the key of its payload pattern.
  static std::uint64_t stamp(std::uint64_t phase, int origin, int i) {
    return (phase << 48) | (static_cast<std::uint64_t>(origin) << 32) |
           static_cast<std::uint64_t>(i);
  }
  std::uint64_t payload_key(std::uint64_t st) const { return seed_ ^ st; }
  std::uint64_t read_only_key(int rank) const {
    return seed_ ^ (0xabcdull << 48) ^ static_cast<std::uint64_t>(rank);
  }
  /// Request ids: a put or get shares its id with the flush that completes it.
  static std::uint64_t req_id(int rank, std::uint64_t phase, int i) {
    return (static_cast<std::uint64_t>(rank + 1) << 40) | (phase << 32) |
           static_cast<std::uint64_t>(i);
  }

  bool matches(const std::byte* got, std::uint64_t key) const {
    std::byte want[kMsg];
    fill_pattern(want, kMsg, key);
    return std::memcmp(got, want, kMsg) == 0;
  }

  sim::Task<void> rank_main(pmi::Context& ctx, JobCtx& jc) {
    Recorder& rec = *jc.rec;
    const int me = ctx.rank;
    const int right = (me + 1) % kRanks;
    mpi::RuntimeConfig cfg = default_stack();
    cfg.stack.channel.lazy_connect = true;
    cfg.stack.channel.qp_budget = 32;
    cfg.stack.channel.srq_pool_rings = 32;
    mpi::Runtime rt(ctx, cfg);
    co_await traced_init(rt, ctx, jc);
    mpi::Communicator& world = rt.world();

    std::vector<std::byte> wmem(kWinBytes);
    fill_pattern(wmem.data() + kReadOnly, kMsg, read_only_key(me));
    std::vector<std::byte> src(kFlushEvery * kMsg), dst(kFlushEvery * kMsg);
    const int create = jc.open_rank(ctx, "mpi.window_create", "mpi");
    std::unique_ptr<mpi::Window> win =
        co_await mpi::Window::create(world, wmem.data(), wmem.size());
    co_await win->fence();
    jc.close(ctx, create);
    jc.setup_done(ctx);

    // Random-target put/get mix, flush_all every kFlushEvery ops.
    int ph = jc.open_phase(ctx, "rma.random", "bench");
    win->lock_all();
    co_await rec.call(ctx, "mpi.barrier", 0, world.barrier());
    const sim::Tick t0 = ctx.sim().now();
    const std::vector<Op>& ops = ops_[static_cast<std::size_t>(me)];
    for (int i = 0; i < kOps; ++i) {
      const Op& op = ops[static_cast<std::size_t>(i)];
      const std::size_t slot = static_cast<std::size_t>(i % kFlushEvery) * kMsg;
      const std::uint64_t req = req_id(me, kRandom, i / kFlushEvery);
      if (op.get) {
        co_await rec.call(ctx, "mpi.get", req,
                          win->get(dst.data() + slot, kMsg, kByte, op.target,
                                   kReadOnly));
      } else {
        fill_pattern(src.data() + slot, kMsg,
                     payload_key(stamp(kRandom, me, i)));
        co_await rec.call(ctx, "mpi.put", req,
                          win->put(src.data() + slot, kMsg, kByte, op.target,
                                   static_cast<std::size_t>(me) * kMsg));
      }
      if ((i + 1) % kFlushEvery != 0) continue;
      co_await rec.call(ctx, "mpi.flush_all", req, win->flush_all());
      for (int j = i + 1 - kFlushEvery; j <= i; ++j) {
        const Op& g = ops[static_cast<std::size_t>(j)];
        const std::size_t at = static_cast<std::size_t>(j % kFlushEvery) * kMsg;
        if (g.get && !matches(dst.data() + at, read_only_key(g.target))) ++bad_;
      }
    }
    co_await rec.call(ctx, "mpi.unlock_all", req_id(me, kRandom, kOps),
                      win->unlock_all());
    co_await rec.call(ctx, "mpi.barrier", 0, world.barrier());
    if (me == 0) random_elapsed_ = ctx.sim().now() - t0;
    jc.close(ctx, ph);

    // Halo ring: put to the right neighbour, flush it; one latency sample
    // per iteration and rank.
    ph = jc.open_phase(ctx, "rma.halo", "bench");
    win->lock_all();
    for (int it = 0; it < kHalo; ++it) {
      const std::uint64_t req = req_id(me, kHaloPhase, it);
      fill_pattern(src.data(), kMsg, payload_key(stamp(kHaloPhase, me, it)));
      const sim::Tick t = ctx.sim().now();
      co_await rec.call(ctx, "mpi.put", req,
                        win->put(src.data(), kMsg, kByte, right,
                                 static_cast<std::size_t>(me) * kMsg));
      co_await rec.call(ctx, "mpi.flush", req, win->flush(right));
      halo_us_.push_back(sim::to_usec(ctx.sim().now() - t));
    }
    co_await rec.call(ctx, "mpi.unlock_all", req_id(me, kHaloPhase, kHalo),
                      win->unlock_all());
    co_await rec.call(ctx, "mpi.fence", req_id(me, kHaloPhase, kHalo),
                      win->fence());
    jc.close(ctx, ph);

    // Fence epochs: one put to the right neighbour per epoch.
    ph = jc.open_phase(ctx, "rma.fence", "bench");
    for (int e = 0; e < kFences; ++e) {
      const std::uint64_t req = req_id(me, kFence, e);
      fill_pattern(src.data(), kMsg, payload_key(stamp(kFence, me, e)));
      const sim::Tick t = ctx.sim().now();
      co_await rec.call(ctx, "mpi.put", req,
                        win->put(src.data(), kMsg, kByte, right,
                                 static_cast<std::size_t>(me) * kMsg));
      co_await rec.call(ctx, "mpi.fence", req, win->fence());
      fence_ticks_ += ctx.sim().now() - t;
    }
    jc.close(ctx, ph);
    jc.measured_done(ctx);

    // Read-back after the last fence: each origin's slot holds its last
    // put, and the read-only region is untouched.
    const auto& last = last_[static_cast<std::size_t>(me)];
    for (int o = 0; o < kRanks; ++o) {
      const std::uint64_t st = last[static_cast<std::size_t>(o)];
      const std::byte* slot = wmem.data() + static_cast<std::size_t>(o) * kMsg;
      if (st != 0 && !matches(slot, payload_key(st))) ++bad_;
    }
    if (!matches(wmem.data() + kReadOnly, read_only_key(me))) ++bad_;

    jc.rma_bytes += (kOps + kHalo + kFences) * kMsg;
    jc.snapshot(rt, win.get());
    co_await traced_finalize(rt, ctx, jc);
  }

  std::uint64_t seed_;
  std::vector<std::vector<Op>> ops_;
  std::vector<std::vector<std::uint64_t>> last_;
  // Per-pass results.
  std::vector<double> halo_us_;
  sim::Tick fence_ticks_ = 0;
  sim::Tick random_elapsed_ = 0;
  std::uint64_t bad_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "p2p") return std::make_unique<P2p>(seed);
  if (name == "nas-a4") return std::make_unique<NasA4>();
  if (name == "rma-64") return std::make_unique<Rma64>(seed);
  return nullptr;
}

}  // namespace perfbench
