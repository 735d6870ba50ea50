// perfbench: runs one workload closed-loop for a host-time budget and
// prints its metrics; the last stdout line is one JSON object
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Usage:
//
//   perfbench --workload p2p|nas-a4|rma-64 --seed N --seconds S --trace 0|1
//             [--trace-out spans.json] [--inject-failure] [--anchors]
//
// Every run starts with one warm-up pass; it is the source of the virtual
// figures and layer counters (deterministic for one binary, seed and
// environment).  Passes then repeat until the budget is spent; host-time
// metrics are taken over them (wall_s and setup_s from each job's fastest
// pass, the per-layer host times as medians).  With --trace 1 the passes alternate
// traced/untraced, so the per-layer output also reports the tracing
// overhead.  --anchors instead cross-checks the workload's virtual figures
// against the figure benches' harness (bench_util.hpp); --inject-failure
// makes the first job of every pass fail, to exercise the failure path.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Pass;
using perfbench::Recorder;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool inject = false;
  bool anchors = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--inject-failure") {
      a.inject = true;
      continue;
    }
    if (k == "--anchors") {
      a.anchors = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double median_of(const std::vector<Pass>& ps, F f) {
  std::vector<double> v;
  for (const Pass& p : ps) v.push_back(f(p));
  return median(v);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss: KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

const char* const kKernels[] = {"ep", "is", "cg", "mg", "ft", "lu", "sp", "bt"};

double figure(const Pass& p, const std::string& name) {
  auto it = p.figures.find(name);
  return it == p.figures.end() ? 0.0 : it->second;
}

double nas_gmean(const Pass& p) {
  double log_sum = 0;
  int n = 0;
  for (const char* k : kKernels) {
    const double m = figure(p, std::string("nas.") + k + ".mops");
    if (m <= 0) continue;
    log_sum += std::log(m);
    ++n;
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

/// Sum over the workload's jobs of each job's fastest pass.  Co-tenant load
/// on a shared host only ever adds time, and it moved a run's median pass
/// far more than this between runs of the same code.
double fastest_jobs(const std::vector<Pass>& timed,
                    std::vector<double> Pass::*per_job) {
  std::vector<double> fastest = timed.front().*per_job;
  for (const Pass& p : timed) {
    for (std::size_t j = 0; j < fastest.size(); ++j) {
      fastest[j] = std::min(fastest[j], (p.*per_job)[j]);
    }
  }
  double sum = 0;
  for (double v : fastest) sum += v;
  return sum;
}

/// The end-to-end metrics every workload measures (BENCHMARK.json
/// "end_to_end").  Units ending in _virt are virtual (modelled) time.
std::vector<Metric> end_to_end(const Pass& first,
                               const std::vector<Pass>& timed) {
  return {
      {"wall_s", "s", fastest_jobs(timed, &Pass::job_wall_s)},
      {"setup_s", "s", fastest_jobs(timed, &Pass::job_setup_s)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"virt_s", "s_virt", sim::to_sec(first.virt)},
  };
}

/// The twelve end-to-end figures, for the human-readable table:
/// the gated four above plus fail_ratio and the workload-specific virtual
/// figures (NaN where the workload does not measure one).
std::vector<Metric> figure_table(const std::string& workload,
                                 const std::vector<Metric>& e2e,
                                 double fail_ratio, const Pass& first) {
  const double na = std::nan("");
  const bool p2p = workload == "p2p", rma = workload == "rma-64";
  std::vector<Metric> t = e2e;
  t.insert(t.begin() + 3, Metric{"fail_ratio", "ratio", fail_ratio});
  t.push_back({"lat_p50_us", "us_virt",
               p2p || rma ? figure(first, "lat_p50_us") : na});
  t.push_back({"lat_p99_us", "us_virt",
               p2p || rma ? figure(first, "lat_p99_us") : na});
  t.push_back({"bw_64k_MBps", "MB/s_virt",
               p2p ? figure(first, "bw_64k_MBps") : na});
  t.push_back({"bw_1m_MBps", "MB/s_virt",
               p2p ? figure(first, "bw_1m_MBps") : na});
  t.push_back({"rma_op_us", "us_virt", rma ? figure(first, "rma_op_us") : na});
  t.push_back({"fence_us", "us_virt", rma ? figure(first, "fence_us") : na});
  t.push_back({"nas_mops_gmean", "Mop/s_virt",
               workload == "nas-a4" ? nas_gmean(first) : na});
  return t;
}

/// The per-layer metrics (BENCHMARK.json "per_layer"), in its order.  A
/// metric the workload does not exercise reads 0.
std::vector<Metric> per_layer(const std::string& workload, const Pass& first,
                              const std::vector<Pass>& untraced,
                              const std::vector<Pass>& traced,
                              const Recorder& spans) {
  auto L = [&first](const char* k) {
    auto it = first.layer.find(k);
    return it == first.layer.end() ? 0.0 : it->second;
  };
  const double run_host =
      median_of(untraced, [](const Pass& p) { return p.run_host_s; });
  const double wall =
      median_of(untraced, [](const Pass& p) { return p.wall_s; });
  const double wall_traced =
      median_of(traced, [](const Pass& p) { return p.wall_s; });
  const std::map<std::string, double> self_v = spans.self_time(false);
  const std::map<std::string, double> self_h = spans.self_time(true);
  auto self = [](const std::map<std::string, double>& m, const char* layer) {
    auto it = m.find(layer);
    return it == m.end() ? 0.0 : it->second;
  };

  std::vector<Metric> m = {
      {"sim.events", "count", L("sim.events")},
      {"sim.events_per_s", "1/s", ratio(L("sim.events"), run_host)},
      {"sim.pool_hit_ratio", "ratio",
       ratio(L("sim.pool_hits"), L("sim.pool_hits") + L("sim.pool_misses"))},
      {"sim.run_host_s", "s", run_host},
      {"ib.writes", "count", L("ib.writes")},
      {"ib.reads", "count", L("ib.reads")},
      {"ib.sends", "count", L("ib.sends")},
      {"ib.atomics", "count", L("ib.atomics")},
      {"ib.wire_bytes", "B", L("ib.wire_bytes")},
      {"ib.wire_per_payload", "ratio",
       ratio(L("ib.wire_bytes"), L("payload_bytes"))},
      {"ib.link_busy_ratio", "ratio", L("ib.link_busy_ratio")},
      {"ib.bus_busy_ratio", "ratio", L("ib.bus_busy_ratio")},
      {"ib.copied_bytes", "B", L("ib.copied_bytes")},
      {"pmi.kvs_keys", "count", L("pmi.kvs_keys")},
      {"rdmach.eager_ops", "count", L("rdmach.eager_ops")},
      {"rdmach.eager_bytes", "B", L("rdmach.eager_bytes")},
      {"rdmach.rndv_read_ops", "count", L("rdmach.rndv_read_ops")},
      {"rdmach.rndv_read_bytes", "B", L("rdmach.rndv_read_bytes")},
      {"rdmach.rndv_write_ops", "count", L("rdmach.rndv_write_ops")},
      {"rdmach.regcache_hit_ratio", "ratio",
       ratio(L("rdmach.regcache_hits"),
             L("rdmach.regcache_hits") + L("rdmach.regcache_misses"))},
      {"rdmach.credit_stalls", "count", L("rdmach.credit_stalls")},
      {"rdmach.qps_created", "count", L("rdmach.qps_created")},
      {"rdmach.connects_on_demand", "count", L("rdmach.connects_on_demand")},
      {"rdmach.qps_evicted", "count", L("rdmach.qps_evicted")},
      {"rdmach.qp_thrash", "count", L("rdmach.qp_thrash")},
      {"rdmach.resident_bytes_max", "B", L("rdmach.resident_bytes_max")},
      {"rdmach.retransmits", "count", L("rdmach.retransmits")},
      {"rdmach.recoveries", "count", L("rdmach.recoveries")},
      {"mpi.sends", "count", L("mpi.sends")},
      {"mpi.recvs", "count", L("mpi.recvs")},
      {"mpi.unexpected_ratio", "ratio",
       ratio(L("mpi.unexpected"), L("mpi.recvs"))},
  };
  for (const char* call : {"send", "recv", "wait_all", "put", "get", "flush",
                           "flush_all", "fence", "barrier"}) {
    const std::string span = std::string("mpi.") + call;
    m.push_back({span + "_us", "us_virt", spans.mean_virtual_us(span.c_str())});
  }
  const bool rma = workload == "rma-64";
  const std::vector<Metric> tail = {
      {"mpi.win_puts", "count", L("mpi.win_puts")},
      {"mpi.win_gets", "count", L("mpi.win_gets")},
      {"mpi.win_flushes", "count", L("mpi.win_flushes")},
      {"mpi.win_replays", "count", L("mpi.win_replays")},
      {"mpi.init_host_s", "s",
       median_of(untraced, [](const Pass& p) { return p.init_host_s; })},
      {"mpi.window_create_share", "ratio",
       rma ? median_of(untraced,
                       [](const Pass& p) {
                         return ratio(p.window_host_s, p.setup_s);
                       })
           : 0.0},
      {"mpi.lat_p50_us", "us_virt", figure(first, "lat_p50_us")},
      {"mpi.lat_p99_us", "us_virt", figure(first, "lat_p99_us")},
      {"mpi.lat_samples", "count", figure(first, "lat_samples")},
      {"mpi.bw_64k_MBps", "MB/s_virt", figure(first, "bw_64k_MBps")},
      {"mpi.bw_1m_MBps", "MB/s_virt", figure(first, "bw_1m_MBps")},
      {"mpi.rma_op_us", "us_virt", figure(first, "rma_op_us")},
      {"mpi.fence_epoch_us", "us_virt", figure(first, "fence_us")},
      {"nas.mops_gmean", "Mop/s_virt", nas_gmean(first)},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  for (const char* k : kKernels) {
    const std::string key = std::string("nas.") + k;
    m.push_back({key + ".virt_ms", "ms_virt", figure(first, key + ".virt_ms")});
    m.push_back({key + ".events", "count", figure(first, key + ".events")});
    m.push_back({key + ".host_share", "ratio",
                 median_of(untraced, [&key](const Pass& p) {
                   auto it = p.kernel_host_s.find(key);
                   return it == p.kernel_host_s.end()
                              ? 0.0
                              : ratio(it->second, p.wall_s);
                 })});
  }
  m.push_back({"mpi.self_virt_s", "s_virt", self(self_v, "mpi")});
  m.push_back({"nas.self_virt_s", "s_virt", self(self_v, "nas")});
  m.push_back({"bench.self_host_s", "s", self(self_h, "bench")});
  m.push_back({"sim.self_host_s", "s", self(self_h, "sim")});
  m.push_back({"ib.self_host_s", "s", self(self_h, "ib")});
  m.push_back({"pmi.self_host_s", "s", self(self_h, "pmi")});
  m.push_back({"trace.overhead_ratio", "ratio",
               wall > 0 ? wall_traced / wall - 1.0 : 0.0});
  return m;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n-- %s --\n", title);
  for (const Metric& m : ms) {
    if (std::isnan(m.value)) {
      std::printf("  %-28s %14s  %s\n", m.name.c_str(), "-", m.unit.c_str());
    } else {
      std::printf("  %-28s %14.6g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

/// The final stdout line.
void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// --anchors: the workload's virtual figures against the figure benches'
/// harness on the same configuration.  p2p must match exactly; NAS Mop/s
/// within heap-layout drift (the RegCache keys on host addresses).
int check_anchors(const std::string& workload, perfbench::Workload& wl) {
  Recorder off(false);
  const Pass p = wl.run(off, false);
  const mpi::RuntimeConfig cfg =
      benchutil::design_config(rdmach::Design::kZeroCopy);
  bool ok = p.failed == 0 && p.errors.empty();
  auto row = [&ok](const std::string& name, double got, double want,
                   double tol, const char* seed_build) {
    const double dev = want != 0 ? std::fabs(got / want - 1.0) : 1.0;
    const bool pass = dev <= tol;
    ok = ok && pass;
    std::printf("  %-16s perfbench %.6f  bench_util %.6f  dev %.2e  %s  "
                "(seed build: %s)\n",
                name.c_str(), got, want, dev, pass ? "ok" : "MISMATCH",
                seed_build);
  };
  std::printf("anchor cross-check: %s vs bench_util.hpp, same config\n",
              workload.c_str());
  if (workload == "p2p") {
    row("lat_4B_us", figure(p, "lat_mean_us"),
        benchutil::mpi_latency_usec(cfg, 4), 1e-9, "7.53");
    row("bw_64k_MBps", figure(p, "bw_64k_MBps"),
        benchutil::mpi_bandwidth_mbps(cfg, 64 * 1024), 1e-9, "525.1");
    row("bw_1m_MBps", figure(p, "bw_1m_MBps"),
        benchutil::mpi_bandwidth_mbps(cfg, 1u << 20), 1e-9, "814.0");
  } else if (workload == "nas-a4") {
    const char* seed_build[] = {"78.4",   "145.6",  "729.0",  "3127.1",
                                "3122.8", "1780.3", "1374.3", "3612.4"};
    for (int k = 0; k < 8; ++k) {
      const std::string key = std::string("nas.") + kKernels[k];
      row(key + ".mops", figure(p, key + ".mops"),
          benchutil::run_nas(kKernels[k], 4, nas::Class::A, cfg).mops, 0.03,
          seed_build[k]);
    }
  } else {
    std::printf("  no figure bench runs this mix; outputs checked: %s\n",
                p.failed == 0 ? "ok" : "FAILED");
  }
  std::printf("anchors: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload p2p|nas-a4|rma-64 --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--inject-failure] [--anchors]\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> wl =
      perfbench::make_workload(a.workload, a.seed);
  if (!wl) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  // Keep freed memory in the process: no heap trimming, and buffers up to
  // 32 MiB come from the heap rather than a fresh mmap.  Passes after the
  // warm-up then reuse its pages, so they time the simulator rather than
  // the kernel faulting a pass's buffers (400 MB on rma-64) back in.
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  if (a.anchors) return check_anchors(a.workload, *wl);

  const double t_start = perfbench::host_now();
  Recorder off(false), kept(true), scratch(true);
  const Pass first = wl->run(off, a.inject);
  std::vector<Pass> untraced, traced;
  std::uint64_t attempted = first.attempted, failed = first.failed;
  std::vector<std::string> errors = first.errors;
  for (int k = 0;; ++k) {
    const bool done = perfbench::host_now() - t_start >= a.seconds &&
                      (!untraced.empty() || !traced.empty()) &&
                      (!a.trace || (!traced.empty() && !untraced.empty()));
    if (done) break;
    const bool tr = a.trace && k % 2 == 0;
    Recorder& rec = !tr ? off : traced.empty() ? kept : scratch;
    scratch.clear();
    Pass p = wl->run(rec, a.inject);
    attempted += p.attempted;
    failed += p.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    (tr ? traced : untraced).push_back(std::move(p));
  }

  // Virtual time depends on the heap layout (RegCache keys on host
  // addresses), and passes after the warm-up one see a different layout:
  // report how far their virtual figures moved.
  double virt_dev = 0, fig_dev = 0;
  std::string fig_worst = "-";
  auto dev = [](double v, double ref) {
    return ref != 0 ? std::fabs(v / ref - 1.0) : 0.0;
  };
  for (const auto* ps : {&untraced, &traced}) {
    for (const Pass& p : *ps) {
      virt_dev = std::max(virt_dev, dev(sim::to_sec(p.virt),
                                        sim::to_sec(first.virt)));
      for (const auto& [k, v] : first.figures) {
        const double d = dev(figure(p, k), v);
        if (d > fig_dev) {
          fig_dev = d;
          fig_worst = k;
        }
      }
    }
  }

  const bool correct = failed == 0 && errors.empty();
  const double fail_ratio =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d passes=%zu "
              "(+1 warm-up)\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, untraced.size() + traced.size());
  std::printf("virtual drift across passes: virt_s %.4f %%, worst figure %s "
              "%.4f %%\n",
              100 * virt_dev, fig_worst.c_str(), 100 * fig_dev);
  for (const std::string& e : errors) std::printf("error: %s\n", e.c_str());
  std::printf("outputs: %s (%llu ops attempted, %llu failed)\n",
              correct ? "checked ok" : "FAILED",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));

  for (const auto& [name, field] :
       {std::pair{"wall_s", &Pass::wall_s}, {"setup_s", &Pass::setup_s}}) {
    std::vector<double> v;
    for (const Pass& p : untraced) v.push_back(p.*field);
    std::sort(v.begin(), v.end());
    auto q = [&v](double f) {
      return v[static_cast<std::size_t>(f * static_cast<double>(v.size() - 1))];
    };
    std::printf("%s over untraced passes: min %.6f p10 %.6f p25 %.6f "
                "median %.6f max %.6f\n",
                name, v.front(), q(0.1), q(0.25), median(v), v.back());
  }

  const std::vector<Metric> e2e = end_to_end(first, untraced);
  if (!a.trace) {
    print_table("end-to-end", figure_table(a.workload, e2e, fail_ratio, first));
    print_json(correct, attempted, failed, e2e);
    return correct ? 0 : 1;
  }

  const std::vector<Metric> layers =
      per_layer(a.workload, first, untraced, traced, kept);
  print_table("per-layer (traced run)", layers);
  std::printf("  ch3: no counters of its own -- it forwards the rdmach counters "
              "above; its self time needs spans inside src/\n");
  for (const auto& [k, s] : untraced.front().kernel_host_s) {
    std::printf("  %s host seconds (first untraced pass): %.6f\n", k.c_str(), s);
  }
  std::printf("  window create host seconds (first untraced pass): %.6f\n",
              a.workload == "rma-64" ? untraced.front().window_host_s : 0.0);
  std::printf("  tracing overhead: traced wall_s %.6f vs untraced %.6f\n",
              median_of(traced, [](const Pass& p) { return p.wall_s; }),
              median_of(untraced, [](const Pass& p) { return p.wall_s; }));
  if (!a.trace_out.empty()) {
    if (kept.write(a.trace_out)) {
      std::printf("  spans: %zu written to %s\n", kept.spans().size(),
                  a.trace_out.c_str());
    } else {
      std::printf("  spans: cannot write %s\n", a.trace_out.c_str());
    }
  }
  print_json(correct, attempted, failed, layers);
  return correct ? 0 : 1;
}
