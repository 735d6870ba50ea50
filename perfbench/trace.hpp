// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded only from the benchmark's own code, around the calls
// it makes into a layer's public functions (Simulator/Fabric/Job
// construction, Simulator::run, Runtime::init, Window::create, every MPI
// and RMA call).  Each span carries both clocks:
//
//   * virtual start/end -- valid for every span;
//   * host start/end    -- meaningful only for job-level spans (rank -1),
//                          which cover a whole construction step or a whole
//                          Simulator::run(): inside a run the simulated
//                          ranks interleave on one host thread, so a
//                          per-rank span's host interval also contains
//                          other ranks' work.
//
// `req` links operations that belong together (a ping and its pong, a put
// and the flush that completes it).  With the recorder off, call() hands
// the task straight back, so untraced runs pay nothing per call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pmi/pmi.hpp"
#include "sim/task.hpp"

namespace perfbench {

/// Host monotonic clock in seconds.
inline double host_now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

struct Span {
  const char* name = "";   // static storage: span names are literals
  const char* layer = "";  // bench / sim / ib / pmi / mpi / nas
  int rank = -1;           // -1: job-level span
  int parent = -1;         // index into the recorder's spans, -1 for none
  std::uint64_t req = 0;   // 0: not part of a multi-op request
  sim::Tick v0 = 0, v1 = 0;
  double h0 = 0, h1 = 0;
};

class Recorder {
 public:
  explicit Recorder(bool on) : on_(on) {}

  int open(const char* name, const char* layer, int rank, int parent,
           std::uint64_t req, sim::Tick v0) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.layer = layer;
    s.rank = rank;
    s.parent = parent;
    s.req = req;
    s.v0 = s.v1 = v0;
    s.h0 = s.h1 = host_now();
    spans_.push_back(s);
    return static_cast<int>(spans_.size()) - 1;
  }

  void close(int id, sim::Tick v1) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.v1 = v1;
    s.h1 = host_now();
  }

  /// Per-rank phase span: the parent of that rank's call spans.
  void set_phase(int rank, int id) { phase_[rank] = id; }
  int phase(int rank) const {
    auto it = phase_.find(rank);
    return it == phase_.end() ? -1 : it->second;
  }

  /// Wraps one call into the MPI layer in a span under the rank's phase.
  sim::Task<void> call(pmi::Context& ctx, const char* name, std::uint64_t req,
                       sim::Task<void> t) {
    if (!on_) return t;
    return traced_void(this, &ctx, name, req, std::move(t));
  }
  template <class T>
  sim::Task<T> call(pmi::Context& ctx, const char* name, std::uint64_t req,
                    sim::Task<T> t) {
    if (!on_) return t;
    return traced<T>(this, &ctx, name, req, std::move(t));
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  void clear() {
    spans_.clear();
    phase_.clear();
  }

  /// Self time of every span (duration minus the union of its children's
  /// intervals), summed per layer.  `host` selects the host clock, which is
  /// only defined for job-level spans, so per-rank spans are skipped there.
  std::map<std::string, double> self_time(bool host) const {
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent < 0 || (host && s.rank >= 0)) continue;
      kids[static_cast<std::size_t>(s.parent)].push_back(interval(s, host));
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (host && s.rank >= 0) continue;
      const auto [b, e] = interval(s, host);
      out[s.layer] += (e - b) - covered(kids[i], b, e);
    }
    return out;
  }

  /// Mean virtual duration (us) of the spans named `name`; 0 when none.
  double mean_virtual_us(const char* name) const {
    double sum = 0;
    std::size_t n = 0;
    for (const Span& s : spans_) {
      if (std::string(s.name) != name) continue;
      sum += sim::to_usec(s.v1 - s.v0);
      ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }

  /// Writes every span as one JSON array (virtual times in us, host times
  /// in s relative to the first span).  Returns false if `path` cannot be
  /// opened.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double h_base = spans_.empty() ? 0.0 : spans_.front().h0;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"rank\":%d,"
                   "\"parent\":%d,\"req\":%llu,\"v0_us\":%.6f,\"v1_us\":%.6f,"
                   "\"h0_s\":%.9f,\"h1_s\":%.9f}%s\n",
                   i, s.name, s.layer, s.rank, s.parent,
                   static_cast<unsigned long long>(s.req), sim::to_usec(s.v0),
                   sim::to_usec(s.v1), s.h0 - h_base, s.h1 - h_base,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  static std::pair<double, double> interval(const Span& s, bool host) {
    if (host) return {s.h0, s.h1};
    return {sim::to_sec(s.v0), sim::to_sec(s.v1)};
  }

  /// Length of the union of `iv` clipped to [b, e].
  static double covered(std::vector<std::pair<double, double>> iv, double b,
                        double e) {
    std::sort(iv.begin(), iv.end());
    double total = 0, cur_b = b, cur_e = b;
    for (auto [s, t] : iv) {
      s = std::max(s, b);
      t = std::min(t, e);
      if (t <= s) continue;
      if (s > cur_e) {
        total += cur_e - cur_b;
        cur_b = s;
        cur_e = t;
      } else {
        cur_e = std::max(cur_e, t);
      }
    }
    return total + (cur_e - cur_b);
  }

  static sim::Task<void> traced_void(Recorder* self, pmi::Context* ctx,
                                     const char* name, std::uint64_t req,
                                     sim::Task<void> t) {
    const int id = self->open(name, "mpi", ctx->rank, self->phase(ctx->rank),
                              req, ctx->sim().now());
    co_await std::move(t);
    self->close(id, ctx->sim().now());
  }

  template <class T>
  static sim::Task<T> traced(Recorder* self, pmi::Context* ctx,
                             const char* name, std::uint64_t req,
                             sim::Task<T> t) {
    const int id = self->open(name, "mpi", ctx->rank, self->phase(ctx->rank),
                              req, ctx->sim().now());
    T v = co_await std::move(t);
    self->close(id, ctx->sim().now());
    co_return v;
  }

  bool on_;
  std::vector<Span> spans_;
  std::map<int, int> phase_;
};

}  // namespace perfbench
