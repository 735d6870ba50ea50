// Protocol tracing.
//
// Subsystems emit structured trace records (who, what, how many bytes) so
// tests can assert protocol-level properties -- e.g. "the basic channel
// design issues exactly three RDMA writes per message" or "the zero-copy
// path performed no data memcpy" -- without coupling tests to timing.
// Tracing is a no-op unless a sink is attached.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace sim {

struct TraceRecord {
  Tick at = 0;
  std::string source;  // e.g. "hca0.qp2"
  std::string event;   // e.g. "rdma_write", "memcpy", "reg_mr"
  std::int64_t bytes = 0;
  std::int64_t arg = 0;  // event-specific (wr_id, rkey, chunk index, ...)
};

class TraceSink {
 public:
  void record(Tick at, std::string source, std::string event,
              std::int64_t bytes = 0, std::int64_t arg = 0) {
    records_.push_back(
        TraceRecord{at, std::move(source), std::move(event), bytes, arg});
  }

  const std::vector<TraceRecord>& records() const noexcept { return records_; }
  void clear() { records_.clear(); }

  std::size_t count(const std::string& event) const {
    std::size_t n = 0;
    for (const auto& r : records_) {
      if (r.event == event) ++n;
    }
    return n;
  }

  std::int64_t total_bytes(const std::string& event) const {
    std::int64_t n = 0;
    for (const auto& r : records_) {
      if (r.event == event) n += r.bytes;
    }
    return n;
  }

 private:
  std::vector<TraceRecord> records_;
};

/// Nullable tracing handle embedded in traced subsystems.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(TraceSink* sink) : sink_(sink) {}

  void attach(TraceSink* sink) noexcept { sink_ = sink; }
  bool enabled() const noexcept { return sink_ != nullptr; }

  /// Views, not strings: with no sink attached a call site builds no
  /// temporary, and the strings are made only when a record is kept.
  void record(Tick at, std::string_view source, std::string_view event,
              std::int64_t bytes = 0, std::int64_t arg = 0) const {
    if (sink_ != nullptr) {
      sink_->record(at, std::string(source), std::string(event), bytes, arg);
    }
  }

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace sim
