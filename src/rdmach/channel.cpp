#include "rdmach/channel.hpp"

#include <algorithm>
#include <stdexcept>

#include "rdmach/adaptive_channel.hpp"
#include "rdmach/basic_channel.hpp"
#include "rdmach/multi_method_channel.hpp"
#include "rdmach/piggyback_channel.hpp"
#include "rdmach/shm_channel.hpp"
#include "rdmach/zerocopy_channel.hpp"

namespace rdmach {

const char* to_string(Design d) {
  switch (d) {
    case Design::kShm:
      return "shm";
    case Design::kBasic:
      return "basic";
    case Design::kPiggyback:
      return "piggyback";
    case Design::kPipeline:
      return "pipeline";
    case Design::kZeroCopy:
      return "zero-copy";
    case Design::kMultiMethod:
      return "multi-method";
    case Design::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

sim::Task<std::size_t> Channel::put_pinned(Connection& conn,
                                           std::span<const ConstIov> iovs) {
  // Copying designs never hold a reference into the caller's buffers past
  // the put call, so accept and release coincide.
  const std::size_t k = co_await put(conn, iovs);
  conn.loan_accepted += k;
  conn.loan_released += k;
  co_return k;
}

sim::Task<std::size_t> Channel::get_ahead(Connection& conn,
                                          std::span<const Iov> iovs) {
  (void)conn;
  (void)iovs;
  co_return 0;  // no lookahead support
}

sim::Task<bool> Channel::attach_rndv(Connection& conn,
                                     std::span<const Iov> sink) {
  (void)conn;
  (void)sink;
  co_return false;  // no lookahead support
}

sim::Task<void> Channel::pre_progress() {
  co_return;  // dense designs have no out-of-band service work
}

ChannelStats& ChannelStats::operator+=(const ChannelStats& o) {
  const auto add = [](ProtoStats& to, const ProtoStats& from) {
    to.ops += from.ops;
    to.bytes += from.bytes;
    to.retries += from.retries;
    to.mbps = std::max(to.mbps, from.mbps);
  };
  add(eager, o.eager);
  add(rndv_write, o.rndv_write);
  add(rndv_read, o.rndv_read);
  recoveries += o.recoveries;
  crc_failures += o.crc_failures;
  retransmits += o.retransmits;
  reg_fallbacks += o.reg_fallbacks;
  cq_overruns += o.cq_overruns;
  credit_stalls += o.credit_stalls;
  watchdog_trips += o.watchdog_trips;
  replayed_bytes += o.replayed_bytes;
  eager_threshold = std::max(eager_threshold, o.eager_threshold);
  write_read_crossover = std::max(write_read_crossover, o.write_read_crossover);
  if (o.rails.size() > rails.size()) rails.resize(o.rails.size());
  for (std::size_t i = 0; i < o.rails.size(); ++i) {
    rails[i].bytes += o.rails[i].bytes;
    rails[i].stripes += o.rails[i].stripes;
    rails[i].failovers += o.rails[i].failovers;
  }
  rail_failovers += o.rail_failovers;
  rail_quarantines += o.rail_quarantines;
  rail_reinstates += o.rail_reinstates;
  suspicion_trips += o.suspicion_trips;
  false_suspicions += o.false_suspicions;
  degraded_ns += o.degraded_ns;
  qps_created += o.qps_created;
  qps_evicted += o.qps_evicted;
  connects_on_demand += o.connects_on_demand;
  srq_pool_high_water = std::max(srq_pool_high_water, o.srq_pool_high_water);
  resident_bytes += o.resident_bytes;
  qps_live += o.qps_live;
  qp_thrash += o.qp_thrash;
  obits_posted += o.obits_posted;
  obit_fast_fails += o.obit_fast_fails;
  return *this;
}

void Channel::snapshot_protocols(ChannelStats& s) const {
  s.eager = snapshot(eager_track_);
  s.rndv_write = snapshot(rndv_write_track_);
  s.rndv_read = snapshot(rndv_read_track_);
  s.eager_threshold = cfg_.zero_copy_threshold;
}

ChannelStats Channel::stats() const {
  ChannelStats s;
  snapshot_protocols(s);
  return s;
}

void Channel::reset_stats() {
  eager_track_ = ProtoTrack{};
  rndv_write_track_ = ProtoTrack{};
  rndv_read_track_ = ProtoTrack{};
}

std::string ChannelError::to_string() const {
  std::string s = "ChannelError{";
  s += kind_ == kIntegrity ? "integrity" : "dead";
  s += " peer=" + std::to_string(peer_);
  s += ": ";
  s += what();
  if (has_snapshot_) {
    s += "; ";
    s += snapshot_.to_string();
  }
  s += "}";
  return s;
}

std::string RecoverySnapshot::to_string() const {
  return "recovery stuck at " + stage + ": epoch=" + std::to_string(epoch) +
         " attempts=" + std::to_string(attempts) +
         " journal_outstanding=" + std::to_string(journal_outstanding) +
         " rails=" + std::to_string(live_rails) + "/" +
         std::to_string(total_rails) + " nacks=" + std::to_string(nacks) +
         " last_nack_epoch=" + std::to_string(last_nack_epoch);
}

sim::Tick capped_backoff(int attempts) {
  sim::Tick backoff = kRecoveryBackoff;
  for (int i = 1; i < attempts && backoff < kRecoveryBackoffCap; ++i) {
    backoff *= 2;
  }
  return std::min(backoff, kRecoveryBackoffCap);
}

std::unique_ptr<Channel> Channel::create(pmi::Context& ctx,
                                         const ChannelConfig& cfg) {
  if (cfg.chunk_bytes <= kSlotOverhead || kRingBytes % cfg.chunk_bytes != 0 ||
      kRingBytes / cfg.chunk_bytes < 2) {
    throw std::invalid_argument(
        "channel config: ring must hold >= 2 chunks and chunks must exceed "
        "the slot overhead");
  }
  if (cfg.tail_update_slots > kRingBytes / cfg.chunk_bytes) {
    throw std::invalid_argument(
        "channel config: tail_update_slots exceeds the ring's slot count");
  }
  switch (cfg.design) {
    case Design::kShm:
      return std::make_unique<ShmChannel>(ctx, cfg);
    case Design::kBasic:
      return std::make_unique<BasicChannel>(ctx, cfg);
    case Design::kPiggyback:
      return std::make_unique<PiggybackChannel>(ctx, cfg);
    case Design::kPipeline:
      return std::make_unique<PipelineChannel>(ctx, cfg);
    case Design::kZeroCopy:
      return std::make_unique<ZeroCopyChannel>(ctx, cfg);
    case Design::kMultiMethod:
      return std::make_unique<MultiMethodChannel>(ctx, cfg);
    case Design::kAdaptive:
      return std::make_unique<AdaptiveChannel>(ctx, cfg);
  }
  throw std::invalid_argument("unknown channel design");
}

}  // namespace rdmach
