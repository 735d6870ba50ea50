// The multi-method channel of Figure 1: per-connection method selection --
// literally shared memory for peers on the same node, the zero-copy
// RDMA design for peers across the fabric.  MPICH2's implementation
// structure shows exactly this box ("Multi-Method Channel" combining
// SHMEM and network channels under CH3).
#pragma once

#include "rdmach/channel.hpp"
#include "sim/sync.hpp"

namespace rdmach {

class MultiMethodChannel : public Channel {
 public:
  MultiMethodChannel(pmi::Context& ctx, const ChannelConfig& cfg);
  ~MultiMethodChannel() override;

  sim::Task<void> init() override;
  sim::Task<void> finalize() override;
  Connection& connection(int peer) override;
  sim::Task<std::size_t> put(Connection& conn,
                             std::span<const ConstIov> iovs) override;
  sim::Task<std::size_t> get(Connection& conn,
                             std::span<const Iov> iovs) override;
  sim::Task<void> wait_for_activity() override;
  std::uint64_t activity_count() const override;

  /// True when `peer` shares this rank's node (served by shared memory).
  bool is_local(int peer) const;

  /// The cross-node member channel (null before init); tests reach through
  /// it for recovery statistics.
  Channel* net() const noexcept { return net_.get(); }

  /// Member-channel counters, merged by ChannelStats::operator+=.
  ChannelStats stats() const override {
    ChannelStats s = Channel::stats();
    for (const Channel* m : {shm_.get(), net_.get()}) {
      if (m != nullptr) s += m->stats();
    }
    return s;
  }

  /// stats() sums the members' monotone counters, so exact per-run deltas
  /// need the members themselves reset -- forwarding keeps the sum and its
  /// parts consistent (the bug this override fixes: resetting only the
  /// facade while the members kept counting).
  void reset_stats() override {
    Channel::reset_stats();
    if (shm_) shm_->reset_stats();
    if (net_) net_->reset_stats();
  }

 private:
  struct Routed : Connection {
    Channel* via = nullptr;
    Connection* inner = nullptr;
  };

  std::unique_ptr<Channel> shm_;
  std::unique_ptr<Channel> net_;
  std::vector<std::unique_ptr<Routed>> conns_;
  std::unique_ptr<sim::Trigger> activity_;
};

}  // namespace rdmach
