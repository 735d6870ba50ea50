// CH3 implemented directly over the verbs layer -- paper section 6.
//
// Eager messages and rendezvous control packets stream through the same
// piggybacked/pipelined slot rings as the RDMA-channel designs, but large
// messages use a CH3-level handshake with RDMA *write* (Figure 12):
//
//   sender                          receiver
//     | --- RTS {envelope, sreq} ---> |   (match; register user buffer)
//     | <-- CTS {raddr, rkey, rreq} - |
//     | ===== RDMA write data ======> |   (straight into the user buffer)
//     | --- FIN {rreq} -------------> |   (receive completes)
//
// Because raw RDMA write outperforms RDMA read for mid-sized messages
// (Figure 15), this design wins over the read-based RDMA-channel zero-copy
// in the 32K-256K band (Figure 14) -- an artifact of the verbs, not of the
// channel abstraction.
#pragma once

#include <unordered_map>
#include <vector>

#include "ch3/ch3.hpp"
#include "ch3/stream_mux.hpp"
#include "rdmach/piggyback_channel.hpp"
#include "rdmach/reg_cache.hpp"

namespace ch3 {

class IbDirectChannel : public Ch3Channel, private PacketHandler {
 public:
  IbDirectChannel(pmi::Context& ctx, const StackConfig& cfg);

  sim::Task<void> init(EngineHooks& hooks) override;
  sim::Task<void> finalize() override;
  void start_send(int dst, const MatchHeader& hdr, const void* payload,
                  SendReq* req) override;
  void rndv_recv_ready(int src, std::uint64_t token, void* dst,
                       std::size_t len, std::uint64_t cookie) override;
  sim::Task<bool> progress_once() override;
  sim::Task<void> wait_for_activity() override;
  std::uint64_t activity_count() const override;
  int rank() const override { return ctx_->rank; }
  int size() const override { return ctx_->size; }

  rdmach::RegCache& reg_cache() noexcept { return *cache_; }

  /// Slot-ring eager traffic from the verbs member, plus the CH3-level
  /// write-rendezvous volume this class drives itself.
  rdmach::ChannelStats channel_stats() const override {
    rdmach::ChannelStats s = verbs_->stats();
    s += rndv_stats_;
    return s;
  }
  void reset_channel_stats() override {
    verbs_->reset_stats();
    rndv_stats_ = rdmach::ChannelStats{};
  }

 private:
  /// Exposes the protected verbs plumbing of the slot-ring channel that
  /// the rendezvous path needs (QPs, WR ids, completion stash).
  class Verbs : public rdmach::PipelineChannel {
   public:
    using rdmach::PipelineChannel::PipelineChannel;
    using rdmach::PipelineChannel::next_wr_id;
    using rdmach::PipelineChannel::take_completion;
    rdmach::VerbsConnection& vconn(int p) {
      return static_cast<rdmach::VerbsConnection&>(connection(p));
    }
  };

  struct SendRndv {
    int dst = -1;
    const std::byte* payload = nullptr;
    std::size_t len = 0;
    SendReq* req = nullptr;
    std::uint64_t rreq = 0;  // learned from CTS
    ib::MemoryRegion* mr = nullptr;
  };

  struct CtsTodo {
    int src;
    std::uint64_t sreq, rreq, raddr;
    std::uint32_t rkey;
  };
  struct RecvReady {
    int src;
    std::uint64_t token;
    std::byte* dst;
    std::size_t len;
    std::uint64_t cookie;
  };
  struct PendingWrite {
    std::uint64_t wr_id;
    std::uint64_t sreq;
  };

  Sink on_packet(int src, const PktHeader& hdr) override;
  void on_payload_done(int src, const PktHeader& hdr,
                       const Sink& sink) override;

  pmi::Context* ctx_;
  StackConfig cfg_;
  std::unique_ptr<Verbs> verbs_;
  std::unique_ptr<StreamMux> mux_;
  std::unique_ptr<rdmach::RegCache> cache_;
  EngineHooks* hooks_ = nullptr;

  std::uint64_t next_token_ = 0;
  std::unordered_map<std::uint64_t, SendRndv> send_rndv_;
  std::unordered_map<std::uint64_t, ib::MemoryRegion*> recv_mr_;  // by rreq
  std::vector<CtsTodo> cts_todo_;
  std::vector<RecvReady> recv_ready_todo_;
  std::vector<PendingWrite> pending_writes_;
  std::vector<std::uint64_t> fin_done_;
  /// The CH3-level write-rendezvous traffic (rndv_write ops/bytes only).
  rdmach::ChannelStats rndv_stats_;
};

}  // namespace ch3
