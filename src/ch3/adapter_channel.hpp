// CH3 over the RDMA Channel interface -- the paper's primary architecture.
//
// Every message (any size) is serialized as [PktHeader | payload] into the
// per-VC byte pipe; the underlying RDMA Channel design (basic, piggyback,
// pipeline, zero-copy) decides how the bytes actually move.  In particular
// the zero-copy channel sees the payload as a separate large iov, sends its
// RTS in-stream, and the receive side's get() lands the RDMA read directly
// in the matched user buffer -- so MPI-level zero-copy falls out of the
// channel abstraction with no CH3-level protocol at all.
#pragma once

#include "ch3/ch3.hpp"
#include "ch3/stream_mux.hpp"

namespace ch3 {

class AdapterChannel : public Ch3Channel, private PacketHandler {
 public:
  AdapterChannel(pmi::Context& ctx, const StackConfig& cfg)
      : ctx_(&ctx), ch_(rdmach::Channel::create(ctx, cfg.channel)) {}

  sim::Task<void> init(EngineHooks& hooks) override {
    hooks_ = &hooks;
    co_await ch_->init();
    // Explicit cast: the private-base conversion must happen here, inside
    // the class, not in make_unique's forwarding context.
    mux_ = std::make_unique<StreamMux>(*ch_,
                                       *static_cast<PacketHandler*>(this));
  }

  sim::Task<void> finalize() override { co_await ch_->finalize(); }

  void start_send(int dst, const MatchHeader& hdr, const void* payload,
                  SendReq* req) override {
    PktHeader pkt;
    pkt.type = PktType::kEager;
    pkt.match = hdr;
    mux_->enqueue(dst, pkt, payload, hdr.length,
                  [req] { req->done = true; });
  }

  void rndv_recv_ready(int, std::uint64_t, void*, std::size_t,
                       std::uint64_t) override {
    // Never reached: this channel emits no RTS packets (rendezvous is the
    // RDMA channel's internal business).
    throw std::logic_error("AdapterChannel has no CH3-level rendezvous");
  }

  sim::Task<bool> progress_once() override { return mux_->progress(); }

  sim::Task<void> wait_for_activity() override {
    return ch_->wait_for_activity();
  }
  std::uint64_t activity_count() const override {
    return ch_->activity_count();
  }

  int rank() const override { return ctx_->rank; }
  int size() const override { return ctx_->size; }

  rdmach::ChannelStats channel_stats() const override { return ch_->stats(); }
  void reset_channel_stats() override { ch_->reset_stats(); }

  rdmach::Channel& channel() noexcept { return *ch_; }

 private:
  Sink on_packet(int src, const PktHeader& hdr) override {
    if (hdr.type != PktType::kEager) {
      throw std::logic_error("AdapterChannel: unexpected packet type");
    }
    return hooks_->on_eager(src, hdr.match);
  }
  void on_payload_done(int src, const PktHeader& hdr,
                       const Sink& sink) override {
    (void)src;
    hooks_->on_eager_complete(sink, hdr.match);
  }

  pmi::Context* ctx_;
  std::unique_ptr<rdmach::Channel> ch_;
  std::unique_ptr<StreamMux> mux_;
  EngineHooks* hooks_ = nullptr;
};

}  // namespace ch3
