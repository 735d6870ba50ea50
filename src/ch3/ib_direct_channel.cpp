#include "ch3/ib_direct_channel.hpp"

#include <algorithm>

namespace ch3 {

IbDirectChannel::IbDirectChannel(pmi::Context& ctx, const StackConfig& cfg)
    : ctx_(&ctx),
      cfg_(cfg),
      verbs_(std::make_unique<Verbs>(ctx, cfg.channel)) {}

sim::Task<void> IbDirectChannel::init(EngineHooks& hooks) {
  hooks_ = &hooks;
  co_await verbs_->init();
  mux_ = std::make_unique<StreamMux>(*verbs_,
                                     *static_cast<PacketHandler*>(this));
  cache_ = std::make_unique<rdmach::RegCache>(
      verbs_->pd(), rdmach::kRegCacheCapacity,
      cfg_.channel.use_reg_cache);
}

sim::Task<void> IbDirectChannel::finalize() {
  co_await cache_->flush();
  co_await verbs_->finalize();
}

void IbDirectChannel::start_send(int dst, const MatchHeader& hdr,
                                 const void* payload, SendReq* req) {
  if (hdr.length < cfg_.rndv_threshold) {
    PktHeader pkt;
    pkt.type = PktType::kEager;
    pkt.match = hdr;
    mux_->enqueue(dst, pkt, payload, hdr.length, [req] { req->done = true; });
    return;
  }
  // Rendezvous: announce; the data moves only after the CTS.
  const std::uint64_t token = ++next_token_;
  send_rndv_[token] = SendRndv{dst, static_cast<const std::byte*>(payload),
                               hdr.length, req, 0, nullptr};
  PktHeader pkt;
  pkt.type = PktType::kRts;
  pkt.match = hdr;
  pkt.sreq = token;
  mux_->enqueue(dst, pkt, nullptr, 0);
}

void IbDirectChannel::rndv_recv_ready(int src, std::uint64_t token, void* dst,
                                      std::size_t len, std::uint64_t cookie) {
  recv_ready_todo_.push_back(RecvReady{src, token,
                                       static_cast<std::byte*>(dst), len,
                                       cookie});
}

Sink IbDirectChannel::on_packet(int src, const PktHeader& hdr) {
  switch (hdr.type) {
    case PktType::kEager:
      return hooks_->on_eager(src, hdr.match);
    case PktType::kRts:
      hooks_->on_rts(src, hdr.match, hdr.sreq);
      return {};
    case PktType::kCts:
      cts_todo_.push_back(CtsTodo{src, hdr.sreq, hdr.rreq, hdr.raddr,
                                  hdr.rkey});
      return {};
    case PktType::kFin: {
      auto it = recv_mr_.find(hdr.rreq);
      if (it == recv_mr_.end()) {
        throw std::logic_error("FIN for unknown rendezvous receive");
      }
      // MR release is deferred to progress (needs a coroutine).
      fin_done_.push_back(hdr.rreq);
      return {};
    }
  }
  throw std::logic_error("IbDirectChannel: bad packet type");
}

void IbDirectChannel::on_payload_done(int src, const PktHeader& hdr,
                                      const Sink& sink) {
  (void)src;
  hooks_->on_eager_complete(sink, hdr.match);
}

sim::Task<bool> IbDirectChannel::progress_once() {
  bool moved = co_await mux_->progress();

  // Receiver side: matched RTSes -> register the user buffer, send CTS.
  while (!recv_ready_todo_.empty()) {
    RecvReady rr = recv_ready_todo_.back();
    recv_ready_todo_.pop_back();
    ib::MemoryRegion* mr = co_await cache_->acquire(rr.dst, rr.len);
    recv_mr_[rr.cookie] = mr;
    PktHeader cts;
    cts.type = PktType::kCts;
    cts.sreq = rr.token;
    cts.rreq = rr.cookie;
    cts.raddr = reinterpret_cast<std::uint64_t>(rr.dst);
    cts.rkey = mr->rkey();
    mux_->enqueue(rr.src, cts, nullptr, 0);
    moved = true;
  }

  // Sender side: CTS -> register the source buffer and push the data.
  while (!cts_todo_.empty()) {
    CtsTodo cts = cts_todo_.back();
    cts_todo_.pop_back();
    auto it = send_rndv_.find(cts.sreq);
    if (it == send_rndv_.end()) {
      throw std::logic_error("CTS for unknown rendezvous send");
    }
    SendRndv& sr = it->second;
    sr.rreq = cts.rreq;
    sr.mr = co_await cache_->acquire(sr.payload, sr.len);
    const std::uint64_t wr_id = verbs_->next_wr_id();
    verbs_->vconn(cts.src).qp->post_send(ib::SendWr{
        wr_id,
        ib::Opcode::kRdmaWrite,
        {ib::Sge{const_cast<std::byte*>(sr.payload), sr.len, sr.mr->lkey()}},
        cts.raddr,
        cts.rkey,
        /*signaled=*/true});
    // FIN goes out immediately behind the data: RC ordering on the QP
    // guarantees the receiver sees it only after the write has landed, so
    // the receive completes at data arrival instead of a full ack later.
    PktHeader fin;
    fin.type = PktType::kFin;
    fin.rreq = sr.rreq;
    mux_->enqueue(cts.src, fin, nullptr, 0);
    pending_writes_.push_back(PendingWrite{wr_id, cts.sreq});
    moved = true;
  }

  // Sender side: completed data writes -> send-request completion.
  for (std::size_t i = 0; i < pending_writes_.size();) {
    ib::Wc wc;
    if (!verbs_->take_completion(pending_writes_[i].wr_id, &wc)) {
      ++i;
      continue;
    }
    if (wc.status != ib::WcStatus::kSuccess) {
      throw std::logic_error("rendezvous RDMA write failed");
    }
    auto it = send_rndv_.find(pending_writes_[i].sreq);
    SendRndv sr = it->second;
    send_rndv_.erase(it);
    pending_writes_.erase(pending_writes_.begin() +
                          static_cast<std::ptrdiff_t>(i));
    co_await cache_->release(sr.mr);
    sr.req->done = true;
    ++rndv_stats_.rndv_write.ops;
    rndv_stats_.rndv_write.bytes += sr.len;
    moved = true;
  }

  // Receiver side: FINs seen by the packet handler -> release + complete.
  while (!fin_done_.empty()) {
    const std::uint64_t rreq = fin_done_.back();
    fin_done_.pop_back();
    auto it = recv_mr_.find(rreq);
    co_await cache_->release(it->second);
    recv_mr_.erase(it);
    hooks_->on_rndv_complete(rreq);
    moved = true;
  }

  co_return moved;
}

sim::Task<void> IbDirectChannel::wait_for_activity() {
  return verbs_->wait_for_activity();
}

std::uint64_t IbDirectChannel::activity_count() const {
  return verbs_->activity_count();
}

}  // namespace ch3
