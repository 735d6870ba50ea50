#include "ib/qp.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/node.hpp"
#include "sim/fault.hpp"

namespace ib {

namespace {

/// Gathers an SGE list into a contiguous staging buffer (models the HCA's
/// DMA engine reading the source at descriptor-processing time).  Staging
/// storage comes from the simulator's buffer pool: per-WQE heap churn is
/// the DES hot path at 1000-rank scale.
sim::BufferPool::Buffer gather(sim::BufferPool& pool,
                               const std::vector<Sge>& sgl) {
  std::size_t total = 0;
  for (const auto& s : sgl) total += s.length;
  sim::BufferPool::Buffer out = pool.acquire(total);
  std::size_t off = 0;
  for (const auto& s : sgl) {
    std::memcpy(out->data() + off, s.addr, s.length);
    off += s.length;
  }
  return out;
}

/// Scatters `len` bytes from `data` into an SGE list; returns bytes placed.
/// memmove, not memcpy: a read response is placed straight from responder
/// memory, which on one host may alias the destination.
std::size_t scatter(const std::byte* data, std::size_t len,
                    const std::vector<Sge>& sgl) {
  std::size_t off = 0;
  for (const auto& s : sgl) {
    if (off >= len) break;
    const std::size_t n = std::min(s.length, len - off);
    std::memmove(s.addr, data + off, n);
    off += n;
  }
  return off;
}

/// Flips one bit of the byte at overall offset `at` of an SGE list.
void flip_byte(const std::vector<Sge>& sgl, std::size_t at) {
  for (const auto& s : sgl) {
    if (at < s.length) {
      s.addr[at] ^= std::byte{1};
      return;
    }
    at -= s.length;
  }
}

constexpr std::int64_t kCtrlBytes = 16;  // read-request packet on the wire

}  // namespace

QueuePair::QueuePair(Hca& hca, ProtectionDomain& pd, CompletionQueue& send_cq,
                     CompletionQueue& recv_cq, std::uint32_t qp_num,
                     Port& port)
    : hca_(&hca),
      port_(&port),
      pd_(&pd),
      send_cq_(&send_cq),
      recv_cq_(&recv_cq),
      qp_num_(qp_num),
      sq_(hca.fabric().sim()),
      responder_q_(hca.fabric().sim()),
      read_credit_(hca.fabric().sim()),
      quiesce_(hca.fabric().sim()),
      connected_(hca.fabric().sim()) {}

Node& QueuePair::node() const { return hca_->node(); }

std::string QueuePair::tag() const {
  return node().name() + ".qp" + std::to_string(qp_num_);
}

void QueuePair::trace(std::string_view event, std::int64_t bytes,
                      std::int64_t arg, std::string_view suffix) const {
  const Fabric& fabric = hca_->fabric();
  if (!fabric.tracer().enabled()) return;
  fabric.tracer().record(fabric.sim().now(), tag().append(suffix), event,
                         bytes, arg);
}

void QueuePair::connect(QueuePair& peer) {
  if (peer_ != nullptr || peer.peer_ != nullptr) {
    throw VerbsError("connect: QP already connected");
  }
  if (&peer == this) throw VerbsError("connect: QP cannot connect to itself");
  peer_ = &peer;
  peer.peer_ = this;
  connected_.fire();
  peer.connected_.fire();
}

sim::Task<void> QueuePair::wait_connected() {
  co_await sim::wait_until(connected_, [this] { return peer_ != nullptr; });
}

sim::Task<bool> QueuePair::wait_connected_until(sim::Tick deadline) {
  sim::Simulator& sim = connected_.simulator();
  // The trigger re-evaluates predicates only when fired; fire it at the
  // deadline so the time clause is observed.
  sim.call_at(deadline, [t = &connected_] { t->fire(); });
  co_await sim::wait_until(connected_, [this, deadline, &sim] {
    return peer_ != nullptr || sim.now() >= deadline;
  });
  co_return peer_ != nullptr;
}

sim::Task<void> QueuePair::quiesce() {
  co_await sim::wait_until(quiesce_, [this] {
    return !busy_ && sq_.empty() && inflight_deliveries_ == 0 &&
           reads_in_flight_ == 0;
  });
}

void QueuePair::reset() {
  if (busy_ || !sq_.empty() || inflight_deliveries_ != 0 ||
      reads_in_flight_ != 0) {
    throw VerbsError("reset: QP not quiesced");
  }
  error_ = false;
}

void QueuePair::post_send(SendWr wr) {
  if (peer_ == nullptr) throw VerbsError("post_send: QP not connected");
  switch (wr.opcode) {
    case Opcode::kRdmaWrite:
      ++hca_->writes_posted;
      break;
    case Opcode::kRdmaRead:
      ++hca_->reads_posted;
      break;
    case Opcode::kSend:
      ++hca_->sends_posted;
      break;
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap:
      ++hca_->atomics_posted;
      break;
  }
  sq_.push(std::move(wr));
  if (!send_started_) {
    send_started_ = true;
    hca_->fabric().sim().spawn_daemon(send_engine(), tag() + ".send");
  }
}

void QueuePair::accept_request(ReadRequest req) {
  responder_q_.push(std::move(req));
  if (!responder_started_) {
    responder_started_ = true;
    hca_->fabric().sim().spawn_daemon(responder_engine(),
                                      tag() + ".responder");
  }
}

void QueuePair::post_recv(RecvWr wr) {
  if (!unclaimed_.empty()) {
    // A send arrived before this receive was posted (modelled as infinite
    // RNR retry); consume it now.
    InboundSend inbound = unclaimed_.pop_front();
    if (inbound.data->size() > wr.total_length()) {
      complete_now(*recv_cq_, Wc{wr.wr_id, WcStatus::kLocalProtectionError,
                                 Opcode::kSend, 0, qp_num_, true});
      return;
    }
    const std::size_t n =
        scatter(inbound.data->data(), inbound.data->size(), wr.sgl);
    complete_now(*recv_cq_, Wc{wr.wr_id, WcStatus::kSuccess, Opcode::kSend, n,
                               qp_num_, true});
    return;
  }
  rq_.push_back(std::move(wr));
}

void QueuePair::complete(CompletionQueue& cq, const Wc& wc, sim::Tick at) {
  // QPs live as long as their HCA; capturing `this` across the delay is
  // safe (close() only flips the error flag).
  hca_->fabric().sim().call_at(at, [this, &cq, wc] { deliver_wc(cq, wc); });
}

void QueuePair::complete_now(CompletionQueue& cq, const Wc& wc) {
  deliver_wc(cq, wc);
}

void QueuePair::complete_write(const Wc& wc, sim::Tick at) {
  hca_->fabric().sim().call_at(
      at, [this, &cq = *send_cq_, wc] {
        auto& naks = hca_->fabric().late_naks_;
        const auto it = std::find(naks.begin(), naks.end(),
                                  std::pair{qp_num_, wc.wr_id});
        if (it == naks.end()) {
          deliver_wc(cq, wc);
          return;
        }
        naks.erase(it);
        deliver_wc(cq, Wc{wc.wr_id, WcStatus::kRemoteAccessError, wc.opcode,
                          0, qp_num_, false});
      });
}

void QueuePair::nak_late_write(std::uint64_t wr_id, bool signaled) {
  Fabric& fabric = hca_->fabric();
  fabric.tracer().record(fabric.sim().now(), node().name(), "late_write_nak",
                         0, wr_id);
  enter_error();
  if (signaled) {
    fabric.late_naks_.emplace_back(qp_num_, wr_id);
  } else {
    complete(*send_cq_,
             Wc{wr_id, WcStatus::kRemoteAccessError, Opcode::kRdmaWrite, 0,
                qp_num_, false},
             fabric.sim().now() + fabric.cfg().ack_latency);
  }
}

void QueuePair::deliver_wc(CompletionQueue& cq, const Wc& wc) {
  Fabric& fabric = hca_->fabric();
  if (sim::FaultSchedule* faults = fabric.faults(); faults != nullptr) {
    // Any fault scheduled on the node's ".cq" scope models a CQ overrun:
    // the entry cannot be queued and is lost from the consumer's view.
    // The CQ keeps it aside so the channel's drain-and-rearm recovery can
    // resurface it as a flush instead of hanging its waiter forever.
    if (faults->check(node().name() + ".cq")) {
      fabric.tracer().record(fabric.sim().now(), cq.name(), "cq_overrun", 0,
                             wc.wr_id);
      cq.overrun_drop(wc);
      hca_->node().dma_arrival().fire();
      return;
    }
  }
  cq.push(wc);
  // A CQE is node activity: progress loops sleeping on dma_arrival must
  // wake for completions too (e.g. a rendezvous write finishing).
  hca_->node().dma_arrival().fire();
}

bool QueuePair::validate_local(const std::vector<Sge>& sgl,
                               std::uint32_t need_access, std::uint64_t wr_id,
                               Opcode op) {
  // All registrations grant local read; kLocalWrite (needed by RDMA-read
  // destinations) is folded into check_sge's coverage test because our
  // register_memory always grants it -- the hook is kept for completeness.
  (void)need_access;
  for (const auto& sge : sgl) {
    if (!pd_->check_sge(sge)) {
      complete_now(*send_cq_, Wc{wr_id, WcStatus::kLocalProtectionError, op, 0,
                                 qp_num_, false});
      enter_error();
      return false;
    }
  }
  return true;
}

void QueuePair::enter_error() { error_ = true; }

void QueuePair::fail_wqe(const SendWr& wr) {
  enter_error();
  const Fabric& fabric = hca_->fabric();
  complete(*send_cq_,
           Wc{wr.wr_id, WcStatus::kTransportError, wr.opcode, 0, qp_num_,
              false},
           fabric.sim().now() + 2 * fabric.cfg().wire_latency);
}

sim::Task<void> QueuePair::kill_wqe(const SendWr& wr) {
  Fabric& fabric = hca_->fabric();
  const FabricConfig& cfg = fabric.cfg();
  trace("fault_kill", static_cast<std::int64_t>(wr.total_length()),
        wr.wr_id);
  co_await fabric.sim().delay(cfg.retry_count * cfg.retry_delay);
  fail_wqe(wr);
}

void QueuePair::read_done() {
  --reads_in_flight_;
  read_credit_.fire();
  quiesce_.fire();
}

void QueuePair::deliver_send(InboundSend inbound) {
  const std::size_t n = inbound.data->size();
  if (rq_.empty()) {
    unclaimed_.push_back(std::move(inbound));
    return;
  }
  RecvWr wr = rq_.pop_front();
  if (n > wr.total_length()) {
    complete_now(*recv_cq_, Wc{wr.wr_id, WcStatus::kLocalProtectionError,
                               Opcode::kSend, 0, qp_num_, true});
    return;
  }
  scatter(inbound.data->data(), n, wr.sgl);
  complete_now(*recv_cq_,
               Wc{wr.wr_id, WcStatus::kSuccess, Opcode::kSend, n, qp_num_,
                  true});
}

sim::Task<void> QueuePair::send_engine() {
  for (;;) {
    SendWr wr = co_await sq_.pop();
    busy_ = true;
    co_await process_wqe(std::move(wr));
    busy_ = false;
    quiesce_.fire();
  }
}

sim::Task<void> QueuePair::process_wqe(SendWr wr) {
  Fabric& fabric = hca_->fabric();
  sim::Simulator& sim = fabric.sim();
  const FabricConfig& cfg = fabric.cfg();
  const std::size_t n = wr.total_length();

  if (error_) {
    complete_now(*send_cq_, Wc{wr.wr_id, WcStatus::kFlushError, wr.opcode, 0,
                               qp_num_, false});
    co_return;
  }

  co_await sim.delay(cfg.wqe_overhead);

  // Gray-failure degrade composed for this WQE from the rail scope and the
  // node scope (sub-scope inheritance: "node0.rail1" inherits "node0"'s
  // windows on top of its own).  Stays inactive -- and costs only the
  // any_degrade() flag test -- when no degrade windows are armed.
  sim::FaultSchedule::DegradeSpec deg;

  // Rail failure domain: any fault scheduled on the "<node>.rail<r>" scope
  // takes the whole port down, sticky -- every WQE initiated through this
  // rail thereafter (any QP bound to it) exhausts the RC retry storm and
  // surfaces a transport error, like real link death under a fabric whose
  // SM never reroutes.  Checked at the WQE initiator only; a live rail
  // counts one scope operation per WQE, so schedules are deterministic.
  if (port_->up()) {
    if (sim::FaultSchedule* faults = fabric.faults(); faults != nullptr) {
      const std::string rs =
          sim::FaultSchedule::rail_scope(node().name(), port_->rail());
      if (faults->check(rs)) {
        port_->fail();
        trace("rail_down", port_->rail(), wr.wr_id);
      }
      if (faults->any_degrade()) {
        // The check() above counted this WQE; the degrade window is keyed
        // to the same op counter.
        deg.compose(faults->degrade_at(rs, faults->observed(rs) - 1));
      }
    }
  }
  if (!port_->up()) {
    co_await kill_wqe(wr);
    co_return;
  }

  // Permanent process death (FaultSchedule::rank_down): a WQE initiated by
  // a dead node, or towards one, exhausts the RC retry storm -- the remote
  // endpoint no longer acks anything, so nothing against a dead node ever
  // succeeds again.
  if (sim::FaultSchedule* faults = fabric.faults();
      faults != nullptr && faults->any_rank_down() &&
      (faults->node_dead(node().name()) ||
       (peer_ != nullptr && faults->node_dead(peer_->node().name())))) {
    co_await kill_wqe(wr);
    co_return;
  }

  bool corrupt_payload = false;
  if (sim::FaultSchedule* faults = fabric.faults(); faults != nullptr) {
    if (auto f = faults->check(node().name())) {
      using Kind = sim::FaultSchedule::Fault::Kind;
      if (f->kind == Kind::kCorrupt &&
          (wr.opcode == Opcode::kRdmaWrite || wr.opcode == Opcode::kSend ||
           wr.opcode == Opcode::kRdmaRead)) {
        // Silent corruption: the operation completes as a normal success,
        // but one payload bit flips in flight (an undetected link/DMA
        // error -- beyond what the RC CRC catches).  For a read, the flip
        // happens in the responder's reply.
        trace("fault_corrupt", static_cast<std::int64_t>(n), wr.wr_id);
        corrupt_payload = true;
      } else {
        // Deterministic kill (a kExhaust, or a kCorrupt landing on an
        // atomic, kills too).
        co_await kill_wqe(wr);
        co_return;
      }
    }
    if (faults->any_degrade()) {
      deg.compose(
          faults->degrade_at(node().name(), faults->observed(node().name()) - 1));
    }
  }

  // Lossy attempts -- gray loss (drop_prob), then random attempt failures
  // (inject_error_rate): the RC service retransmits each transparently, and
  // only retry-count exhaustion surfaces, as the same QP error as a kill.
  // An index loop, not a range-for over a braced list: the list would grow
  // this per-WQE frame into the next FramePool size class.
  for (int source = 0; source < 2; ++source) {
    const double loss = source == 0 ? deg.drop_prob : cfg.inject_error_rate;
    if (loss <= 0.0) continue;
    int attempts = 0;
    while (fabric.rng().chance(loss)) {
      if (++attempts > cfg.retry_count) {
        fail_wqe(wr);
        co_return;
      }
      trace("retransmit", 0, wr.wr_id);
      co_await sim.delay(cfg.retry_delay);
    }
  }

  const std::uint32_t need =
      wr.opcode == Opcode::kRdmaWrite || wr.opcode == Opcode::kSend
          ? 0u
          : static_cast<std::uint32_t>(kLocalWrite);
  if (!validate_local(wr.sgl, need, wr.wr_id, wr.opcode)) {
    co_return;
  }

  switch (wr.opcode) {
    case Opcode::kRdmaWrite: {
      const MemoryRegion* mr = peer_->pd().find_rkey(wr.rkey);
      if (mr == nullptr || !mr->contains(wr.remote_addr, n) ||
          (mr->access() & kRemoteWrite) == 0) {
        // The initiator learns of the NAK a round trip later.
        complete(*send_cq_,
                 Wc{wr.wr_id, WcStatus::kRemoteAccessError, wr.opcode, 0,
                    qp_num_, false},
                 sim.now() + 2 * cfg.wire_latency);
        enter_error();
        break;
      }
      trace("rdma_write", static_cast<std::int64_t>(n), wr.wr_id);
      auto staging = gather(sim.buffer_pool(), wr.sgl);
      if (corrupt_payload && !staging->empty()) {
        (*staging)[staging->size() / 2] ^= std::byte{1};
      }
      const sim::Tick delivered = co_await fabric.book_path(
          *port_, *peer_->port_, static_cast<std::int64_t>(n), deg);
      Node* dst_node = &peer_->node();
      auto* dst = reinterpret_cast<std::byte*>(wr.remote_addr);
      ++inflight_deliveries_;
      // The write lands whole, in one copy at the delivery instant, and
      // only if the target region is still registered then (the target
      // HCA checks the rkey as the data arrives).
      sim.call_at(delivered, [this, staging, dst, dst_node, mr,
                              wr_id = wr.wr_id, signaled = wr.signaled] {
        if (mr->valid()) {
          std::memcpy(dst, staging->data(), staging->size());
        } else {
          nak_late_write(wr_id, signaled);
        }
        dst_node->dma_arrival().fire();
        --inflight_deliveries_;
        quiesce_.fire();
      });
      if (wr.signaled) {
        complete_write(Wc{wr.wr_id, WcStatus::kSuccess, wr.opcode, n,
                          qp_num_, false},
                       delivered + cfg.ack_latency);
      }
      break;
    }

    case Opcode::kSend: {
      trace("send", static_cast<std::int64_t>(n), wr.wr_id);
      auto staging = gather(sim.buffer_pool(), wr.sgl);
      if (corrupt_payload && !staging->empty()) {
        (*staging)[staging->size() / 2] ^= std::byte{1};
      }
      const sim::Tick delivered = co_await fabric.book_path(
          *port_, *peer_->port_, static_cast<std::int64_t>(n), deg);
      QueuePair* peer = peer_;
      ++inflight_deliveries_;
      sim.call_at(delivered, [this, staging, peer]() mutable {
        peer->deliver_send(InboundSend{std::move(staging)});
        peer->node().dma_arrival().fire();
        --inflight_deliveries_;
        quiesce_.fire();
      });
      if (wr.signaled) {
        complete(*send_cq_,
                 Wc{wr.wr_id, WcStatus::kSuccess, wr.opcode, n, qp_num_,
                    false},
                 delivered + cfg.ack_latency);
      }
      break;
    }

    case Opcode::kRdmaRead:
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap: {
      const bool is_atomic = wr.opcode != Opcode::kRdmaRead;
      const std::uint32_t need =
          is_atomic ? static_cast<std::uint32_t>(kRemoteAtomic)
                    : static_cast<std::uint32_t>(kRemoteRead);
      const MemoryRegion* mr = peer_->pd().find_rkey(wr.rkey);
      if (mr == nullptr || !mr->contains(wr.remote_addr, n) ||
          (mr->access() & need) == 0 || (is_atomic && n != 8)) {
        complete(*send_cq_,
                 Wc{wr.wr_id, WcStatus::kRemoteAccessError, wr.opcode, 0,
                    qp_num_, false},
                 sim.now() + 2 * cfg.wire_latency);
        enter_error();
        break;
      }
      trace(is_atomic ? "atomic" : "rdma_read", static_cast<std::int64_t>(n),
            wr.wr_id);
      // Atomics share the outstanding-read context limit (Figure 15's
      // cause for reads; the same HCA resource serves both).
      co_await sim::wait_until(read_credit_, [this, &cfg] {
        return reads_in_flight_ < cfg.max_outstanding_reads;
      });
      if (error_) {
        // The QP was torn down while this WQE waited for a read context.
        complete_now(*send_cq_, Wc{wr.wr_id, WcStatus::kFlushError, wr.opcode,
                                   0, qp_num_, false});
        break;
      }
      ++reads_in_flight_;
      // Ship the request packet to the responder through this QP's rail.
      const sim::Tick req_sent =
          port_->tx_link().reserve(kCtrlBytes + (is_atomic ? 16 : 0));
      co_await sim.delay_until(req_sent);
      sim::Tick req_wire = cfg.wire_latency;
      if (deg.active()) {
        req_wire = deg.latency_add +
                   static_cast<sim::Tick>(deg.latency_mult *
                                          static_cast<double>(cfg.wire_latency));
      }
      const sim::Tick req_arrives = sim.now() + req_wire;
      QueuePair* peer = peer_;
      ReadRequest req{wr.opcode, wr.remote_addr, wr.rkey,    wr.sgl,
                      wr.wr_id,  wr.signaled,    wr.atomic_arg,
                      wr.atomic_swap, corrupt_payload};
      req.deg = deg;
      sim.call_at(req_arrives, [peer, req = std::move(req)]() mutable {
        peer->accept_request(std::move(req));
      });
      break;
    }
  }
}

sim::Task<void> QueuePair::responder_engine() {
  // Serves RDMA-read requests *initiated by the peer*: streams data from
  // this node's memory back through this node's TX link (contending with
  // this side's own outbound traffic -- the mechanism behind Figure 15).
  Fabric& fabric = hca_->fabric();
  sim::Simulator& sim = fabric.sim();
  const FabricConfig& cfg = fabric.cfg();

  for (;;) {
    ReadRequest req = co_await responder_q_.pop();
    co_await sim.delay(cfg.read_responder_overhead);

    std::size_t n = 0;
    for (const auto& s : req.dest_sgl) n += s.length;

    const bool is_atomic = req.op != Opcode::kRdmaRead;
    // Re-validate: the region may have been deregistered since the
    // initiator's optimistic check.
    const std::uint32_t need = is_atomic
                                   ? static_cast<std::uint32_t>(kRemoteAtomic)
                                   : static_cast<std::uint32_t>(kRemoteRead);
    const MemoryRegion* mr = pd_->find_rkey(req.rkey);
    QueuePair* initiator = peer_;
    if (mr == nullptr || !mr->contains(req.remote_addr, n) ||
        (mr->access() & need) == 0) {
      sim.call_at(sim.now() + cfg.wire_latency,
                  [initiator, req = std::move(req)] {
        initiator->complete_now(
            initiator->send_cq(),
            Wc{req.wr_id, WcStatus::kRemoteAccessError, req.op, 0,
               initiator->qp_num(), false});
        initiator->enter_error();
        initiator->read_done();
      });
      continue;
    }

    trace(is_atomic ? "atomic_response" : "read_response",
          static_cast<std::int64_t>(n), req.wr_id, ".resp");
    std::uint64_t old = 0;
    if (is_atomic) {
      // Execute the atomic at the responder: read-modify-write is a single
      // event in virtual time, so it is atomic with respect to every other
      // simulated agent -- exactly the HCA's guarantee.  The old value
      // travels with the response and lands at delivery.
      auto* target = reinterpret_cast<std::uint64_t*>(req.remote_addr);
      old = *target;
      if (req.op == Opcode::kFetchAdd) {
        *target = old + req.atomic_arg;
      } else if (old == req.atomic_arg) {
        *target = req.atomic_swap;
      }
    } else {
      // The response samples responder memory here, at turnaround, and is
      // placed straight into the initiator's destination: one copy, no
      // staging.  Only the CQE waits for delivery; the destination belongs
      // to the HCA until then, so no correct reader sees it early.
      scatter(reinterpret_cast<const std::byte*>(req.remote_addr), n,
              req.dest_sgl);
      if (req.corrupt && n > 0) {
        flip_byte(req.dest_sgl, n / 2);
        trace("fault_corrupt", static_cast<std::int64_t>(n), req.wr_id,
              ".resp");
      }
    }
    const sim::Tick delivered = co_await fabric.book_path(
        *port_, *initiator->port_, static_cast<std::int64_t>(n), req.deg);
    sim.call_at(delivered, [initiator, req = std::move(req), n, old] {
      if (req.op != Opcode::kRdmaRead) {
        scatter(reinterpret_cast<const std::byte*>(&old), sizeof old,
                req.dest_sgl);
      }
      initiator->node().dma_arrival().fire();
      initiator->read_done();
      if (req.signaled) {
        initiator->complete_now(
            initiator->send_cq(),
            Wc{req.wr_id, WcStatus::kSuccess, req.op, n,
               initiator->qp_num(), false});
      }
    });
  }
}

}  // namespace ib
