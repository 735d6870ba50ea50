// Reliable-connection queue pairs.
//
// A queue pair consists of a send queue and a receive queue; communication
// operations are described in work queue requests (descriptors) submitted
// to the work queue, and completion is reported through completion queues
// (paper section 2).  This implementation provides the RC service: in-order
// processing of send-queue WQEs per QP, RDMA write/read with rkey
// validation against the target's protection domain, and channel-semantics
// send/receive.
//
// Engine structure (all virtual-time; each engine is spawned on its first
// work item, so a connected QP that never carries a WQE costs one heap
// block and no event -- the spawn's start event takes the queue slot the
// wake-up of an already-parked engine would take, so event order is the
// same as if the engines had been waiting since connect()):
//   * send_engine      -- started by the first post_send; drains the send
//                         queue in order; per WQE charges wqe_overhead,
//                         validates, snapshots the source of a write or
//                         send (HW reads at DMA time; we read at post for
//                         determinism), then books the data path
//                         src-bus -> tx-link -> wire -> rx-link -> dst-bus
//                         chunk by chunk.  The engine moves to the next WQE
//                         as soon as the source-side stages are booked, so
//                         consecutive WQEs pipeline on the wire exactly as
//                         the paper's pipelining optimization requires.
//   * responder_engine -- started by the first RDMA-read or atomic request
//                         to arrive; serves them (turnaround overhead, then
//                         streams data back through this side's tx link,
//                         contending with its own sends -- the cause of
//                         the read-vs-write gap in Fig. 15).
//                         A read response is not staged: at turnaround the
//                         responder's bytes are placed straight into the
//                         initiator's destination, and only the CQE waits
//                         for the modelled delivery.  Atomics execute at
//                         turnaround and write the old value at delivery.
//
// A protection failure completes the WQE with an error status and moves the
// QP to the error state; subsequently posted WQEs complete with
// kFlushError *in post order*, mirroring RC error semantics.  close() moves
// the QP to the error state administratively (connection teardown);
// quiesce() then awaits local drain (no WQE mid-processing, no outbound
// delivery in flight, no outstanding read) so a recovery layer can replay
// state onto a fresh QP without stale DMA overtaking it; reset() returns a
// drained error-state QP to service (the modify_qp ERR->RESET->...->RTS
// path).  Retry exhaustion has one outcome whatever exhausted it -- a dead
// rail, a dead rank, a scheduled sim::FaultSchedule kill, gray loss or
// inject_error_rate: the QP enters the error state and the victim completes
// with kTransportError a NAK round trip later, so nothing posted behind it
// lands (RC's in-order guarantee, on which every ring flag, tail write and
// FIN relies).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ib/cq.hpp"
#include "ib/mr.hpp"
#include "ib/types.hpp"
#include "sim/fault.hpp"
#include "sim/pool.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace ib {

class Hca;
class Fabric;
class Node;
class Port;

class QueuePair {
 public:
  QueuePair(Hca& hca, ProtectionDomain& pd, CompletionQueue& send_cq,
            CompletionQueue& recv_cq, std::uint32_t qp_num, Port& port);
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  /// Establishes the reliable connection between this QP and `peer`
  /// (both directions).  Spawns nothing: each engine starts on its first
  /// work item.  Call once.
  void connect(QueuePair& peer);

  /// Blocks until connect() has been called (on either side).  Recovery
  /// re-handshakes use this on the rank that does not own the connect call.
  sim::Task<void> wait_connected();

  /// wait_connected bounded by a virtual-time deadline (must be in the
  /// future); returns whether the connection was established in time.  The
  /// recovery watchdog uses this so a connect that never comes -- the peer
  /// wedged or dead mid-handshake -- cannot park the waiter forever.
  sim::Task<bool> wait_connected_until(sim::Tick deadline);

  /// Administratively moves the QP to the error state (connection
  /// teardown): subsequently posted WQEs flush; WQEs already being
  /// processed finish or error on their own.
  void close() { enter_error(); }

  /// Awaits local quiescence: no WQE mid-processing, send queue empty, all
  /// outbound deliveries landed, no outstanding reads.  After close() +
  /// quiesce(), nothing from this QP can touch peer memory later -- the
  /// precondition for replaying ring state onto a replacement QP.
  sim::Task<void> quiesce();

  /// Returns a drained error-state QP to service, keeping the peer binding
  /// (models modify_qp ERR->RESET->INIT->RTR->RTS on both ends).  Throws
  /// VerbsError unless the QP is locally quiescent.
  void reset();

  /// Posts a send-queue descriptor (send / RDMA write / RDMA read).
  /// Non-blocking and free of virtual time, like ringing a doorbell.
  void post_send(SendWr wr);

  /// Posts a receive descriptor for channel-semantics sends.
  void post_recv(RecvWr wr);

  std::uint32_t qp_num() const noexcept { return qp_num_; }
  bool connected() const noexcept { return peer_ != nullptr; }
  bool in_error() const noexcept { return error_; }
  Hca& hca() const noexcept { return *hca_; }
  /// The rail this QP's traffic rides (set at create_qp, immutable).
  Port& port() const noexcept { return *port_; }
  Node& node() const;
  ProtectionDomain& pd() const noexcept { return *pd_; }
  CompletionQueue& send_cq() const noexcept { return *send_cq_; }
  CompletionQueue& recv_cq() const noexcept { return *recv_cq_; }
  QueuePair* peer() const noexcept { return peer_; }
  std::size_t send_queue_depth() const noexcept { return sq_.size(); }

 private:
  friend class Fabric;

  /// Responder-side work: an RDMA read or a 64-bit atomic.
  struct ReadRequest {
    Opcode op = Opcode::kRdmaRead;
    std::uint64_t remote_addr = 0;  // address in *this* (responder) memory
    std::uint32_t rkey = 0;
    std::vector<Sge> dest_sgl;      // initiator-side destination
    std::uint64_t wr_id = 0;
    bool signaled = true;
    std::uint64_t atomic_arg = 0;
    std::uint64_t atomic_swap = 0;
    /// Injected fault: flip the bit at payload offset n/2 of a read
    /// response (set for reads only).
    bool corrupt = false;
    /// Gray-failure degrade composed at the initiator; the responder books
    /// the reply leg with it too (a degraded path is slow both ways).
    sim::FaultSchedule::DegradeSpec deg{};
  };

  struct InboundSend {
    /// Pooled staging buffer (sim::BufferPool): releasing the last
    /// reference returns the storage to the simulator's free list.
    sim::BufferPool::Buffer data;
  };

  sim::Task<void> send_engine();
  /// One send-queue WQE, in order (factored out of send_engine so the
  /// engine can maintain the busy_ flag across every early exit).
  sim::Task<void> process_wqe(SendWr wr);
  sim::Task<void> responder_engine();
  /// Queues responder work from the peer, starting the responder engine on
  /// the first request.
  void accept_request(ReadRequest req);

  /// "<node>.qp<N>": names this QP's engines and trace records.
  std::string tag() const;
  /// Records `event` under tag() + `suffix`; builds the tag only when a
  /// tracer is attached.
  void trace(std::string_view event, std::int64_t bytes, std::int64_t arg,
             std::string_view suffix = {}) const;

  void complete(CompletionQueue& cq, const Wc& wc, sim::Tick at);
  void complete_now(CompletionQueue& cq, const Wc& wc);
  /// Queues a signaled RDMA write's success CQE; it fires as
  /// kRemoteAccessError instead if the write was NAKed at delivery.
  void complete_write(const Wc& wc, sim::Tick at);
  /// Delivery-time NAK of an RDMA write whose target region was
  /// invalidated after the rkey check: nothing lands, the QP enters the
  /// error state and the initiator gets kRemoteAccessError.
  void nak_late_write(std::uint64_t wr_id, bool signaled);
  /// Single point where a CQE reaches its CQ: consults the fault schedule's
  /// "<node>.cq" scope so an injected overrun can drop it.
  void deliver_wc(CompletionQueue& cq, const Wc& wc);
  void read_done();
  bool validate_local(const std::vector<Sge>& sgl, std::uint32_t need_access,
                      std::uint64_t wr_id, Opcode op);
  void enter_error();
  /// RC retry exhaustion of `wr`: the QP enters the error state (every WQE
  /// behind it flushes) and `wr` completes with kTransportError one NAK
  /// round trip (2 * wire_latency) later.
  void fail_wqe(const SendWr& wr);
  /// A WQE the fabric kills outright: traces "fault_kill", sits out the
  /// full retry_count * retry_delay storm, then fail_wqe.
  sim::Task<void> kill_wqe(const SendWr& wr);
  void deliver_send(InboundSend inbound);

  Hca* hca_;
  Port* port_;
  ProtectionDomain* pd_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  std::uint32_t qp_num_;
  QueuePair* peer_ = nullptr;
  bool error_ = false;

  // Held by value: a QP is heap-allocated once by its Hca and never moves,
  // and none of these allocates until it holds something.
  sim::Mailbox<SendWr> sq_;
  sim::Mailbox<ReadRequest> responder_q_;
  sim::Trigger read_credit_;
  sim::Trigger quiesce_;    // fired whenever work drains
  sim::Trigger connected_;  // fired by connect()
  bool send_started_ = false;       // send_engine spawned
  bool responder_started_ = false;  // responder_engine spawned
  bool busy_ = false;             // send engine is mid-WQE
  int inflight_deliveries_ = 0;   // outbound DMA placements not yet landed
  int reads_in_flight_ = 0;
  sim::Fifo<RecvWr> rq_;
  sim::Fifo<InboundSend> unclaimed_;  // arrived sends awaiting a recv WQE
};

}  // namespace ib
