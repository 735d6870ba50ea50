#include "mpi/rdma_coll.hpp"

#include <cstring>

#include "ib/hca.hpp"
#include "ib/node.hpp"

namespace mpi {

namespace {

int ceil_log2(int p) {
  int r = 0;
  while ((1 << r) < p) ++r;
  return r;
}

bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

}  // namespace

std::uint64_t& RdmaColl::coll_seq_counter() {
  static std::uint64_t counter = 0;
  return counter;
}

RdmaColl::RdmaColl(Communicator& comm, std::size_t max_payload)
    : comm_(&comm), max_payload_(max_payload) {}

RdmaColl::~RdmaColl() = default;

sim::Task<std::unique_ptr<RdmaColl>> RdmaColl::create(
    Communicator& comm, std::size_t max_payload) {
  auto coll =
      std::unique_ptr<RdmaColl>(new RdmaColl(comm, max_payload));
  co_await coll->init();
  co_return coll;
}

sim::Task<void> RdmaColl::init() {
  Engine& eng = comm_->engine();
  pmi::Context& ctx = eng.ctx();
  pmi::Kvs& kvs = *ctx.kvs;
  const int p = comm_->size();
  const int me = comm_->rank();
  rounds_ = ceil_log2(p) + 1;

  std::uint64_t local_seq = ++coll_seq_counter();
  std::uint64_t agreed = 0;
  co_await comm_->allreduce(&local_seq, &agreed, 1, Datatype::kLong, Op::kMax);
  id_ = (comm_->context() << 24) | agreed;

  pd_ = &ctx.node->hca().alloc_pd();
  cq_ = &ctx.node->hca().create_cq("coll" + std::to_string(id_) + ".cq");
  recv_.assign(static_cast<std::size_t>(rounds_) * kSlotDepth * slot_stride(),
               std::byte{0});
  staging_.assign(
      static_cast<std::size_t>(rounds_) * kSlotDepth * slot_stride(),
      std::byte{0});
  recv_mr_ =
      co_await pd_->register_memory(recv_.data(), recv_.size(), ib::kAllAccess);
  staging_mr_ = co_await pd_->register_memory(staging_.data(),
                                              staging_.size(), ib::kAllAccess);

  // One record per rank, like the window's descriptor: {addr, rkey}, then
  // the QPN of the QP this rank created for each peer (0 for itself).
  auto key = [this](int rank) {
    return "coll:" + std::to_string(id_) + ":" + std::to_string(rank);
  };
  pmi::Record desc{reinterpret_cast<std::uint64_t>(recv_.data()),
                   recv_mr_->rkey()};
  peers_.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == me) {
      desc.push_back(0);
      continue;
    }
    ib::QueuePair& qp = ctx.node->hca().create_qp(*pd_, *cq_, *cq_);
    peers_[static_cast<std::size_t>(r)].qp = &qp;
    desc.push_back(qp.qp_num());
  }
  kvs.put(key(me), std::move(desc));

  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    Peer& peer = peers_[static_cast<std::size_t>(r)];
    const pmi::Record& rdesc = *co_await kvs.get(key(r));
    peer.raddr = rdesc[0];
    peer.rkey = static_cast<std::uint32_t>(rdesc[1]);
    if (me < r) {
      const auto peer_qpn =
          static_cast<std::uint32_t>(rdesc[2 + static_cast<std::size_t>(me)]);
      peer.qp->connect(*ctx.fabric().find_qp(peer_qpn));
    }
  }
  co_await comm_->barrier();
}

// Slot-reuse safety: a write for operation N+k lands in the same slot as
// operation N only when k >= kSlotDepth.  For barrier/allreduce, reaching
// operation N+1 requires the partner to have *finished* operation N (the
// exchange is symmetric), so a lag of kSlotDepth operations is impossible.
// bcast is one-directional -- the root returns without any sign the
// children consumed their slots -- so it resynchronizes with a barrier
// every kSlotDepth/2 operations, bounding the lag the same way.
sim::Task<void> RdmaColl::write_slot(int peer, int round, const void* data,
                                     std::size_t bytes, std::uint64_t seq) {
  // Assemble [flag | bytes | payload] in the registered staging slot and
  // push it with one RDMA write; the slot lands atomically, so the flag
  // doubles as both polling flags of the piggyback scheme.
  std::byte* s = staging_.data() + slot_index(round, seq);
  auto* hdr = reinterpret_cast<Slot*>(s);
  hdr->flag = seq;
  hdr->bytes = bytes;
  if (bytes > 0) {
    co_await comm_->engine().ctx().node->copy(s + sizeof(Slot), data, bytes);
  }
  Peer& pr = peers_.at(static_cast<std::size_t>(peer));
  pr.qp->post_send(ib::SendWr{
      ++wr_seq_,
      ib::Opcode::kRdmaWrite,
      {ib::Sge{s, sizeof(Slot) + bytes, staging_mr_->lkey()}},
      pr.raddr + slot_index(round, seq),
      pr.rkey,
      /*signaled=*/false});
  ++rdma_ops_;
}

sim::Task<const std::byte*> RdmaColl::wait_slot(int round,
                                                std::uint64_t seq) {
  ib::Node& node = *comm_->engine().ctx().node;
  Slot* slot = my_slot(round, seq);
  while (slot->flag != seq) {
    co_await node.dma_arrival().wait();
  }
  co_return reinterpret_cast<const std::byte*>(slot) + sizeof(Slot);
}

sim::Task<void> RdmaColl::barrier() {
  const int p = comm_->size();
  if (p == 1) co_return;
  const std::uint64_t seq = ++seq_;
  const int me = comm_->rank();
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    co_await write_slot((me + k) % p, round, nullptr, 0, seq);
    (void)co_await wait_slot(round, seq);
  }
}

sim::Task<void> RdmaColl::bcast(void* buf, int count, Datatype d, int root) {
  const int p = comm_->size();
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype_size(d);
  if (p == 1) co_return;
  if (bytes > max_payload_) {  // payload exceeds the slot: fall back
    co_await comm_->bcast(buf, count, d, root);
    co_return;
  }
  // Bound receiver lag (see write_slot comment).
  if (seq_ % (kSlotDepth / 2) == 0) co_await barrier();
  const std::uint64_t seq = ++seq_;
  const int me = comm_->rank();
  const int vr = (me - root + p) % p;
  int mask = 1;
  int recv_round = -1;
  while (mask < p) {
    if (vr & mask) {
      recv_round = ceil_log2(mask + 1) - 1;
      const std::byte* payload = co_await wait_slot(recv_round, seq);
      std::memcpy(buf, payload, bytes);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      const int child = (vr + mask + root) % p;
      const int round = ceil_log2(mask + 1) - 1;
      co_await write_slot(child, round, buf, bytes, seq);
    }
    mask >>= 1;
  }
}

sim::Task<void> RdmaColl::allreduce(const void* sendbuf, void* recvbuf,
                                    int count, Datatype d, Op op) {
  const int p = comm_->size();
  const std::size_t bytes = static_cast<std::size_t>(count) * datatype_size(d);
  std::memcpy(recvbuf, sendbuf, bytes);
  if (p == 1) co_return;
  if (!is_pow2(p) || bytes > max_payload_) {
    co_await comm_->allreduce(sendbuf, recvbuf, count, d, op);
    co_return;
  }
  const std::uint64_t seq = ++seq_;
  const int me = comm_->rank();
  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    const int partner = me ^ mask;
    co_await write_slot(partner, round, recvbuf, bytes, seq);
    const std::byte* payload = co_await wait_slot(round, seq);
    apply_op(op, d, payload, recvbuf, count);
  }
}

}  // namespace mpi
