// Communicators and the typed MPI-1 API.
//
// The API is the MPI-1 subset the paper's evaluation needs (all of the NAS
// kernels run on it): blocking and nonblocking point-to-point with tag and
// source wildcards, sendrecv, and the standard collective set.  Calls are
// coroutines -- "blocking" means blocking in virtual time; nonblocking
// calls may still charge local CPU time (matching, local copies) but never
// wait on remote progress.
#pragma once

#include <span>
#include <vector>

#include "mpi/datatype.hpp"
#include "mpi/engine.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"

namespace mpi {

class Runtime;

class Communicator {
 public:
  int rank() const noexcept { return my_rank_; }
  int size() const noexcept { return static_cast<int>(group_.size()); }
  Engine& engine() const noexcept { return *eng_; }
  std::uint64_t context() const noexcept { return context_; }
  /// World rank of a communicator rank.
  int world_rank(int r) const { return group_.at(static_cast<std::size_t>(r)); }
  /// The comm-rank -> world-rank map.
  const std::vector<int>& group() const noexcept { return group_; }

  double wtime() const { return eng_->wtime(); }

  // ---- point-to-point -----------------------------------------------------
  sim::Task<Request> isend(const void* buf, int count, Datatype d, int dst,
                           int tag);
  sim::Task<Request> irecv(void* buf, int count, Datatype d, int src, int tag);
  sim::Task<void> send(const void* buf, int count, Datatype d, int dst,
                       int tag);
  sim::Task<void> recv(void* buf, int count, Datatype d, int src, int tag,
                       Status* status = nullptr);
  sim::Task<void> sendrecv(const void* sbuf, int scount, Datatype sd, int dst,
                           int stag, void* rbuf, int rcount, Datatype rd,
                           int src, int rtag, Status* status = nullptr);
  /// Derived-datatype transfers (MPI_Type_vector and friends): the data is
  /// packed through the dataloop engine into a contiguous wire format (a
  /// modelled copy on each side) and moved as bytes.
  sim::Task<void> send_typed(const void* buf, int count,
                             const TypeLayout& layout, int dst, int tag);
  sim::Task<void> recv_typed(void* buf, int count, const TypeLayout& layout,
                             int src, int tag, Status* status = nullptr);

  /// MPI_Probe / MPI_Iprobe: inspect a pending message's envelope without
  /// receiving it (probe blocks; iprobe is a single progress pass).
  sim::Task<Status> probe(int src, int tag) {
    return eng_->probe(src, tag, context_);
  }
  sim::Task<bool> iprobe(int src, int tag, Status* st = nullptr) {
    return eng_->iprobe(src, tag, context_, st);
  }
  sim::Task<void> wait(const Request& r) { return eng_->wait(r); }
  sim::Task<void> wait_all(std::span<const Request> rs) {
    return eng_->wait_all(rs);
  }
  sim::Task<bool> test(const Request& r) { return eng_->test(r); }

  // ---- collectives ----------------------------------------------------------
  sim::Task<void> barrier();
  sim::Task<void> bcast(void* buf, int count, Datatype d, int root);
  sim::Task<void> reduce(const void* sendbuf, void* recvbuf, int count,
                         Datatype d, Op op, int root);
  sim::Task<void> allreduce(const void* sendbuf, void* recvbuf, int count,
                            Datatype d, Op op);
  sim::Task<void> gather(const void* sendbuf, int scount, void* recvbuf,
                         Datatype d, int root);
  sim::Task<void> gatherv(const void* sendbuf, int scount, void* recvbuf,
                          std::span<const int> rcounts,
                          std::span<const int> displs, Datatype d, int root);
  sim::Task<void> scatter(const void* sendbuf, int count, void* recvbuf,
                          Datatype d, int root);
  sim::Task<void> scatterv(const void* sendbuf, std::span<const int> scounts,
                           std::span<const int> displs, void* recvbuf,
                           int rcount, Datatype d, int root);
  sim::Task<void> allgather(const void* sendbuf, int scount, void* recvbuf,
                            Datatype d);
  sim::Task<void> allgatherv(const void* sendbuf, int scount, void* recvbuf,
                             std::span<const int> rcounts,
                             std::span<const int> displs, Datatype d);
  sim::Task<void> alltoall(const void* sendbuf, int scount, void* recvbuf,
                           Datatype d);
  sim::Task<void> alltoallv(const void* sendbuf, std::span<const int> scounts,
                            std::span<const int> sdispls, void* recvbuf,
                            std::span<const int> rcounts,
                            std::span<const int> rdispls, Datatype d);
  sim::Task<void> reduce_scatter(const void* sendbuf, void* recvbuf,
                                 std::span<const int> counts, Datatype d,
                                 Op op);
  sim::Task<void> scan(const void* sendbuf, void* recvbuf, int count,
                       Datatype d, Op op);

  /// MPI_Comm_split.  Collective; returns the new communicator (owned by
  /// the Runtime).  Pass color < 0 for MPI_UNDEFINED (returns nullptr).
  sim::Task<Communicator*> split(int color, int key);

  // ---- ULFM-style fault tolerance (channel config ft_detector on) ---------
  // The recovery sequence after a ProcFailedError is the ULFM idiom:
  //   comm.revoke();                    // every member now errors out
  //   int ok = co_await comm.agree(0);  // consistent view of the damage
  //   Communicator* next = co_await comm.shrink();  // survivors continue
  // All three run over the PMI control plane (no message-plane traffic), so
  // they terminate even when further members die mid-protocol.

  /// MPI_Comm_revoke: marks the communicator revoked for every member.
  /// Pending and future point-to-point and collective operations on it fail
  /// with RevokedError on all members -- no rank stays blocked inside a
  /// collective whose peers have moved on to recovery.  Not itself
  /// collective: any single member may revoke.
  void revoke();
  /// True once any member has revoked this communicator.
  bool revoked() const;

  /// MPI_Comm_agree: fault-tolerant agreement.  Returns the bitwise AND of
  /// the `flag` contributions of the members that could participate;
  /// members discovered dead (obituary, or silence past the agreement
  /// deadline -- in which case this call convicts them) are excluded and
  /// the result carries the kAgreeFlagDead bit so every survivor learns a
  /// failure happened.  Terminates regardless of which members die at which
  /// protocol step: a dead decision leader is detected by deadline and the
  /// next live member takes over; the first posted decision wins and is
  /// adopted by everyone, so all survivors return the same value.  Never
  /// throws on process failure (it is the recovery primitive).
  sim::Task<int> agree(int flag);
  /// Set in agree()'s result when any member was excluded as dead.
  static constexpr int kAgreeFlagDead = 1 << 30;

  /// MPI_Comm_shrink: collective over the survivors; returns a new
  /// communicator (owned by the Runtime) containing the live members,
  /// re-ranked densely in their old relative order, on a fresh context.
  /// The decision (context id + survivor list) is agreed through the same
  /// leader protocol as agree(), so every survivor adopts the identical
  /// group even if more members die mid-shrink.
  sim::Task<Communicator*> shrink();

  /// Comm ranks with a published obituary, in comm-rank order.
  std::vector<int> failed_ranks() const;

 private:
  friend class Runtime;
  Communicator(Runtime& rt, Engine& eng, std::vector<int> group, int my_rank,
               std::uint64_t context)
      : rt_(&rt),
        eng_(&eng),
        group_(std::move(group)),
        my_rank_(my_rank),
        context_(context) {}

  /// Raw byte-level helpers in communicator coordinates.
  sim::Task<Request> isend_bytes(const void* buf, std::size_t bytes, int dst,
                                 int tag, std::uint64_t ctx);
  sim::Task<Request> irecv_bytes(void* buf, std::size_t bytes, int src,
                                 int tag, std::uint64_t ctx);
  sim::Task<void> sendrecv_bytes(const void* sbuf, std::size_t sbytes, int dst,
                                 void* rbuf, std::size_t rbytes, int src,
                                 int tag, std::uint64_t ctx);
  std::uint64_t coll_context() const noexcept { return context_ + 1; }
  /// Fault-tolerance entry checks (no-ops with the detector unarmed; pure
  /// KVS lookups otherwise, so fault-free traces stay bit-identical).
  /// ft_check: collective semantics -- error if the communicator is revoked
  /// or *any* member has a published obituary (uniform error on every
  /// member).  ft_check_peer: point-to-point semantics -- error only for a
  /// revoked communicator or a dead counterpart.
  bool ft_on() const noexcept { return eng_->ft_armed(); }
  void ft_check() const;
  void ft_check_peer(int r) const;
  /// Leader-based one-shot agreement on the PMI board: waits for
  /// `base` + ":d" to be decided, taking over as leader (and convicting
  /// silent leaders by deadline) as needed.  `kind` selects the decision
  /// computation a leader runs over the settled contribution board.  Plain
  /// values rather than a callback: a capturing std::function crossing the
  /// coroutine's suspension points miscompiles under gcc 12 (the captured
  /// strings are destroyed out of the coroutine frame).
  enum class FtDecision { kAgree, kShrink };
  sim::Task<const pmi::Record*> ft_decide(std::string base, FtDecision kind);
  pmi::Record decide_agree(const std::string& base) const;
  pmi::Record decide_shrink(const std::string& base) const;
  /// Fresh tag for one collective invocation (advances identically on every
  /// member because collectives are called in the same order).
  int next_coll_tag() noexcept {
    coll_seq_ = (coll_seq_ + 1) & 0x3fffff;
    return static_cast<int>(coll_seq_);
  }

  Runtime* rt_;
  Engine* eng_;
  std::vector<int> group_;  // comm rank -> world rank
  int my_rank_;
  std::uint64_t context_;
  std::uint32_t coll_seq_ = 0;
  /// Invocation counters for the FT operations (advance identically on all
  /// members because the operations are called in the same order).
  std::uint32_t agree_seq_ = 0;
  std::uint32_t shrink_seq_ = 0;
};

}  // namespace mpi
