// The message engine: the ADI3 role in MPICH2's hierarchy.
//
// Owns the CH3 channel, the posted-receive and unexpected-message queues,
// tag/source matching with wildcards, and the progress loop that every
// blocking operation drives.  All ranks are single coroutines, so there is
// at most one progress_until() active per rank at a time.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ch3/ch3.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"

namespace mpi {

/// MPI software-stack cost charged per point-to-point call (request
/// allocation, matching, bookkeeping).  Part of the gap between the
/// channel's raw latency and the paper's MPI-level numbers; calibrated so
/// the piggyback design lands at the paper's 7.4 us.
inline constexpr sim::Tick kPerOpOverhead = sim::usec(0.52);

class Engine final : public ch3::EngineHooks {
 public:
  Engine(pmi::Context& ctx, const ch3::StackConfig& cfg);
  ~Engine() override;

  sim::Task<void> init();
  sim::Task<void> finalize();

  /// Starts a send of `bytes` from `buf` to world rank `dst_world`.
  /// `src_comm_rank` is this rank's id inside the communicator (what the
  /// receiver matches on).
  sim::Task<Request> isend(const void* buf, std::size_t bytes, int dst_world,
                           int src_comm_rank, int tag, std::uint64_t context);

  /// Posts a receive; `src_comm_rank` may be kAnySource, `tag` kAnyTag.
  sim::Task<Request> irecv(void* buf, std::size_t bytes, int src_comm_rank,
                           int tag, std::uint64_t context);

  sim::Task<void> wait(const Request& r);
  sim::Task<void> wait_all(std::span<const Request> rs);
  /// One progress pass, then reports completion.
  sim::Task<bool> test(const Request& r);

  /// MPI_Iprobe: one progress pass, then reports whether a matching
  /// message is pending (without consuming it); fills `st` if so.
  sim::Task<bool> iprobe(int src_comm_rank, int tag, std::uint64_t context,
                         Status* st);
  /// MPI_Probe: blocks until a matching message is pending.
  sim::Task<Status> probe(int src_comm_rank, int tag, std::uint64_t context);

  /// Drives channel progress and deferred engine work until pred() holds.
  sim::Task<void> progress_until(const std::function<bool()>& pred);

  pmi::Context& ctx() const noexcept { return *ctx_; }
  int world_rank() const noexcept { return ctx_->rank; }
  int world_size() const noexcept { return ctx_->size; }
  double wtime() const { return sim::to_sec(ctx_->sim().now()); }
  ch3::Ch3Channel& channel() noexcept { return *ch3_; }

  // ---- process-fault tolerance --------------------------------------------
  /// Whether the failure detector is armed (channel config ft_detector).
  /// Off: every FT hook below is a no-op and behavior is bit-identical to
  /// the pre-FT engine.
  bool ft_armed() const noexcept { return ft_armed_; }
  /// The stack's retry budget (channel config recovery_max_attempts); the
  /// one-sided windows spend the same budget per target.
  int recovery_max_attempts() const noexcept { return recovery_max_attempts_; }
  /// Registers a communicator's comm-rank -> world-rank map under both of
  /// its context ids, so the fault sweep can attribute posted receives
  /// (keyed by comm rank) to obituaries (keyed by world rank).  `group`
  /// must stay alive as long as the engine (communicators are never freed
  /// before finalize).
  void register_group(std::uint64_t context, const std::vector<int>* group) {
    if (!ft_armed_) return;
    groups_[context] = group;
    groups_[context + 1] = group;
  }
  /// Fails every posted receive, claimed unexpected delivery, and pending
  /// send that involves a newly obituaried rank or a newly revoked context.
  /// Cheap when nothing changed (one generation compare); called from the
  /// progress loop so blocked waiters observe deaths without new traffic.
  void ft_sweep();

  // -- EngineHooks ----------------------------------------------------------
  ch3::Sink on_eager(int src, const ch3::MatchHeader& hdr) override;
  void on_eager_complete(const ch3::Sink& sink,
                         const ch3::MatchHeader& hdr) override;
  void on_rts(int src, const ch3::MatchHeader& hdr,
              std::uint64_t token) override;
  void on_rndv_complete(std::uint64_t cookie) override;

 private:
  struct PostedRecv {
    std::uint64_t context;
    int src;  // comm rank or kAnySource
    int tag;  // or kAnyTag
    std::byte* buf;
    std::size_t cap;
    std::shared_ptr<detail::ReqState> req;
  };

  struct UnexMsg {
    ch3::MatchHeader hdr;
    int src_vc = -1;
    bool rndv = false;
    std::uint64_t token = 0;           // rendezvous: channel token
    std::vector<std::byte> data;       // eager payload buffer
    bool data_ready = false;
    std::shared_ptr<detail::ReqState> claimed;  // matched but data pending
    std::byte* claimed_buf = nullptr;
  };

  /// In-flight delivery bookkeeping, keyed by the sink cookie.
  struct Inflight {
    std::shared_ptr<detail::ReqState> req;  // matched receive, or
    UnexMsg* unex = nullptr;                // unexpected buffer
    int src_world = -1;  // sending rank, for the fault sweep
  };

  /// A started channel send the fault sweep may still have to fail
  /// (ft_armed only; pruned as requests complete).
  struct PendingSend {
    int dst_world;
    std::uint64_t context;
    std::weak_ptr<detail::ReqState> req;
  };

  static bool matches(const PostedRecv& r, const ch3::MatchHeader& h) {
    return r.context == h.context_id &&
           (r.src == kAnySource || r.src == h.src) &&
           (r.tag == kAnyTag || r.tag == h.tag);
  }
  static bool matches(std::uint64_t context, int src, int tag,
                      const ch3::MatchHeader& h) {
    return context == h.context_id && (src == kAnySource || src == h.src) &&
           (tag == kAnyTag || tag == h.tag);
  }

  /// Removes and returns the first matching posted receive, if any.
  std::unique_ptr<PostedRecv> match_posted(const ch3::MatchHeader& h);

  /// First unclaimed unexpected message matching (context, src, tag).
  UnexMsg* find_unexpected(std::uint64_t context, int src, int tag);

  static void complete_recv(detail::ReqState& st, const ch3::MatchHeader& h) {
    st.status.source = h.src;
    st.status.tag = h.tag;
    st.status.bytes = h.length;
    st.recv_done = true;
  }

  /// Runs deferred charged work (copies of claimed unexpected messages).
  sim::Task<bool> run_deferred();

  /// Marks a request failed (it now counts as completed) with the fault
  /// attribution wait/test will rethrow.
  static void fail_req(detail::ReqState& st, bool revoked, int world_rank,
                       std::string why) {
    if (st.failed || st.completed()) return;
    st.failed = true;
    st.revoked = revoked;
    st.failed_rank = world_rank;
    st.error = std::move(why);
  }
  /// Rethrows a failed request's fault as the typed MPI error.
  static void throw_if_failed(const Request& r) {
    const detail::ReqState* st = r.state();
    if (st == nullptr || !st->failed) return;
    if (st->revoked) throw RevokedError(0, st->error);
    throw ProcFailedError(st->failed_rank, st->error);
  }
  /// World rank of a newly dead source matching a posted receive's
  /// (context, comm-rank src) pair, or -1.  kAnySource receives fail when
  /// *any* group member is dead (the ULFM wildcard rule: the message might
  /// have been the corpse's).
  int dead_src_world(std::uint64_t context, int src) const;

  void check_truncation(std::size_t cap, const ch3::MatchHeader& h) const {
    if (h.length > cap) {
      throw MpiError("message truncation: incoming " +
                     std::to_string(h.length) + " bytes > posted " +
                     std::to_string(cap));
    }
  }

  pmi::Context* ctx_;
  std::unique_ptr<ch3::Ch3Channel> ch3_;

  std::list<PostedRecv> posted_;
  std::list<std::unique_ptr<UnexMsg>> unexpected_;
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::vector<UnexMsg*> deferred_copies_;
  std::uint64_t cookie_seq_ = 0;

  // ---- process-fault tolerance --------------------------------------------
  bool ft_armed_ = false;
  int recovery_max_attempts_;
  /// Last observed obituary-board + revocation-list generation; the sweep
  /// only walks the queues when it moves.
  std::uint64_t ft_gen_seen_ = 0;
  std::unordered_map<std::uint64_t, const std::vector<int>*> groups_;
  std::vector<PendingSend> pending_sends_;

  // statistics (reported by benches / examples)
 public:
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t unexpected_hits = 0;
};

}  // namespace mpi
