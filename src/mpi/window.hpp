// MPI one-sided communication over RDMA -- the paper's stated future
// work ("provide support for MPI-2 functionalities such as one-sided
// communication using RDMA and atomic operations in InfiniBand",
// section 9), grown in the foMPI direction (Gerstenberger et al.): puts
// and gets map 1:1 onto RDMA writes and reads against the exposed window
// memory, completion is epoch-scoped and per-target instead of
// collective, and synchronization never involves the target CPU.
//
// Supported surface and semantics:
//   * create()     -- collective; registers the window memory and builds a
//                     dedicated QP mesh (one-sided traffic does not touch
//                     the two-sided channel at all).  A small registered
//                     control block per rank carries the accumulate lock
//                     word and the notified-access counters.
//   * put/get      -- nonblocking RMA; complete at the next flush of the
//                     target (or fence).  Every transfer is zero-copy over
//                     RegCache-registered user memory.
//   * put_notify   -- put plus an 8-byte remote completion-flag write on
//                     the same QP: RC in-order delivery makes the flag
//                     visible only after the data, so wait_notify() gives
//                     producer/consumer pairs a poll-free handshake.
//   * accumulate   -- serialized remote read-modify-write: a per-window
//                     HCA compare-and-swap lock at the target orders
//                     conflicting accumulates from different origins, so
//                     concurrent kSum/kMax/... updates are no longer lost
//                     (the historical racy RMW emulation is gone).
//   * fetch_add    -- genuinely atomic 64-bit fetch-and-add via the HCA.
//   * fence()      -- active-target compatibility path: drains all
//                     outstanding RMA, then a collective barrier.
//   * lock_all()/unlock_all(), flush(t)/flush_all()/flush_local*() --
//                     passive-target epochs: flush completes this origin's
//                     outstanding RDMA toward the target over the window
//                     CQ -- no barrier, no target involvement.  In this RC
//                     model a local write CQE implies remote placement, so
//                     flush_local shares flush's implementation (kept as a
//                     distinct call because its *contract* is weaker).
//
// Recovery composition: every async op is journalled until its CQE
// retires it.  A flush that observes an error CQE tears the affected QP
// down (close/quiesce/reset -- the peer binding survives, no re-handshake
// needed) and replays that target's journal in order under the channels'
// attempt budget (ChannelConfig::recovery_max_attempts) and capped
// exponential backoff (rdmach::capped_backoff).  Replay is exact here: a
// killed WQE never reached the responder, and notify flags write absolute
// sequence numbers.  Budget exhaustion raises ChannelError (kDead) --
// or, with the channel's ft_detector armed, convicts the target on the
// obituary board and raises ProcFailedError; subsequent RMA entry paths
// toward a convicted rank fail fast off the board.  A watchdog deadline
// (rdmach::kRecoveryEpochDeadline with no completion progress) bounds every
// wait, so a flush spanning a fault storm errors instead of hanging.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ib/cq.hpp"
#include "ib/mr.hpp"
#include "ib/qp.hpp"
#include "mpi/comm.hpp"
#include "rdmach/reg_cache.hpp"

namespace mpi {

class Window {
 public:
  /// Collective over `comm`: every rank exposes [base, base+bytes).
  static sim::Task<std::unique_ptr<Window>> create(Communicator& comm,
                                                   void* base,
                                                   std::size_t bytes);

  ~Window();
  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  /// RDMA-writes `count` elements into target's window at byte
  /// displacement `disp`.  The origin buffer must stay valid until the op
  /// completes (flush of that target, or fence).
  sim::Task<void> put(const void* origin, int count, Datatype d, int target,
                      std::size_t disp);

  /// put plus a remote notify-counter bump the target can wait_notify()
  /// on; the flag travels on the same QP after the data, so observing it
  /// implies the data landed.
  sim::Task<void> put_notify(const void* origin, int count, Datatype d,
                             int target, std::size_t disp);

  /// Blocks until `origin` has posted at least `count` put_notify()s
  /// toward this rank's window over its lifetime.
  sim::Task<void> wait_notify(int origin, std::uint64_t count);

  /// Notifies received from `origin` so far.
  std::uint64_t notify_count(int origin) const;

  /// RDMA-reads from the target's window into `origin`.
  sim::Task<void> get(void* origin, int count, Datatype d, int target,
                      std::size_t disp);

  /// Serialized remote read-modify-write (see header comment): safe under
  /// concurrent conflicting accumulates from any set of origins.
  sim::Task<void> accumulate(const void* origin, int count, Datatype d, Op op,
                             int target, std::size_t disp);

  /// Atomic 64-bit fetch-and-add on the target window word; returns the
  /// value before the addition.  Safe under arbitrary concurrency.
  sim::Task<std::int64_t> fetch_add(int target, std::size_t disp,
                                    std::int64_t value);

  // ---- passive-target epochs ----------------------------------------------
  /// Opens a passive-target access epoch toward every member.  Purely
  /// local (RC QPs are permanently ready); kept for MPI shape.
  void lock_all() { locked_all_ = true; }
  /// Closes the epoch: flush_all(), then the epoch mark drops.
  sim::Task<void> unlock_all();
  /// Completes every outstanding RMA this origin has issued toward
  /// `target` -- no barrier, no target involvement.
  sim::Task<void> flush(int target);
  sim::Task<void> flush_all();
  /// Local-completion flush: in this RC model a local CQE implies remote
  /// placement, so these share flush's implementation; the weaker MPI
  /// contract (origin buffers reusable, data not necessarily visible) is
  /// what callers should rely on.
  sim::Task<void> flush_local(int target);
  sim::Task<void> flush_local_all();
  bool locked_all() const noexcept { return locked_all_; }

  /// Active-target epoch boundary: drain everything, then barrier.
  sim::Task<void> fence();

  Communicator& comm() const noexcept { return *comm_; }
  std::size_t size_bytes() const noexcept { return bytes_; }

  /// Window-local observability (tests and benches).
  struct Stats {
    std::uint64_t puts = 0;
    std::uint64_t gets = 0;
    std::uint64_t atomics = 0;
    std::uint64_t flushes = 0;
    std::uint64_t replays = 0;        // journal entries re-posted
    std::uint64_t replayed_bytes = 0;
    std::uint64_t recoveries = 0;     // QP reset cycles completed
    std::uint64_t lock_spins = 0;     // accumulate CAS retries
    std::uint64_t obit_fast_fails = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  Window(Communicator& comm, void* base, std::size_t bytes);

  /// Process-wide window-creation counter; combined with an allreduce it
  /// yields an id all members agree on (create() is collective).
  static std::uint64_t& win_seq_counter();

  struct Peer {
    ib::QueuePair* qp = nullptr;
    std::uint64_t raddr = 0;       // window base
    std::uint64_t rbytes = 0;      // target's exposed size (may differ)
    std::uint32_t rkey = 0;
    std::uint64_t ctrl_raddr = 0;  // control block (lock + notify slots)
    std::uint32_t ctrl_rkey = 0;
    std::uint64_t outstanding = 0;  // journalled ops not yet retired
    std::uint64_t notify_out = 0;   // notifies sent toward this target
    bool failed = false;            // error CQE seen; recovery pending
    int attempts = 0;               // consecutive no-progress recoveries
  };

  /// Journalled async operation: everything needed to rebuild its WQE for
  /// replay, plus the resources to release when its CQE retires it.
  struct OpRecord {
    int target = -1;
    ib::Opcode op = ib::Opcode::kRdmaWrite;
    std::byte* local = nullptr;
    std::size_t len = 0;
    std::uint64_t remote_addr = 0;
    std::uint32_t rkey = 0;
    std::uint32_t lkey = 0;
    std::uint64_t atomic_arg = 0;
    std::uint64_t atomic_swap = 0;
    ib::MemoryRegion* mr = nullptr;  // RegCache pin, released at retire
    int notify_slot = -1;            // notify flag source slot, ditto
  };

  sim::Task<void> init();

  // ---- issue ----------------------------------------------------------------
  std::uint64_t post_op(OpRecord rec);
  ib::SendWr build_wr(std::uint64_t wr_id, const OpRecord& rec) const;
  /// Synchronous RMA with recovery: posts, awaits the CQE, retries through
  /// recover() on error.  Not journalled (nothing outlives the await).
  sim::Task<ib::Wc> rma_sync(OpRecord rec);
  int alloc_notify_slot();

  // ---- completion / recovery ------------------------------------------------
  void process_wc(const ib::Wc& wc);
  void drain_cq();
  /// One watchdog wait step toward `target`: completion progress since the
  /// last step re-arms `deadline`; otherwise a passed deadline gives up
  /// (throw_dead at `stage`); otherwise waits for CQ activity, bounded by
  /// the deadline.
  sim::Task<void> watchdog_wait(sim::Tick& deadline, int target,
                                const char* stage);
  /// State shared by the window and its one queued watchdog wakeup, which
  /// may outlive the window (see watchdog_wait).
  struct Watchdog {
    sim::Trigger* arrival = nullptr;  // cq_'s trigger; the HCA owns the CQ
    sim::Tick armed = 0;              // deadline of the current wait
    bool queued = false;              // a wakeup is in the event queue
  };
  /// Queues `w`'s wakeup for `w->armed`.  When it fires it re-queues itself
  /// if the armed deadline has moved later, else fires the CQ trigger.
  static void queue_wakeup(sim::Simulator& sim, std::shared_ptr<Watchdog> w);
  /// Drains outstanding ops toward `target` (-1 = every target),
  /// recovering failed QPs as needed; the watchdog bounds each wait.
  sim::Task<void> drain_target(int target);
  /// One recovery attempt for a failed target: budget/ft checks, backoff,
  /// close+quiesce+reset, drain stale CQEs, replay the journal in order.
  sim::Task<void> recover(int target);
  /// Abandon a dead target's journal (before throwing): free slots, queue
  /// pins for release, zero its outstanding count.
  void abandon_target(int target);
  sim::Task<void> drain_releases();
  sim::Tick arm_deadline() const;
  /// Gives up on `target` with ChannelError::kDead and a snapshot of its
  /// recovery state; with `abandon`, the snapshot is taken first and the
  /// target's journal is abandoned before the throw.
  [[noreturn]] void throw_dead(int target, const char* stage,
                               bool abandon = false);

  // ---- fault-tolerance entry checks -----------------------------------------
  /// Obituary fast-fail: ProcFailedError if the channel's detector is
  /// armed and the target has a published obituary.  Pure KVS lookup, so
  /// fault-free traces are unchanged.  With `abandon`, a convicted
  /// target's journal is abandoned before the throw (recovery's check).
  void ft_entry(int target, bool abandon = false);

  void check_range(int target, std::size_t disp, std::size_t len) const;

  Communicator* comm_;
  std::byte* base_;
  std::size_t bytes_;
  std::uint64_t win_id_ = 0;
  bool locked_all_ = false;

  ib::ProtectionDomain* pd_ = nullptr;
  ib::CompletionQueue* cq_ = nullptr;
  ib::MemoryRegion* mr_ = nullptr;
  std::unique_ptr<rdmach::RegCache> cache_;
  std::vector<Peer> peers_;

  /// Registered control block, all u64 slots:
  ///   [0]          accumulate lock word (0 free, else owner rank + 1)
  ///   [1]          local scratch for CAS results / lock release
  ///   [2 .. 2+p)   notify counters, indexed by origin rank
  ///   [2+p .. 2+p+kNotifySlots)  outgoing notify flag sources.  A ring,
  ///                not a per-target slot: the HCA gathers the source at
  ///                WQE-processing time, so every in-flight flag write
  ///                must own its 8-byte source until the CQE retires it --
  ///                pipelined put_notify calls sharing one slot could
  ///                deliver a later absolute count with the earlier flag.
  static constexpr std::size_t kNotifySlots = 16;
  std::vector<std::uint64_t> ctrl_;
  ib::MemoryRegion* ctrl_mr_ = nullptr;
  std::vector<char> notify_busy_;

  std::uint64_t wr_seq_ = 0;
  std::map<std::uint64_t, OpRecord> journal_;  // ordered: replay in post order
  /// rma_sync rendezvous: the single wr_id currently awaited (one sync op
  /// in flight per window -- the callers are sequential) and its CQE.
  std::uint64_t sync_wait_id_ = 0;
  std::optional<ib::Wc> sync_wc_;
  std::vector<ib::MemoryRegion*> release_q_;
  bool progress_ = false;          // set by process_wc on any retire
  std::shared_ptr<Watchdog> watchdog_ = std::make_shared<Watchdog>();
  Stats stats_;
};

}  // namespace mpi
