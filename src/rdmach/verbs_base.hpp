// Common machinery for the RDMA-write-based channel designs (basic,
// piggyback, pipeline, zero-copy): connection bootstrap through PMI,
// registered ring/staging/control-block memory, completion dispatch, and
// connection recovery.
//
// Memory layout per connection (mirroring paper section 4.2): the "shared"
// ring lives in the receiver's memory, registered and exported; the sender
// keeps a preregistered staging buffer of the same size; head and tail
// pointers are replicated so neither side ever polls through the network --
// the tail master lives at the receiver with a replica at the sender, the
// head master at the sender with a replica at the receiver.
//
// Recovery (see DESIGN.md "Connection recovery"): a transport error flushes
// the QP; both ranks then tear the QP pair down, re-handshake through PMI
// under a bumped epoch number, and the sender replays every ring byte the
// receiver has not acknowledged consuming from its retained staging copy.
// The head/tail counters plus the staging ring ARE the journal -- nothing
// extra is logged on the fast path.  Attempts back off exponentially; a
// budget of consecutive no-progress attempts bounds the retry loop, after
// which put/get raise ChannelError instead of hanging.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/mr.hpp"
#include "ib/node.hpp"
#include "ib/qp.hpp"
#include "ib/srq.hpp"
#include "rdmach/channel.hpp"
#include "sim/buffer.hpp"

namespace rdmach {

/// Registered control block; offsets are part of the wire protocol.  Each
/// counter is paired with a CRC word directly behind it so that, with
/// integrity checking on, one contiguous 16-byte RDMA write carries the
/// value together with its self-check (with it off, the 8-byte value alone
/// is written and the CRC words stay zero).
struct alignas(64) CtrlBlock {
  /// Written by the peer: how much of MY outgoing stream it has consumed.
  std::uint64_t tail_replica = 0;
  /// CRC32C of the tail value, written with it (integrity_check only).
  std::uint64_t tail_replica_crc = 0;
  /// Written by the peer: how much it has produced into MY incoming ring
  /// (used by the basic design only; the others piggyback/flag instead).
  std::uint64_t head_replica = 0;
  /// Basic design, integrity on: the sender's rolling stream CRC32C over
  /// bytes [0, head_replica) of this direction.
  std::uint64_t head_replica_crc = 0;
  /// My outgoing produced count (RDMA-write source for head updates).
  std::uint64_t head_master = 0;
  std::uint64_t head_master_crc = 0;
  /// My incoming consumed count (RDMA-write source for tail updates).
  std::uint64_t tail_master = 0;
  std::uint64_t tail_master_crc = 0;
};

inline constexpr std::size_t kCtrlTailReplicaOff = 0;
inline constexpr std::size_t kCtrlHeadReplicaOff = 16;
inline constexpr std::size_t kCtrlHeadMasterOff = 32;
inline constexpr std::size_t kCtrlTailMasterOff = 48;

/// Word layout of a connection half's endpoint record -- everything the
/// peer needs to wire the pair, published once per connect generation under
/// one key, like ibv_rc_pingpong's `pingpong_dest`.  A design's extra words (the
/// adaptive FIN landing zone and auxiliary QP numbers) follow kEpBaseWords.
enum EndpointWord : std::size_t {
  kEpQpn,
  kEpRingAddr,
  kEpRingRkey,
  kEpCtrlAddr,
  kEpCtrlRkey,
  kEpBaseWords
};

class VerbsConnection : public Connection {
 public:
  ib::QueuePair* qp = nullptr;
  /// Dedicated receive ring; the peer RDMA-writes message data here.  Not
  /// zero-filled: VerbsChannelBase::ready_recv_ring writes its slot flag
  /// words before the peer learns its address.
  sim::UninitBytes recv_ring;
  /// Preregistered send-side copy buffer.  Not zero-filled: every byte is
  /// written before it is posted or checksummed.
  sim::UninitBytes staging;
  CtrlBlock ctrl;
  ib::MemoryRegion* ring_mr = nullptr;
  ib::MemoryRegion* staging_mr = nullptr;
  ib::MemoryRegion* ctrl_mr = nullptr;
  std::uint64_t r_ring_addr = 0;  // peer's recv ring (for my writes)
  std::uint32_t r_ring_rkey = 0;
  std::uint64_t r_ctrl_addr = 0;  // peer's control block
  std::uint32_t r_ctrl_rkey = 0;

  /// Recovery journal counters (the data itself lives in `staging` /
  /// `ctrl`, which survive QP replacement).
  struct Recovery {
    std::uint64_t epoch = 0;  // completed re-handshakes on this connection
    int attempts = 0;         // consecutive recoveries without progress
    std::uint64_t last_synced = 0;        // peer consumed mark at last epoch
    std::uint64_t last_synced_local = 0;  // my consumed mark at last epoch
    bool failed = false;  // an error CQE implicated the current QP
    bool dead = false;    // retry budget exhausted (here or at the peer)
    /// The current attempt run includes a CRC-mismatch NACK; colors the
    /// budget-exhaustion error ChannelError::kIntegrity.  Cleared with
    /// `attempts` whenever a recovery makes progress.
    bool integrity = false;
    // ---- watchdog (ChannelConfig::recovery_epoch_deadline) ----------------
    /// Virtual-time deadline of the current no-progress episode; armed by
    /// the episode's first recovery attempt, re-armed on progress, expired
    /// -> ChannelError::kDead with a RecoverySnapshot.  0 = never armed.
    sim::Tick deadline = 0;
    /// When the last recovery attempt started; a gap longer than the
    /// deadline window means a *new* episode (re-arm, don't trip) even
    /// though `attempts` carries over, mirroring the budget's semantics.
    sim::Tick last_attempt = 0;
    /// Deadline value a dma_arrival wakeup has been scheduled for (one
    /// call_at per armed deadline, not one per parked wait).
    sim::Tick wakeup_armed = 0;
    /// Integrity NACKs ever raised on this connection + epoch of the last
    /// (diagnostic snapshot fodder).
    std::uint64_t nacks = 0;
    std::uint64_t last_nack_epoch = 0;
    // ---- accrual suspicion (ChannelConfig::health_detector) ---------------
    /// Per-peer suspicion score: each no-progress recovery attempt accrues
    /// one unit, every successful completion observed for this connection
    /// decays one.  With the health detector on, a watchdog conviction
    /// additionally requires the score to have reached
    /// kHealthSuspicionTrip -- a slow-but-alive peer whose completions
    /// keep trickling in accrues suspicion gradually instead of
    /// binary-tripping at the fixed deadline.  Unused (stays 0) with the
    /// detector off.
    int suspicion = 0;
  };
  Recovery rec;
  ib::Node* peer_node = nullptr;  // for CM-style recovery wakeups

  /// Rails this connection has stopped scheduling onto after their port
  /// died -- the once-per-(connection, rail) guard behind the failover
  /// counters.  Sized to the node's rail count at init.
  std::vector<char> rail_failed;

  // ---- end-to-end integrity state (ChannelConfig::integrity_check) --------
  /// Basic design: rolling CRC32C over every byte ever put / verified on
  /// this direction.
  std::uint32_t send_crc = 0;
  std::uint32_t recv_crc = 0;
  /// Basic design: incoming stream prefix whose CRC has been verified;
  /// get() never reads past it.
  std::uint64_t verified_head = 0;
  /// Highest tail_replica value that passed its self-check word; credit
  /// computations use this, so a corrupted (garbage-high) tail cannot fake
  /// ring space.
  std::uint64_t tail_valid = 0;
  /// Receiver-side CRC mismatch pending: the NACK that arms the next
  /// maybe_recover() to re-handshake and trigger the sender's replay.
  bool integrity_failed = false;

  // ---- lazy connect / connection cache (rank-dimension scaling) -----------
  /// Bring-up state.  Eager init wires every pair up front, so connections
  /// are born kReady; under ChannelConfig::lazy_connect they are born kCold
  /// and walk kCold -> kRequested -> kReady on first use, then kReady ->
  /// kEvictWait -> kCold when the LRU cache shrinks the wired set back
  /// under qp_budget.  The endpoint record key is generation-scoped (lz_gen
  /// bumps at each teardown) so reconnects are fresh write-once exchanges,
  /// exactly like the epoch-scoped recovery records.
  enum class Boot { kCold, kRequested, kReady, kEvictWait };
  Boot boot = Boot::kReady;
  /// Connect generation; evictions bump it.  rec.epoch deliberately
  /// survives teardown -- stale rcv:* keys from a previous life must not
  /// fake a pending peer re-handshake after a reconnect.
  std::uint64_t lz_gen = 0;
  /// My half of the handshake (ring lease, QP, published record) exists
  /// for lz_gen.
  bool lz_local_ready = false;
  /// Flush requests sent since the peer's deferred ack last stopped pinning
  /// this connection's eviction (lazy_maybe_evict); their spacing backs off
  /// like any retry.
  std::uint8_t lz_flush_asks = 0;
  /// Connect / evict-wait retry pacing (rec.attempts is the shared budget);
  /// while kReady, the pacing of flush requests to the peer.
  sim::Tick lz_next_attempt = 0;
  /// LRU stamp from the channel's use clock; 0 = never used.
  std::uint64_t lz_last_used = 0;
  /// Channel evict-sequence number when this rank last evicted this peer;
  /// 0 = never evicted.  A reconnect landing within qp_budget evictions of
  /// this stamp means the LRU threw away a connection the working set still
  /// needed (cache thrash) -- see ChannelStats::qp_thrash.
  std::uint64_t lz_evicted_at = 0;
  /// Receive-ring base: recv_ring.data() for a dedicated ring, or a
  /// SharedRecvPool lease.  Every receive-path read goes through this.
  std::byte* rx = nullptr;
  /// rx is leased from the channel's shared receive pool (no private
  /// ring_mr; the pool's one registration covers every lease).
  bool ring_pooled = false;
};

class VerbsChannelBase : public Channel {
 public:
  sim::Task<void> init() override;
  sim::Task<void> finalize() override;
  Connection& connection(int peer) override;
  sim::Task<void> wait_for_activity() override;
  std::uint64_t activity_count() const override;

  /// Under lazy_connect the progress engine iterates wired peers only
  /// (kReady/kEvictWait), never the full rank dimension.
  const std::vector<int>* active_peers() const override {
    return cfg_.lazy_connect ? &active_ : nullptr;
  }
  /// Services the lazy-connect mailbox (join requests, evict handshakes)
  /// once per progress pass; no-op with lazy_connect off.
  sim::Task<void> pre_progress() override;

  ib::ProtectionDomain& pd() const noexcept { return *pd_; }
  ib::CompletionQueue& cq() const noexcept { return *cq_; }
  ib::Node& node() const noexcept { return *ctx_->node; }

  /// How many QP re-handshakes this channel has completed (all peers).
  std::uint64_t recoveries() const noexcept { return stats_.recoveries; }

  /// Copies the monotone counters and fills in the gauges: live QPs,
  /// resident bytes, the SRQ high water and open-quarantine time.
  ChannelStats stats() const override;
  /// Zeroes the counters; the gauges keep describing what is resident now.
  void reset_stats() override;

  /// Readies a kRingBytes receive ring before it is exposed to a peer:
  /// zeroes the SlotHeader at each `chunk_bytes` slot start and writes no
  /// other byte.  A slot's header gen word is its arrival flag, and its
  /// tail flag is read only after the gen matched -- and an RDMA write
  /// lands whole at its delivery instant -- so stale bytes past the
  /// headers (a previous tenant's, or the allocator's) are never read.
  /// The basic design reads only below the head replica, which its peer
  /// wrote, so the stride is harmless there.
  static void ready_recv_ring(std::byte* ring, std::size_t chunk_bytes);

 protected:
  VerbsChannelBase(pmi::Context& ctx, const ChannelConfig& cfg)
      : Channel(ctx, cfg) {}

  /// Design-specific connection state.
  virtual std::unique_ptr<VerbsConnection> make_connection() = 0;

  std::uint64_t next_wr_id() noexcept { return ++wr_seq_; }

  /// RDMA-writes staging[staging_off, +len) into the peer ring at ring_off.
  void post_ring_write(VerbsConnection& c, std::size_t staging_off,
                       std::size_t len, std::size_t ring_off, bool signaled,
                       std::uint64_t wr_id);

  /// RDMA-writes my head_master into the peer's head_replica (basic design).
  void post_head_update(VerbsConnection& c);
  /// RDMA-writes my tail_master into the peer's tail_replica.
  void post_tail_update(VerbsConnection& c);

  /// Polls every available CQE into the completion stash.
  void drain_cq();
  /// Removes a stashed completion for wr_id, if present.
  bool take_completion(std::uint64_t wr_id, ib::Wc* out);
  /// Blocks until the completion for wr_id on `c` is available.  Transport
  /// and flush errors are *returned* (they are runtime conditions the
  /// recovery layer handles); protection errors still throw -- channel-
  /// internal transfers are programmed correctly by construction, so a bad
  /// key or bounds violation here is a bug.  With a recovery episode in
  /// flight the park is bounded by the episode deadline -- a completion
  /// that never comes trips the watchdog (ChannelError::kDead + snapshot)
  /// instead of hanging forever; with the watchdog unarmed (the fault-free
  /// path) it parks on the CQ (on dma_arrival with several rails).
  sim::Task<ib::Wc> await_completion(VerbsConnection& c, std::uint64_t wr_id);

  // ---- recovery watchdog --------------------------------------------------
  /// Whether `c` is inside an armed, still-current watchdog episode (a
  /// stale deadline left over from a long-finished episode does not count).
  bool watchdog_armed(const VerbsConnection& c) const {
    if (cfg_.recovery_epoch_deadline == 0 || c.rec.deadline == 0) {
      return false;
    }
    return ctx_->sim().now() - c.rec.last_attempt <=
           cfg_.recovery_epoch_deadline;
  }
  /// Armed episode past its deadline?  With the health detector on, the
  /// deadline alone does not convict: the connection's accrued suspicion
  /// must also have reached the trip threshold, so a slow-but-alive peer
  /// whose completions keep decaying the score is never declared dead by
  /// the clock alone (the accrual-detector semantics).
  bool watchdog_expired(const VerbsConnection& c) const {
    if (!watchdog_armed(c) || ctx_->sim().now() < c.rec.deadline) {
      return false;
    }
    if (cfg_.health_detector &&
        c.rec.suspicion < kHealthSuspicionTrip) {
      return false;
    }
    return true;
  }
  /// What convicted a peer: an expired watchdog episode, the recovery
  /// retry budget, or the lazy-connect pacing budget.
  enum class Conviction { kWatchdog, kRetryBudget, kConnectBudget };
  /// The one conviction path: marks `c` dead, publishes the dead marker
  /// (releasing a peer parked in its own handshake wait), wakes the peer --
  /// and, for a watchdog trip, this node's parked loops -- posts the
  /// obituary, then throws ChannelError with a snapshot.  `stage` names the
  /// stuck wait (watchdog), the snapshot stage (retry budget) or the
  /// lazy-connect phase (connect budget).
  [[noreturn]] void convict(VerbsConnection& c, Conviction why,
                            const char* stage);
  /// The one dead check: if `c` is marked dead, or the peer published its
  /// dead marker toward this rank, marks `c` dead and throws
  /// ChannelError::kDead with a snapshot at `stage`.  No-op otherwise.
  void throw_if_dead(VerbsConnection& c, const char* stage);
  /// Builds the diagnostic snapshot from `c`'s current recovery state.
  RecoverySnapshot make_snapshot(const VerbsConnection& c,
                                 std::string stage) const;

  // ---- multi-rail bundle --------------------------------------------------
  /// Rail count of this rank's node, fixed at init.  1 on the default
  /// fabric; everything below collapses to the single-rail behavior then.
  int num_rails() const noexcept { return num_rails_; }
  /// The completion queue owned by `rail`'s HCA (rail 0 is cq()).
  ib::CompletionQueue& rail_cq(int rail) const { return *cqs_[static_cast<std::size_t>(rail)]; }
  /// Whether `rail`'s port is still up (initiator-side failure domain).
  bool rail_up(int rail) const {
    return rail >= 0 && rail < num_rails_ &&
           node().rail(rail).up();
  }
  /// First live rail, or 0 when every rail is dead (the recovery loop then
  /// keeps failing on it until the budget declares the connection dead).
  int lowest_live_rail() const {
    for (int r = 0; r < num_rails_; ++r) {
      if (node().rail(r).up()) return r;
    }
    return 0;
  }
  /// Creates a QP bound to `rail`'s port, completing into that rail's CQ.
  ib::QueuePair& create_rail_qp(int rail) {
    ib::Port& port = node().rail(rail);
    ++stats_.qps_created;
    return port.hca().create_qp(pd(), rail_cq(rail), rail_cq(rail), port);
  }
  /// Accounts `bytes` of data-plane traffic scheduled onto `rail`.
  void note_rail(int rail, std::uint64_t bytes) {
    if (rail < 0 || rail >= num_rails_) return;
    auto& t = stats_.rails[static_cast<std::size_t>(rail)];
    t.bytes += bytes;
    ++t.stripes;
  }
  /// Records that connection `c` abandoned dead `rail` (idempotent per
  /// (connection, rail): repeated recoveries of the same loss count once).
  void note_rail_dead(VerbsConnection& c, int rail) {
    if (rail < 0 || static_cast<std::size_t>(rail) >= c.rail_failed.size() ||
        c.rail_failed[static_cast<std::size_t>(rail)]) {
      return;
    }
    c.rail_failed[static_cast<std::size_t>(rail)] = 1;
    ++stats_.rails[static_cast<std::size_t>(rail)].failovers;
    ++stats_.rail_failovers;
  }

  // ---- gray-failure health monitor (ChannelConfig::health_detector) -------
  /// Per-rail accrual detector state.  Samples are per-chunk goodput
  /// observations (MB/s, the selector's unit); suspicious samples accrue a
  /// score instead of updating the EWMA (so a degraded rail cannot poison
  /// its own baseline), and crossing the trip threshold quarantines the
  /// rail out of the stripe set until probation probes measure healthy
  /// again.  All bookkeeping: no virtual time, no randomness.
  struct RailHealth {
    double mean = 0.0;          // goodput EWMA (MB/s)
    double var = 0.0;           // EWMA of squared deviation
    std::uint64_t samples = 0;  // healthy samples folded into the EWMA
    int suspicion = 0;          // accrued suspicion units
    bool quarantined = false;
    sim::Tick since = 0;        // quarantine entry (degraded_ns accounting)
    double baseline = 0.0;      // mean at quarantine entry
    int skip_count = 0;         // stripe decisions that skipped this rail
    int healthy_probes = 0;     // consecutive healthy probation probes
    bool probe_virgin = true;   // first probe decides false_suspicions
  };

  /// Stripe-set membership test: up AND (detector off OR not quarantined).
  /// Every adaptive scheduling site (write rail pick, read QP pick, aux-QP
  /// placement) consults this instead of rail_up() alone.
  bool rail_usable(int rail) const {
    if (!rail_up(rail)) return false;
    if (!cfg_.health_detector) return true;
    return !rail_health_[static_cast<std::size_t>(rail)].quarantined;
  }
  bool rail_quarantined(int rail) const {
    return cfg_.health_detector && rail >= 0 && rail < num_rails_ &&
           rail_health_[static_cast<std::size_t>(rail)].quarantined;
  }
  /// Probation policy: called by a scheduler each time it skips the
  /// quarantined `rail`; every health_probe_interval-th skip grants one
  /// single-chunk probe through it (the caller then schedules exactly one
  /// chunk there, whose completion sample is the probe's verdict).
  bool rail_probe_due(int rail) {
    if (!rail_quarantined(rail) || !rail_up(rail)) return false;
    RailHealth& h = rail_health_[static_cast<std::size_t>(rail)];
    if (++h.skip_count >= cfg_.health_probe_interval) {
      h.skip_count = 0;
      return true;
    }
    return false;
  }
  /// Detector input: one completed chunk of `bytes` that took
  /// `elapsed_usec` on `rail`.  Call beside the selector's record_rail.
  void note_rail_sample(int rail, std::uint64_t bytes, double elapsed_usec);

  // ---- connection recovery ------------------------------------------------
  /// How many units (bytes or slots, the design's choice) of the peer's
  /// incoming stream this rank has consumed -- the watermark published to
  /// the peer during a re-handshake so it knows where replay must start.
  virtual std::uint64_t journal_consumed(const VerbsConnection& c) const = 0;
  /// Units of my outgoing stream ever produced, in journal_consumed's
  /// unit; snapshots report produced minus the peer's last acknowledged
  /// watermark as the outstanding journal.
  virtual std::uint64_t journal_produced(const VerbsConnection& c) const {
    return c.ctrl.head_master;
  }
  /// Re-posts, onto the freshly connected QP, everything past the peer's
  /// acknowledged watermark: journalled ring state from `staging`, plus any
  /// design-specific in-flight control traffic (e.g. an interrupted
  /// zero-copy rendezvous).  Must be idempotent: replayed units may
  /// duplicate data the peer already holds bit-for-bit.
  virtual sim::Task<void> replay(VerbsConnection& c,
                                 std::uint64_t peer_consumed) = 0;
  /// Entry hook for put/get: raises ChannelError if the connection is dead,
  /// otherwise runs the recovery loop until the connection is clean.  Free
  /// of posts and virtual time on the fault-free path.
  sim::Task<void> maybe_recover(VerbsConnection& c);

  // ---- failure detector (process faults) ----------------------------------
  /// Publishes an obituary for `c`'s peer on the job-wide board.  Called by
  /// convict(), the one site that declares a peer permanently dead, so the
  /// first rank to pay a full detection cost spares everyone else theirs.
  /// Wakes every node's progress loop -- engines park on the fabric
  /// trigger, not the KVS one.  Idempotent per peer.
  void post_obituary(VerbsConnection& c);
  /// Whether `c`'s peer is already on the obituary board.
  bool peer_obituaried(const VerbsConnection& c) const {
    return ctx_->kvs->is_dead(c.peer);
  }
  /// Fast-fail gate: if the peer is obituaried (by anyone) and `c` is not
  /// yet locally marked dead, marks it and throws ChannelError::kDead with
  /// a snapshot -- the caller never burns a local retry budget against a
  /// known corpse.  No-op for live peers.
  void obit_fast_fail(VerbsConnection& c, const char* stage);

  // ---- lazy connect / connection cache ------------------------------------
  /// put()-side gate: under lazy_connect, services the handshake mailbox
  /// and drives `c` toward kReady, initiating the on-demand connect on
  /// first use.  Returns false when the connection is not usable yet (the
  /// caller accepts zero bytes this pass; a future wakeup is always
  /// pending, so a parked sender cannot deadlock).  Immediate true with
  /// lazy_connect off -- the eager path never reaches any of this.
  sim::Task<bool> ensure_tx(VerbsConnection& c);
  /// get()-side gate: like ensure_tx but passive -- a receiver never
  /// initiates a connection, it only answers the sender's request (the
  /// connect-request rendezvous of the lazy bootstrap).
  sim::Task<bool> ensure_rx(VerbsConnection& c);
  /// Cheap receive-path guard for lookahead/attach entry points: whether
  /// `c` currently has ring state worth reading.  Always true when eager.
  bool lazy_wired(const VerbsConnection& c) const {
    return !cfg_.lazy_connect ||
           c.boot == VerbsConnection::Boot::kReady ||
           c.boot == VerbsConnection::Boot::kEvictWait;
  }

  /// Highest unit of my outgoing stream the peer has acknowledged
  /// consuming; eviction requires journal_acked == journal_produced on both
  /// sides (an outstanding journal pins the connection).  Designs with
  /// piggybacked acknowledgements override.
  virtual std::uint64_t journal_acked(VerbsConnection& c) {
    return checked_tail(c);
  }
  /// Design veto on tearing down `c` (in-flight rendezvous, pending
  /// zero-copy acknowledgements, open CTS rounds...).
  virtual bool lazy_evictable(const VerbsConnection&) const { return true; }
  /// Zeroes design-specific journal counters at lazy teardown; the ctrl
  /// block itself is reset by the base.  Only fully-drained connections are
  /// ever torn down, so this is bookkeeping, not data loss.
  virtual void lazy_reset_journal(VerbsConnection&) {}
  /// Pushes out deferred consumption acknowledgements (piggybacked tail
  /// updates waiting for reverse traffic that may never come).  Called on
  /// wired connections while this rank is under cache pressure, and on the
  /// one a peer's flush request names: an unsent ack pins the PEER's
  /// journal, so flushing is what lets the peer evict its half.  Default
  /// no-op (designs that ack on every get need none).
  virtual void lazy_flush_acks(VerbsConnection&) {}
  /// Design hooks around the endpoint exchange (eager and lazy alike):
  /// per-connection extras (auxiliary QPs, flag arrays) are created with
  /// the local half and append their words to its endpoint record, are
  /// wired from the peer's record (its words from kEpBaseWords on, in the
  /// order setup_extra appended them), and are dropped at lazy teardown.
  /// Defaults are no-ops.
  virtual sim::Task<void> setup_extra(VerbsConnection& c, pmi::Record& ep);
  virtual void join_extra(VerbsConnection& c, const pmi::Record& ep);
  virtual sim::Task<void> lazy_evict_extra(VerbsConnection& c);

  /// Charges the per-call software overhead, flushing any modelled CRC
  /// cost accumulated since the last coroutine point first.
  sim::Task<void> call_overhead() {
    if (pending_crc_bytes_ > 0) co_await flush_crc_charge();
    co_await node().compute(kPerCallOverhead);
  }

  // ---- end-to-end integrity ----------------------------------------------
  /// Accumulates the modelled cost of checksumming `bytes` (the CRC walks
  /// the data through the CPU, i.e. memory-bus traffic).  Computation sites
  /// are often synchronous, so the charge is deferred and flushed at the
  /// next coroutine point (call_overhead / flush_crc_charge) -- at most one
  /// call late, which keeps the cost measurable without restructuring every
  /// header-poll site into a coroutine.
  void charge_crc(std::size_t bytes) {
    if (cfg_.integrity_check) pending_crc_bytes_ += bytes;
  }
  sim::Task<void> flush_crc_charge();
  /// Records a receiver-side CRC mismatch on `c`: bumps the counter, arms
  /// the recovery NACK, and wakes the local progress loop (detection
  /// happens inside a get()/put() that is about to return 0; with no other
  /// traffic, nothing else would re-enter maybe_recover).
  void flag_integrity_failure(VerbsConnection& c);
  /// `c.ctrl.tail_replica` filtered through its self-check word when
  /// integrity checking is on: a corrupted tail update is ignored (counted
  /// as a crc_failure) until the next clean one lands.
  std::uint64_t checked_tail(VerbsConnection& c);
  /// Injected ring-credit denial ("<node>.credit" fault scope):
  /// receiver-not-ready backpressure.  When it fires, the caller's put()
  /// accepts nothing this call; a delayed self-wakeup is scheduled so a
  /// sender parked in wait_for_activity() retries instead of deadlocking.
  bool credit_denied();
  /// Delayed dma_arrival self-wakeup (one retry_delay out) for degradation
  /// paths that turned work away with no future event otherwise pending.
  void schedule_retry_wakeup();

  /// Scatter/gather between an iov list (with a starting byte offset) and a
  /// ring region, handling ring wraparound; charges modelled copy time.
  /// `ws` is the working-set hint forwarded to Node::copy.
  sim::Task<void> copy_in(VerbsConnection& c, std::uint64_t ring_pos,
                          std::span<const ConstIov> iovs, std::size_t iov_off,
                          std::size_t n, std::size_t ws);
  sim::Task<void> copy_out(VerbsConnection& c, std::uint64_t ring_pos,
                           std::span<const Iov> iovs, std::size_t iov_off,
                           std::size_t n, std::size_t ws);

  /// The monotone counters behind stats(); designs bump them in place
  /// (replayed_bytes at each replay post site, degraded_ns when a
  /// quarantine window closes).  The gauge fields stay zero here and are
  /// filled in by stats().
  ChannelStats stats_;

  std::vector<std::unique_ptr<VerbsConnection>> conns_;  // [peer]; self null
  /// Live QPs only; an error CQE whose qp_num is absent belongs to a torn
  /// down epoch and must not re-trigger recovery.  Protected so designs
  /// with auxiliary QPs (adaptive read pipeline) can enrol them for error
  /// dispatch.
  std::unordered_map<std::uint32_t, VerbsConnection*> qp_index_;

 private:
  /// One teardown + re-handshake + replay cycle.  Throws ChannelError when
  /// the retry budget runs out (publishing the dead marker first so the
  /// peer is released too).
  sim::Task<void> recover(VerbsConnection& c);
  /// Schedules one dma_arrival self-wakeup at `c`'s episode deadline (at
  /// most one per armed deadline value), so waits parked against the node
  /// trigger are guaranteed a wakeup at expiry.
  void arm_watchdog_wakeup(VerbsConnection& c);
  /// Finalize-time flush of one connection: quiesces the QP and re-runs
  /// recovery until every byte a put() accepted has actually been delivered
  /// (or the connection is dead, whose loss put/get already surfaced).
  sim::Task<void> drain_connection(VerbsConnection& c);
  /// CM-style out-of-band event: fires the peer node's dma_arrival one
  /// wire latency from now, so a rank parked in wait_for_activity() learns
  /// that a recovery handshake (or a dead marker) awaits it.
  void wake_peer(VerbsConnection& c);
  /// True when the peer has published its half of the next epoch's
  /// handshake -- the signal for a rank that saw no local error to join.
  bool peer_epoch_pending(VerbsConnection& c) const;
  /// True when the peer has published its dead marker toward this rank.
  /// Like peer_epoch_pending, free of key lookups until some channel has
  /// published a recovery key (Kvs::recovery_version).
  bool peer_declared_dead(const VerbsConnection& c) const;

  // ---- endpoint exchange (eager bootstrap and lazy connect) ---------------
  /// Step one: allocates my half of `c` (ring lease or dedicated ring,
  /// staging, ctrl, QP, design extras) and publishes it as one endpoint
  /// record for c.lz_gen.  False = shared receive pool exhausted (counted
  /// as a credit stall; caller retries).  Idempotent per generation.
  sim::Task<bool> setup_half(VerbsConnection& c);
  /// Step two: takes the peer's endpoint record -- remote ring and ctrl
  /// block, design extras -- and, on the lower rank, connects the pair.
  void join_half(VerbsConnection& c, const pmi::Record& ep);

  // ---- lazy connect internals ---------------------------------------------
  /// One pass of the lazy control plane: drains the handshake mailbox,
  /// drives pending joins, then enforces qp_budget.  Reentrancy-guarded --
  /// every put/get/progress pass calls it.
  sim::Task<void> lazy_service();
  /// Handles one mailbox record {op, from, gen, consumed}.
  sim::Task<void> lz_handle_mail(std::uint64_t op, int from, std::uint64_t gen,
                                 std::uint64_t consumed);
  /// Drives one kRequested connection: sets up the local half if needed,
  /// then joins the peer half once its endpoint record is published.
  sim::Task<void> lazy_advance(VerbsConnection& c);
  /// Tears down a drained connection back to kCold and bumps lz_gen.
  sim::Task<void> lazy_teardown(VerbsConnection& c);
  /// Starts one LRU eviction handshake when the wired set exceeds
  /// qp_budget and a fully-drained victim exists.
  sim::Task<void> lazy_maybe_evict();
  /// Connect / evict-wait retry pacing against the shared attempt budget;
  /// throws ChannelError::kDead when it runs out (publishing the dead
  /// marker first, like recovery budget exhaustion).
  sim::Task<void> lz_pace(VerbsConnection& c, const char* stage);
  /// Appends the control record {op, my rank, gen, consumed} to the peer's
  /// mailbox and wakes it.
  void lz_post_mail(VerbsConnection& c, std::uint64_t op, std::uint64_t gen,
                    std::uint64_t consumed = 0);
  void lz_touch(VerbsConnection& c) { c.lz_last_used = ++lz_clock_; }
  void lz_activate(int peer);
  void lz_deactivate(int peer);
  void lz_unpend(int peer);

  ib::ProtectionDomain* pd_ = nullptr;
  ib::CompletionQueue* cq_ = nullptr;
  /// One CQ per rail; cqs_[0] == cq_ (the legacy name "rankN.cq", so
  /// single-rail traces are unchanged).  Completion dispatch drains all of
  /// them; wr_ids are globally unique across rails.
  std::vector<ib::CompletionQueue*> cqs_;
  int num_rails_ = 1;
  // ---- gray-failure health monitor ----------------------------------------
  std::vector<RailHealth> rail_health_;  // sized to num_rails_ at init
  /// Cheap over-approximation of "some connection has an armed watchdog
  /// episode": set when recover() arms a deadline, never on the fault-free
  /// path -- gates the per-CQE qp_index_ lookup that credits successful
  /// completions as episode progress (drain_cq), so clean runs pay nothing.
  bool wd_hint_ = false;
  std::unordered_map<std::uint64_t, ib::Wc> completed_;
  /// drain_cq scratch for batched CQ polling (reused across passes so the
  /// hot path never allocates).
  std::vector<ib::Wc> wc_scratch_;
  std::uint64_t wr_seq_ = 0;
  /// Modelled CRC cost not yet charged to the memory bus.
  std::size_t pending_crc_bytes_ = 0;

  // ---- lazy connect / connection cache state ------------------------------
  ib::SharedRecvPool srq_pool_;
  ib::MemoryRegion* srq_mr_ = nullptr;
  /// Wired peers (kReady/kEvictWait), ascending -- the progress engine's
  /// iteration set and the eviction scan's domain (bounded by qp_budget+1).
  std::vector<int> active_;
  /// Peers mid-handshake (kRequested); each service pass re-drives them.
  std::vector<int> lz_pending_;
  /// This rank's handshake mailbox, fetched once by the first service pass
  /// (Kvs::mail references are stable).
  const std::vector<pmi::Record>* lz_mail_ = nullptr;
  bool lz_service_busy_ = false;
  /// Peer of the one in-flight eviction handshake, or -1.
  int lz_evict_peer_ = -1;
  /// Peer the in-flight ensure_tx/ensure_rx is for, or -1: never picked as
  /// an eviction victim.  Without this, a rank whose other connections are
  /// all pinned (e.g. tail acks waiting on reverse traffic) would evict the
  /// one clean connection -- the one the current operation needs -- and
  /// livelock on evict/reconnect.
  int lz_protect_ = -1;
  /// Messages of *lz_mail_ already handled.  32 bits fill the padding in
  /// front of lz_clock_, so the mailbox pointer adds no object size.
  std::uint32_t lz_mail_cursor_ = 0;
  std::uint64_t lz_clock_ = 0;
  /// Resident connections (wired QP sets), the qp_budget gauge.
  std::uint64_t qps_live_ = 0;
  /// Evictions this rank has initiated (the thrash-window clock).
  std::uint64_t lz_evict_seq_ = 0;
  /// One-shot diagnostic guard for the thrash warning.
  bool qp_thrash_warned_ = false;
};

}  // namespace rdmach
