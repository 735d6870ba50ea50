// The MPICH2 RDMA Channel interface (paper section 3.2).
//
// The interface contains five functions, "among which only two are central
// to communication": put (write) and get (read).  Both accept a connection
// and a list of buffers, return the number of bytes completed, and are
// nonblocking -- if fewer bytes complete than requested, the caller retries
// later.  Logically each connection direction is a FIFO pipe: put appends
// to it, get consumes from it.
//
// Five implementations are provided, mirroring the paper's progression:
//   * ShmChannel       -- Figure 3: ring buffer in literally shared memory
//                         (the scheme the RDMA designs emulate); also the
//                         semantic reference for differential tests.
//   * BasicChannel     -- section 4.2: RDMA-write emulation of the shared
//                         ring; three RDMA writes per message (data, head
//                         pointer, tail pointer).
//   * PiggybackChannel -- section 4.3: head updates piggybacked on the data
//                         (size header + two polling flags per chunk), tail
//                         updates delayed/batched/piggybacked.
//   * PipelineChannel  -- section 4.4: large messages copied and written
//                         chunk-by-chunk so copies overlap RDMA.
//   * ZeroCopyChannel  -- section 5: large messages bypass the ring via a
//                         control packet + RDMA read into the user buffer,
//                         with a registration cache.
//
// In our simulated-process model put/get are coroutines because they spend
// *virtual CPU time* (modelled memcpy); they still never wait for remote
// progress, preserving the paper's nonblocking contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pmi/pmi.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace rdmach {

struct Iov {
  std::byte* base = nullptr;
  std::size_t len = 0;
};

struct ConstIov {
  const std::byte* base = nullptr;
  std::size_t len = 0;

  ConstIov() = default;
  ConstIov(const std::byte* b, std::size_t n) : base(b), len(n) {}
  ConstIov(const Iov& iov) : base(iov.base), len(iov.len) {}  // NOLINT
  ConstIov(const void* b, std::size_t n)
      : base(static_cast<const std::byte*>(b)), len(n) {}
};

inline std::size_t total_length(std::span<const ConstIov> iovs) {
  std::size_t n = 0;
  for (const auto& v : iovs) n += v.len;
  return n;
}

inline std::size_t total_length(std::span<const Iov> iovs) {
  std::size_t n = 0;
  for (const auto& v : iovs) n += v.len;
  return n;
}

enum class Design {
  kShm,
  kBasic,
  kPiggyback,
  kPipeline,
  kZeroCopy,
  /// Figure 1's multi-method box: shared memory within a node, the
  /// zero-copy RDMA design across nodes (requires a pmi::Job built with
  /// ranks_per_node > 1 to have any intra-node pairs).
  kMultiMethod,
  /// Adaptive rendezvous engine: eager slots below a threshold, then a
  /// per-message choice between sender-driven RDMA-write rendezvous and a
  /// chunked multi-QP RDMA-read pipeline, steered by an online selector
  /// that tunes the crossover from observed per-protocol goodput.
  kAdaptive,
};

const char* to_string(Design d);

/// Stripe policy for spreading rendezvous traffic over a multi-rail node.
enum class RailPolicy {
  kWeighted,    // deficit scheduling against per-rail goodput EWMAs
  kRoundRobin,  // strict rotation over live rails (naive baseline)
};

// ---- fixed channel parameters ----------------------------------------------
// Parameters with one value in use.  ChannelConfig below holds only the
// knobs some test or bench runs off their defaults.

/// Shared ring buffer per connection direction (also the staging size).
/// ChannelConfig::chunk_bytes divides it into slots.
inline constexpr std::size_t kRingBytes = 128 * 1024;
/// CPU cost charged per put/get invocation (channel bookkeeping).
inline constexpr sim::Tick kPerCallOverhead = sim::usec(0.05);
/// Pin-down capacity of every registration cache (section 5): the
/// channels' zero-copy caches and the one-sided windows'.
inline constexpr std::size_t kRegCacheCapacity = 64u << 20;
/// Recovery backoff before the first re-handshake; it doubles per
/// consecutive no-progress attempt up to kRecoveryBackoffCap (see
/// capped_backoff).  Shared by the channels and the one-sided windows.
inline constexpr sim::Tick kRecoveryBackoff = sim::usec(20);
inline constexpr sim::Tick kRecoveryBackoffCap = sim::usec(2000);
/// Default recovery watchdog budget (ChannelConfig::recovery_epoch_deadline)
/// and the one-sided windows' fixed flush/lock watchdog.
inline constexpr sim::Tick kRecoveryEpochDeadline = sim::usec(50'000);
/// Gray-failure health monitor (health_detector): EWMA weight of new
/// per-rail goodput samples.
inline constexpr double kHealthAlpha = 0.2;
/// Accrued suspicion units that trip quarantine.
inline constexpr int kHealthSuspicionTrip = 3;
/// Minimum samples on a rail before suspicion can accrue (EWMA warmup).
inline constexpr int kHealthWarmup = 8;
/// A probe within this factor of the rail's pre-degrade goodput EWMA
/// counts as healthy.
inline constexpr double kHealthReinstateFactor = 0.5;
/// Consecutive healthy probes required to reinstate a quarantined rail.
inline constexpr int kHealthReinstateProbes = 2;
/// Chunk size of the adaptive design's multi-read pipeline; one read is
/// outstanding per aux QP (the HCA's one-outstanding-read limit), so a
/// large pull becomes ceil(len / chunk) reads striped over the aux QPs.
inline constexpr std::size_t kRndvReadChunk = 128 * 1024;
/// Every Nth rendezvous in a size bucket, the adaptive design's selector
/// probes the protocol with fewer samples (deterministic exploration).
inline constexpr int kSelectorProbeInterval = 32;
/// EWMA weight of new goodput observations in the protocol selector.
inline constexpr double kSelectorAlpha = 0.3;

/// Recovery backoff before consecutive attempt `attempts` (1-based):
/// kRecoveryBackoff doubled per earlier attempt, capped at
/// kRecoveryBackoffCap.
sim::Tick capped_backoff(int attempts);

struct ChannelConfig {
  Design design = Design::kZeroCopy;
  /// Fixed chunk size the kRingBytes ring is divided into (Figure 9; paper
  /// picks 16K).
  std::size_t chunk_bytes = 16 * 1024;
  /// Buffers of at least this size use the zero-copy path (ZeroCopy only).
  /// Below it, the per-message RDMA-read round trip would cost more than
  /// the pipelined copies save.
  std::size_t zero_copy_threshold = 32 * 1024;
  /// Send an explicit tail update after this many consumed slots with no
  /// reverse traffic to piggyback on.  0 = half the slot count.  At most
  /// the slot count (kRingBytes / chunk_bytes): a one-way sender stalls
  /// once every slot is consumed and unacknowledged, so a larger threshold
  /// would never fire and the stream would deadlock.
  std::size_t tail_update_slots = 0;
  /// Registration cache (section 5) for zero-copy user buffers.
  bool use_reg_cache = true;

  // ---- end-to-end integrity -----------------------------------------------
  /// Adds a CRC32C to every ring slot header and rendezvous completion and
  /// verifies it at the receiver: a payload bit flipped in flight is
  /// detected instead of silently delivered, NACKed through the recovery
  /// handshake, and retransmitted under the recovery retry budget
  /// (ChannelError::kIntegrity on exhaustion).  The checksum cost is
  /// charged to the modelled memory bus, so turning this on has a
  /// measurable price (bench/abl_integrity.cpp); off by default so the
  /// fault-free figure baselines are bit-identical.
  bool integrity_check = false;

  // ---- connection recovery ------------------------------------------------
  /// How many consecutive recovery attempts (QP teardown + re-handshake +
  /// replay) a connection may make without either direction's consumed
  /// watermark advancing before the connection is declared dead and put/get
  /// raise ChannelError.  Attempts that make progress reset the budget.
  /// Each attempt first waits capped_backoff(attempt).  The one-sided
  /// windows (mpi::Window) spend the same budget per target.
  int recovery_max_attempts = 8;
  /// Recovery watchdog: virtual-time budget for one recovery *episode* (a
  /// run of back-to-back attempts with no watermark progress).  An episode
  /// still unfinished at its deadline -- spinning re-handshakes, a replay
  /// whose completions never come, a handshake parked on a peer that never
  /// answers -- is converted into ChannelError::kDead with a diagnostic
  /// RecoverySnapshot instead of hanging forever.  Progress re-arms the
  /// deadline, so long fault storms that keep moving data are not killed.
  /// 0 disables the watchdog (attempt budget only).  Sized so the attempt
  /// budget gets first say on the pure retry-spin path (default budget *
  /// capped backoff ~= 16 ms << 50 ms).
  sim::Tick recovery_epoch_deadline = kRecoveryEpochDeadline;

  // ---- process-fault detection --------------------------------------------
  /// Failure detector for *permanent* rank death: when the recovery
  /// watchdog, the retry budget, or the lazy-connect pacing budget convicts
  /// a peer as dead, publish a job-wide obituary (PMI-KVS board, piggybacked
  /// in-band on eager headers by the MPI engine) so every other rank learns
  /// of the death in O(1) observations and fails fast with the snapshot
  /// attached, instead of each independently burning a full retry budget.
  /// Off by default: a conviction then stays a pairwise verdict (the
  /// pre-detector behavior -- a budget exhaustion on one pair says nothing
  /// certain about the peer's other connections), and the board is never
  /// consulted.  With it on and no faults injected, traces stay
  /// bit-identical: the detector only acts on convictions.
  bool ft_detector = false;

  // ---- gray-failure health monitor ----------------------------------------
  /// Accrual-style per-rail health detector: completion-latency samples feed
  /// a per-rail goodput EWMA (weight kHealthAlpha) + variance, deviant
  /// samples accrue a suspicion score, and a rail whose suspicion reaches
  /// kHealthSuspicionTrip is proactively *quarantined* -- pulled from the
  /// adaptive stripe set and kept on probation with periodic single-chunk
  /// probes -- before any watchdog conviction.  A degraded-then-healed rail
  /// is reinstated without a reconnect once kHealthReinstateProbes probes
  /// in a row recover.  Off by default: detection falls back to the fixed
  /// recovery_epoch_deadline alone, and armed-but-fault-free traces stay
  /// bit-identical (the monitor consumes no virtual time and draws no
  /// randomness either way).
  bool health_detector = false;
  /// A sample slower than mean + this many sigmas is "suspicious" and
  /// accrues one unit of suspicion; healthy samples decay the score.
  double health_soft_sigma = 3.0;
  /// Probation: one single-chunk probe is allowed through a quarantined
  /// rail every this many scheduling decisions that would otherwise have
  /// skipped it.
  int health_probe_interval = 16;

  // ---- adaptive rendezvous engine (Design::kAdaptive) ---------------------
  /// Static starting point for the write/read crossover: rendezvous of at
  /// least this many bytes begin on the chunked-read pipeline, smaller ones
  /// on the write path.  The online selector moves the boundary as observed
  /// goodput accumulates.  (The eager/rendezvous boundary is
  /// zero_copy_threshold, as in the zero-copy design.)
  std::size_t rndv_read_threshold = 256 * 1024;
  /// Auxiliary QP pairs per connection for the kRndvReadChunk read
  /// pipeline.  0 degrades to single-read-at-a-time on the main QP (the
  /// zero-copy behavior).
  int rndv_read_qps = 4;

  // ---- multi-rail striping (nodes with >1 HCA/port) -----------------------
  /// How rendezvous chunks are spread over the node's rails.  kWeighted
  /// balances scheduled bytes against each rail's learned goodput EWMA (a
  /// slow rail gets proportionally fewer chunks); kRoundRobin rotates
  /// strictly -- the naive baseline the weighted policy is measured against.
  /// Irrelevant on single-rail fabrics: rail 0 carries everything.
  RailPolicy rail_policy = RailPolicy::kWeighted;

  // ---- rank-dimension scaling ---------------------------------------------
  /// On-demand connection establishment: init() allocates no per-peer
  /// rings/QPs; a connection is wired on the first put() toward a peer via
  /// a PMI connect-request rendezvous (the passive side joins lazily when
  /// it sees the request).  Off by default -- the eager bootstrap stays
  /// bit-identical to the paper-era behavior.
  bool lazy_connect = false;
  /// Connection-cache budget (lazy_connect only): when more than this many
  /// peers are wired, the least-recently-used fully-drained connection is
  /// torn down (both sides agree through an evict handshake) and its peer
  /// transparently re-connects on next use.  0 = unlimited (no eviction).
  /// The bound is soft: a connection whose journal has outstanding entries
  /// refuses eviction until drained.
  int qp_budget = 0;
  /// SRQ-style shared receive pool: receive rings come from a per-rank pool
  /// of this many kRingBytes-sized leases (one MR for the whole pool)
  /// instead of a dedicated allocation per peer.  Pool exhaustion maps onto
  /// the credit-denial backpressure path (credit_stalls), not deadlock.
  /// 0 = dedicated per-peer rings (the paper's layout).
  std::size_t srq_pool_rings = 0;
};

/// Per-protocol transfer counters for ChannelStats.
struct ProtoStats {
  std::uint64_t ops = 0;
  std::uint64_t bytes = 0;
  /// Recovery re-posts of this protocol's in-flight operations.
  std::uint64_t retries = 0;
  /// Observed goodput (MB/s, MB = 1e6 B): selector EWMA for the rendezvous
  /// protocols of the adaptive design, bytes-over-active-interval elsewhere.
  double mbps = 0.0;

  bool operator==(const ProtoStats&) const = default;
};

/// Snapshot of a channel's protocol decisions and per-protocol traffic;
/// benches and tests read it through Channel::stats().
struct ChannelStats {
  ProtoStats eager;
  ProtoStats rndv_write;
  ProtoStats rndv_read;
  /// Completed QP re-handshakes (all peers).
  std::uint64_t recoveries = 0;
  // ---- integrity / degradation counters (all monotone) --------------------
  /// Receiver-side CRC32C mismatches (integrity_check on).
  std::uint64_t crc_failures = 0;
  /// Units re-posted by recovery replay (ring slots, reads, write rounds).
  std::uint64_t retransmits = 0;
  /// Rendezvous demoted to the pipelined copy path (or deferred) because a
  /// buffer registration was refused.
  std::uint64_t reg_fallbacks = 0;
  /// CQEs dropped by an injected CQ overrun and resurfaced via
  /// drain-and-rearm recovery.
  std::uint64_t cq_overruns = 0;
  /// put() attempts turned away by credit denial (receiver-not-ready
  /// backpressure instead of deadlock).
  std::uint64_t credit_stalls = 0;
  /// Recovery episodes the watchdog aborted (stuck replay/re-handshake
  /// converted into ChannelError::kDead).
  std::uint64_t watchdog_trips = 0;
  /// Bytes re-posted by recovery replay (journalled ring data, re-issued
  /// rendezvous reads/rounds) -- the data-volume face of `retransmits`.
  std::uint64_t replayed_bytes = 0;
  /// Current eager/rendezvous boundary in bytes.
  std::size_t eager_threshold = 0;
  /// Current write/read rendezvous crossover in bytes (adaptive design:
  /// the selector's learned boundary; others: 0).
  std::size_t write_read_crossover = 0;
  // ---- multi-rail ---------------------------------------------------------
  /// Per-rail data-plane traffic (indexed by the node's flat rail index).
  /// `stripes` counts rendezvous chunks/rounds scheduled onto the rail;
  /// `failovers` counts connections that abandoned it after it died.
  struct RailStats {
    std::uint64_t bytes = 0;
    std::uint64_t stripes = 0;
    std::uint64_t failovers = 0;

    bool operator==(const RailStats&) const = default;
  };
  std::vector<RailStats> rails;
  /// Total (connection, rail) pairs that failed over to surviving rails.
  std::uint64_t rail_failovers = 0;
  // ---- gray-failure health monitor (health_detector) ----------------------
  /// Rails pulled from the stripe set by accrued suspicion (proactive
  /// quarantine, before any watchdog conviction).
  std::uint64_t rail_quarantines = 0;
  /// Quarantined rails returned to service after probes recovered.
  std::uint64_t rail_reinstates = 0;
  /// Suspicion-score threshold crossings (one per quarantine entry; kept
  /// separate so a future per-peer detector can trip without quarantining).
  std::uint64_t suspicion_trips = 0;
  /// Quarantines whose very first probe already measured healthy -- the
  /// detector jumped at noise, not at a degrade.
  std::uint64_t false_suspicions = 0;
  /// Virtual nanoseconds rails spent in quarantine (summed across rails).
  std::uint64_t degraded_ns = 0;
  // ---- rank-dimension scaling (lazy connect / SRQ pool) -------------------
  /// QPs this rank ever created (bootstrap, on-demand connects, recovery
  /// re-handshakes, auxiliary read-pipeline QPs).
  std::uint64_t qps_created = 0;
  /// Connections torn down by the LRU connection cache (qp_budget).
  std::uint64_t qps_evicted = 0;
  /// Connections wired on demand (first-use or re-connect after eviction).
  std::uint64_t connects_on_demand = 0;
  /// Peak simultaneously leased rings in the shared receive pool.
  std::uint64_t srq_pool_high_water = 0;
  /// Bytes of per-rank communication memory currently resident: staging +
  /// receive rings (pooled or dedicated) + control blocks.  Counts what is
  /// allocated, not what is touched: pool storage and staging are not
  /// zero-filled, so their pages stay untouched until first written.
  std::uint64_t resident_bytes = 0;
  /// Currently wired peer connections (O(active peers), not O(ranks)).
  std::uint64_t qps_live = 0;
  /// LRU ping-pong: reconnects of a peer this rank itself evicted within
  /// the last qp_budget evictions -- a qp_budget smaller than the working
  /// set (2*log2(p) dissemination peers for the tree collectives) makes
  /// every collective round pay a teardown + rendezvous it immediately
  /// undoes.  Nonzero means "raise qp_budget".
  std::uint64_t qp_thrash = 0;
  // ---- process-fault detection --------------------------------------------
  /// Obituaries this rank published (peers it convicted as permanently
  /// dead via retry-budget exhaustion or a watchdog trip).
  std::uint64_t obits_posted = 0;
  /// Operations against a peer that failed fast off the obituary board
  /// instead of burning a local retry budget -- the O(1)-detection payoff.
  std::uint64_t obit_fast_fails = 0;

  /// Folds `o` into this snapshot -- the one place that says how each field
  /// aggregates across channels or ranks: counters, gauges and per-protocol
  /// ops/bytes/retries sum, rails[] sums element by element, and rates and
  /// thresholds (mbps, eager_threshold, write_read_crossover,
  /// srq_pool_high_water) take the larger value.
  ChannelStats& operator+=(const ChannelStats& o);

  bool operator==(const ChannelStats&) const = default;
};

/// Diagnostic state of a recovery episode at the moment it was given up,
/// attached to the ChannelError so a failed NAS run (or chaos soak) reports
/// *where* recovery was stuck without a debugger.
struct RecoverySnapshot {
  /// Where the episode died: "retry-budget", "watchdog:retry-loop",
  /// "watchdog:handshake", "watchdog:connect", "watchdog:completion".
  std::string stage;
  std::uint64_t epoch = 0;  // completed re-handshakes on the connection
  int attempts = 0;         // consecutive no-progress attempts so far
  /// Journal units (design's choice: bytes or slots) produced but not yet
  /// acknowledged consumed by the peer -- what a further replay would carry.
  std::uint64_t journal_outstanding = 0;
  int live_rails = 0;
  int total_rails = 0;
  /// Integrity NACKs raised on this connection, and the epoch of the last.
  std::uint64_t nacks = 0;
  std::uint64_t last_nack_epoch = 0;

  std::string to_string() const;
};

/// Raised by put/get when a connection is beyond recovery: the retry budget
/// is exhausted (locally or on the peer, via its published dead marker), or
/// the recovery watchdog expired on a stuck episode.  The channel object
/// itself stays usable for other peers; only the named connection is dead.
class ChannelError : public std::runtime_error {
 public:
  /// What exhausted the budget: kDead = transport errors (QPs kept dying)
  /// or a watchdog-detected hang, kIntegrity = repeated end-to-end CRC
  /// mismatches that retransmission could not clear.
  enum Kind { kDead, kIntegrity };

  ChannelError(int peer, const std::string& what, Kind kind = kDead)
      : std::runtime_error(what), peer_(peer), kind_(kind) {}
  ChannelError(int peer, const std::string& what, Kind kind,
               RecoverySnapshot snapshot)
      : std::runtime_error(what),
        peer_(peer),
        kind_(kind),
        snapshot_(std::move(snapshot)),
        has_snapshot_(true) {}
  int peer() const noexcept { return peer_; }
  Kind kind() const noexcept { return kind_; }
  /// Episode diagnostics, present on errors raised by the recovery layer
  /// (budget exhaustion and watchdog trips).
  bool has_snapshot() const noexcept { return has_snapshot_; }
  const RecoverySnapshot& snapshot() const noexcept { return snapshot_; }

  /// One-line render of everything the error carries -- kind, peer, message,
  /// and the recovery snapshot when present -- so a nasfault failure or test
  /// log shows *where* recovery was stuck, not just the error code.
  std::string to_string() const;

 private:
  int peer_;
  Kind kind_;
  RecoverySnapshot snapshot_;
  bool has_snapshot_ = false;
};

/// Per-peer endpoint handle.  Concrete channels subclass this with their
/// protocol state; users treat it as opaque.
class Connection {
 public:
  virtual ~Connection() = default;
  int peer = -1;

  /// Loan watermarks maintained by Channel::put_pinned (see there).  Bytes
  /// with stream position < loan_released are no longer referenced by the
  /// channel; [loan_released, loan_accepted) are on loan and must stay
  /// stable.  Cumulative over the connection's lifetime.
  std::uint64_t loan_accepted = 0;
  std::uint64_t loan_released = 0;
};

class Channel {
 public:
  /// Builds an uninitialized channel of the configured design for this
  /// rank; call init() from the rank's process before first use.
  static std::unique_ptr<Channel> create(pmi::Context& ctx,
                                         const ChannelConfig& cfg);

  virtual ~Channel() = default;

  // ---- the five functions -------------------------------------------------
  /// (1) init: allocate/register rings, exchange keys via PMI, connect QPs.
  virtual sim::Task<void> init() = 0;
  /// (2) finalize: quiesce and release registered memory.
  virtual sim::Task<void> finalize() = 0;
  /// (3) process management: the connection to a peer rank.
  virtual Connection& connection(int peer) = 0;
  /// (4) put: append to the pipe; returns bytes accepted (possibly 0).
  virtual sim::Task<std::size_t> put(Connection& conn,
                                     std::span<const ConstIov> iovs) = 0;
  /// (5) get: consume from the pipe into `iovs`; returns bytes delivered
  /// (possibly 0).  May make internal protocol progress even when
  /// returning 0.
  virtual sim::Task<std::size_t> get(Connection& conn,
                                     std::span<const Iov> iovs) = 0;

  /// Like put, but accepted bytes are *loaned*: the caller keeps them
  /// stable and unchanged until the release watermark passes them
  /// (put_released(conn) >= their stream position).  This lets zero-copy
  /// rendezvous accept a large buffer immediately -- without blocking the
  /// pipe behind its completion -- while the transfer still reads from the
  /// caller's memory.  The default forwards to put (copying designs release
  /// on accept).  Do not mix put and put_pinned on one connection.
  virtual sim::Task<std::size_t> put_pinned(Connection& conn,
                                            std::span<const ConstIov> iovs);

  /// Cumulative bytes ever accepted / released by put_pinned on `conn`.
  std::uint64_t put_accepted(const Connection& conn) const noexcept {
    return conn.loan_accepted;
  }
  std::uint64_t put_released(const Connection& conn) const noexcept {
    return conn.loan_released;
  }

  // ---- rendezvous lookahead -----------------------------------------------
  /// get() parks on an in-flight rendezvous at the head of the pipe until
  /// its data leg completes.  A framing-aware caller (ch3::StreamMux) can
  /// overlap the data legs of *successive* messages: while the head is in
  /// flight, get_ahead() drains the stream bytes queued behind it (the next
  /// frames' headers and eager payloads), and attach_rndv() hands the
  /// channel the sink for a rendezvous parked behind the head so its
  /// transfer starts immediately instead of after the head retires.
  /// Completion stays in stream order: bytes landed ahead are only
  /// *reported* by get() once everything before them has been delivered.
  ///
  /// rndv_lookahead() returns how many rendezvous the channel can hold in
  /// flight beyond the head; 0 (the default) means no lookahead support and
  /// the other two calls are no-ops.
  virtual std::size_t rndv_lookahead() const { return 0; }
  virtual sim::Task<std::size_t> get_ahead(Connection& conn,
                                           std::span<const Iov> iovs);
  virtual sim::Task<bool> attach_rndv(Connection& conn,
                                      std::span<const Iov> sink);

  /// Snapshot of protocol decisions and per-protocol traffic counters.
  virtual ChannelStats stats() const;

  /// Zeroes every counter behind stats() so per-run deltas are exact --
  /// call it after init() (bootstrap traffic excluded) or between phases
  /// that must be accounted separately.  Monotone-counter semantics resume
  /// from zero; connection/protocol *state* is untouched.
  virtual void reset_stats();

  // ---- conveniences -------------------------------------------------------
  // Coroutines (not plain forwarders) so the iov lives in the frame for the
  // whole lazy-task lifetime.
  sim::Task<std::size_t> put(Connection& conn, const void* buf,
                             std::size_t len) {
    const ConstIov iov{buf, len};
    co_return co_await put(conn, std::span<const ConstIov>(&iov, 1));
  }
  sim::Task<std::size_t> get(Connection& conn, void* buf, std::size_t len) {
    const Iov iov{static_cast<std::byte*>(buf), len};
    co_return co_await get(conn, std::span<const Iov>(&iov, 1));
  }

  // ---- sparse progress (rank-dimension scaling) ---------------------------
  /// Peers with live channel state, sorted ascending -- the set a progress
  /// loop must visit.  nullptr (the default, and always for eager
  /// bootstrap) means "all peers": callers keep their dense per-rank scan,
  /// bit-identical to the historical behavior.
  virtual const std::vector<int>* active_peers() const { return nullptr; }
  /// Out-of-band service hook for sparse progress loops: drains connection
  /// requests / evict handshakes that no per-peer put/get would otherwise
  /// observe.  No-op by default; called only when active_peers() != nullptr.
  virtual sim::Task<void> pre_progress();

  /// Blocks until this rank may have new work (incoming DMA, completion,
  /// ...).  Progress loops call this between polls; pair with
  /// activity_count() to close the check-then-sleep race.
  virtual sim::Task<void> wait_for_activity() = 0;
  /// Monotone counter that advances whenever wait_for_activity() would
  /// have been woken.
  virtual std::uint64_t activity_count() const = 0;

  int rank() const noexcept { return ctx_->rank; }
  int size() const noexcept { return ctx_->size; }
  pmi::Context& ctx() const noexcept { return *ctx_; }
  const ChannelConfig& config() const noexcept { return cfg_; }

 protected:
  Channel(pmi::Context& ctx, const ChannelConfig& cfg)
      : ctx_(&ctx), cfg_(cfg) {}

  /// Raw per-protocol accounting behind stats(); note() records an op and
  /// the active interval used to derive an aggregate MB/s.
  struct ProtoTrack {
    std::uint64_t ops = 0;
    std::uint64_t bytes = 0;
    std::uint64_t retries = 0;
    sim::Tick first = 0;
    sim::Tick last = 0;
  };
  void note(ProtoTrack& t, std::size_t bytes) {
    const sim::Tick now = ctx_->sim().now();
    if (t.ops == 0) t.first = now;
    t.last = now;
    ++t.ops;
    t.bytes += bytes;
  }
  static ProtoStats snapshot(const ProtoTrack& t) {
    ProtoStats s{t.ops, t.bytes, t.retries, 0.0};
    if (t.last > t.first && t.bytes > 0) {
      s.mbps = static_cast<double>(t.bytes) /
               (static_cast<double>(t.last - t.first) / sim::usec(1));
    }
    return s;
  }
  /// Writes the per-protocol snapshots and the eager threshold into `s`:
  /// the part of stats() every design shares.
  void snapshot_protocols(ChannelStats& s) const;

  pmi::Context* ctx_;
  ChannelConfig cfg_;
  ProtoTrack eager_track_;
  ProtoTrack rndv_write_track_;
  ProtoTrack rndv_read_track_;
};

}  // namespace rdmach
