// Adaptive rendezvous engine.
//
// The paper's own evaluation (Figures 14/15) shows the zero-copy design
// losing to CH3 for mid-size messages: its rendezvous is a single RDMA
// read, and the HCA completes only one outstanding read per QP, so every
// message pays a full request round trip that nothing overlaps.  This
// design keeps the ring/slot machinery for small messages and replaces the
// single-read rendezvous with two protocols plus an online selector:
//
//  * RDMA-write path (kRtsWrite): the receiver answers the RTS with a CTS
//    carrying its registered sink window {addr, rkey, room}; the sender
//    RDMA-writes the data straight from the user buffer and posts an
//    8-byte FIN flag write behind it on the same QP -- QP ordering makes
//    the flag's arrival prove the data's.  One round trip of control, no
//    read request leg, but the CTS leg sits on the critical path.
//
//  * Chunked multi-read pipeline (kRtsRead): the RTS carries {addr, len,
//    rkey} as in the zero-copy design, but the receiver splits the pull
//    into kRndvReadChunk-sized reads striped over rndv_read_qps auxiliary
//    QPs, so up to N reads are outstanding despite the per-QP limit.
//
//  * The ProtocolSelector starts from static thresholds (eager below
//    zero_copy_threshold, write path in the mid band, read path from
//    rndv_read_threshold up) and moves the write/read crossover as
//    observed per-protocol goodput accumulates.
//
// put_pinned() is the fast path: rendezvous bytes are *accepted*
// immediately (so many sends overlap -- their RTS slots queue in the
// receiver's ring) and *released* when the ack retires the token; the
// release watermark preserves stream order.  The classic put() keeps the
// zero-copy channel's semantics (returns 0 until the rendezvous
// completes) so existing callers and differential tests hold.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "rdmach/piggyback_channel.hpp"
#include "rdmach/protocol_selector.hpp"
#include "rdmach/reg_cache.hpp"

namespace rdmach {

/// kRtsWrite / kRtsRead slot payload (addr/rkey meaningful for kRtsRead).
struct AdaptiveRts {
  std::uint64_t token = 0;
  std::uint64_t len = 0;
  std::uint64_t addr = 0;
  std::uint64_t rkey = 0;
  /// CRC32C of the whole message (integrity_check only); the read path
  /// verifies the assembled sink against it before reporting bytes.
  std::uint64_t crc = 0;
};

/// kCts slot payload: one registered sink window of the receiver.
struct AdaptiveCts {
  std::uint64_t token = 0;
  std::uint64_t addr = 0;
  std::uint64_t rkey = 0;
  std::uint64_t room = 0;
};

/// kAckTok slot payload.
struct AdaptiveAck {
  std::uint64_t token = 0;
};

/// FIN-flag slots per connection; tokens map in round-robin.  Outstanding
/// rendezvous are bounded by the ring's slot count (each holds an RTS slot),
/// which is far below this, so a slot is always long retired before reuse.
inline constexpr std::size_t kFinSlots = 64;

class AdaptiveConnection : public SlotConnection {
 public:
  // ---- sender side --------------------------------------------------------
  struct OutRndv {
    std::uint64_t token = 0;
    ProtocolSelector::Proto proto = ProtocolSelector::Proto::kRead;
    const std::byte* src = nullptr;
    std::size_t len = 0;
    ib::MemoryRegion* mr = nullptr;  // source registration, held until ack
    sim::Tick start = 0;             // RTS post time (selector goodput)
    unsigned conc = 1;               // rendezvous in flight at start (incl. self)
    bool legacy = false;             // started by classic put()
    /// Rail carrying this rendezvous' write rounds (multi-rail; -1 until
    /// the first CTS assigns one, re-picked if the rail dies mid-round).
    int rail = -1;
    // Write path: the currently open CTS round writes source bytes
    // [round_base, w_sent) into the advertised window.
    bool cts_seen = false;
    std::uint64_t w_addr = 0;
    std::uint32_t w_rkey = 0;
    std::size_t round_base = 0;
    std::size_t w_sent = 0;
  };
  std::deque<OutRndv> out;  // un-retired tokens, oldest first
  std::uint64_t next_token = 0;

  /// Stream-order segment FIFO behind the put_pinned release watermark:
  /// eager segments are born done, rendezvous segments retire at ack.
  struct Seg {
    std::size_t len = 0;
    std::uint64_t token = 0;
    bool done = false;
  };
  std::deque<Seg> segs;

  // Classic put(): the single in-flight rendezvous it is polling on.
  bool legacy_active = false;
  bool legacy_done = false;
  std::size_t legacy_len = 0;

  // ---- receiver side ------------------------------------------------------
  struct Chunk {
    std::size_t off = 0;
    std::size_t len = 0;
    std::uint64_t wr = 0;
    int qp = -1;  // aux index; -1 = main QP (rndv_read_qps == 0)
    int rail = 0;          // rail the carrying QP rides (stats/selector)
    sim::Tick start = 0;   // post time, for the per-rail goodput EWMA
    std::byte* dst = nullptr;
    ib::MemoryRegion* mr = nullptr;
    bool done = false;
    bool failed = false;  // error CQE seen; replay re-issues
  };
  /// One inbound rendezvous.  The front entry's RTS slot sits at the ring
  /// head (kept there, FIFO, until the rendezvous retires); later entries
  /// were started through attach_rndv() while the head was still in
  /// flight -- their RTS slots sit in the drained-ahead region and are
  /// consumed when they reach the head.
  struct InRndv {
    std::uint64_t token = 0;
    bool read = false;  // which protocol the RTS requested
    std::size_t len = 0;
    std::size_t done = 0;      // contiguous bytes landed in the sink
    std::size_t reported = 0;  // bytes already returned from get
    /// Sink attached by attach_rndv(); empty for the head-of-pipe flow,
    /// which places into whatever iovs get() offers.
    std::vector<Iov> sink;
    std::size_t sink_len = 0;
    // Read path:
    std::uint64_t src_addr = 0;
    std::uint32_t src_rkey = 0;
    std::size_t issued = 0;      // next source offset to pull
    std::deque<Chunk> chunks;    // issue order == offset order
    // Write path: the open CTS round expects the FIN flag to reach expect.
    bool cts_open = false;
    std::size_t expect = 0;
    ib::MemoryRegion* dst_mr = nullptr;
    /// Start of the open round's sink window (integrity: the FIN-carried
    /// round CRC is verified over [round_dst, round_dst + expect - done)).
    std::byte* round_dst = nullptr;
    // Integrity (read path): rolling CRC over the retired chunk prefix, the
    // RTS-advertised whole-message CRC, and whether it has been reproduced.
    std::uint32_t crc_state = 0;
    std::uint64_t crc_expect = 0;
    bool verified = false;
    /// Slots drained ahead *between* the previous entry's RTS slot and this
    /// one's (frame headers, eager payloads, control slots); consumed in
    /// one burst when the previous entry retires.
    std::uint64_t gap_before = 0;
  };
  std::deque<InRndv> inq;
  /// Drained-ahead region past the last inq entry's RTS slot: whole slots
  /// already copied out / processed, plus the byte offset reached in the
  /// first partially drained slot.
  std::uint64_t tail_drained = 0;
  std::size_t tail_off = 0;

  /// Completion acks owed but not yet posted (ring was full), token order.
  std::deque<std::uint64_t> ack_queue;

  // ---- multi-rail striping state ------------------------------------------
  /// Bytes scheduled onto each rail by this connection (deficit counters
  /// for the weighted stripe policy; indexed by flat rail index).
  std::vector<std::uint64_t> rail_sched;
  /// Round-robin cursor for RailPolicy::kRoundRobin.
  std::size_t rr_next = 0;

  // ---- resources ----------------------------------------------------------
  std::vector<ib::QueuePair*> aux;  // my read-pipeline initiator QPs
  std::vector<std::uint64_t> fin_flags;  // peer FIN-writes land here
  std::vector<std::uint64_t> fin_src;    // my FIN write sources
  ib::MemoryRegion* fin_mr = nullptr;
  ib::MemoryRegion* fin_src_mr = nullptr;
  std::uint64_t r_fin_addr = 0;  // peer's fin_flags
  std::uint32_t r_fin_rkey = 0;
};

class AdaptiveChannel : public PipelineChannel {
 public:
  AdaptiveChannel(pmi::Context& ctx, const ChannelConfig& cfg)
      : PipelineChannel(ctx, cfg),
        sel_(ProtocolSelector::Config{cfg.zero_copy_threshold,
                                      cfg.rndv_read_threshold,
                                      kSelectorProbeInterval}) {}

  sim::Task<void> init() override;
  sim::Task<void> finalize() override;
  sim::Task<std::size_t> put(Connection& conn,
                             std::span<const ConstIov> iovs) override;
  sim::Task<std::size_t> get(Connection& conn,
                             std::span<const Iov> iovs) override;
  sim::Task<std::size_t> put_pinned(Connection& conn,
                                    std::span<const ConstIov> iovs) override;

  /// Rendezvous lookahead (see channel.hpp): overlap up to half the ring's
  /// slots worth of rendezvous beyond the head -- each holds an RTS slot
  /// plus its frame-header slot, so deeper lookahead could not be fed.
  std::size_t rndv_lookahead() const override {
    return std::max<std::size_t>(1, slot_count() / 2 - 1);
  }
  sim::Task<std::size_t> get_ahead(Connection& conn,
                                   std::span<const Iov> iovs) override;
  sim::Task<bool> attach_rndv(Connection& conn,
                              std::span<const Iov> sink) override;

  ChannelStats stats() const override;

  RegCache& reg_cache() noexcept { return *cache_; }
  const ProtocolSelector& selector() const noexcept { return sel_; }

 protected:
  std::unique_ptr<VerbsConnection> make_connection() override {
    return std::make_unique<AdaptiveConnection>();
  }

  /// Piggyback slot replay (covers RTS/CTS/ack control slots), then:
  /// errored aux QPs are reset in place (drained error-state QPs return to
  /// service with their peer binding intact), failed chunk reads re-issued
  /// with fresh destination registrations, and the open CTS round of every
  /// outbound write rendezvous re-written -- data then FIN, both idempotent
  /// because the loaned source bytes are still stable.
  sim::Task<void> replay(VerbsConnection& c,
                         std::uint64_t peer_consumed) override;

  /// Endpoint extras: the FIN-flag arrays and the read pipeline's aux QPs
  /// are built with the local half of every connect, eager or lazy (their
  /// words ride in the endpoint record), joined before the main QP's
  /// commit point, and dropped at lazy teardown.
  sim::Task<void> setup_extra(VerbsConnection& c, pmi::Record& ep) override;
  void join_extra(VerbsConnection& c, const pmi::Record& ep) override;
  sim::Task<void> lazy_evict_extra(VerbsConnection& c) override;
  /// Rendezvous tokens, segment loans, and queued acks live outside the
  /// slot journal; a connection carrying any of them must not be torn down.
  bool lazy_evictable(const VerbsConnection& conn) const override {
    const auto& c = static_cast<const AdaptiveConnection&>(conn);
    return c.out.empty() && c.inq.empty() && c.segs.empty() &&
           c.ack_queue.empty() && !c.legacy_active;
  }
  void lazy_reset_journal(VerbsConnection& conn) override {
    PiggybackChannel::lazy_reset_journal(conn);
    auto& c = static_cast<AdaptiveConnection&>(conn);
    c.out.clear();
    c.segs.clear();
    c.inq.clear();
    c.ack_queue.clear();
    c.legacy_active = false;
    c.legacy_done = false;
    c.legacy_len = 0;
    c.tail_drained = 0;
    c.tail_off = 0;
  }

 private:
  sim::Task<std::size_t> engine(AdaptiveConnection& c,
                                std::span<const ConstIov> iovs, bool pinned);
  /// Consumes leading control slots (CTS, ack) so a sender stuck in put
  /// still makes rendezvous progress.
  sim::Task<void> progress_sender(AdaptiveConnection& c);
  /// False when the source registration was refused (pin-down exhaustion):
  /// nothing was posted and the caller should fall back to the copy path.
  sim::Task<bool> start_rndv(AdaptiveConnection& c, const ConstIov& big,
                             ProtocolSelector::Proto proto, bool pinned);
  void handle_cts(AdaptiveConnection& c, const AdaptiveCts& cts);
  sim::Task<void> handle_ack(AdaptiveConnection& c, std::uint64_t token);
  /// Data-plane progress for every inbound rendezvous (harvest reads, FIN
  /// checks, chunk issue, CTS rounds), the ahead control-slot scan, head
  /// reporting into *delivered (when non-null; bytes land in the caller's
  /// iovs only for an unattached head), and head retirement.
  sim::Task<void> progress_inbound(AdaptiveConnection& c,
                                   std::span<const Iov> iovs,
                                   std::size_t* delivered);
  /// Harvests one rendezvous' chunk-read completions and retires the done
  /// prefix.
  sim::Task<void> harvest_chunks(AdaptiveConnection& c,
                                 AdaptiveConnection::InRndv& r);
  /// Processes CTS/ack slots parked in the drained-ahead region (reverse
  /// traffic queued behind an in-flight inbound RTS).
  sim::Task<void> scan_ahead_ctrl(AdaptiveConnection& c);
  /// Slot depth (relative to slots_consumed) of the first un-drained slot.
  std::uint64_t ahead_depth(const AdaptiveConnection& c) const;
  void post_ctrl_slot(AdaptiveConnection& c, SlotKind kind, const void* body,
                      std::size_t len);
  void flush_acks(AdaptiveConnection& c);
  void advance_release(AdaptiveConnection& c);
  /// Aux QP (or main-QP fallback) with no read in flight across any
  /// inbound rendezvous; -2 when none.  Single-rail fabrics scan in aux
  /// order (the original schedule); multi-rail fabrics first pick a live
  /// rail by ChannelConfig::rail_policy, then a free QP bound to it.
  int pick_read_qp(AdaptiveConnection& c);
  void post_chunk_read(AdaptiveConnection& c,
                       const AdaptiveConnection::InRndv& r,
                       AdaptiveConnection::Chunk& ch);
  /// First usable aux QP riding `rail` (port up, not in error); -1 if none.
  int aux_on_rail(const AdaptiveConnection& c, int rail) const;
  /// Live rail for the next outbound write round, by stripe policy; -1
  /// when every rail (with an aux QP) is dead.
  int pick_write_rail(AdaptiveConnection& c);
  /// QP carrying rendezvous `r`'s data+FIN round; assigns (or, after a rail
  /// death, re-assigns) r.rail.  Falls back to the main QP when no aux QP
  /// survives.
  ib::QueuePair* write_qp(AdaptiveConnection& c,
                          AdaptiveConnection::OutRndv& r);

  std::unique_ptr<RegCache> cache_;
  ProtocolSelector sel_;
};

}  // namespace rdmach
