// Piggybacking and pipelining designs, paper sections 4.3 and 4.4.
//
// The ring is divided into fixed-size chunks ("slots").  Each transfer
// writes one slot with a single RDMA write containing:
//
//   [ header: payload_len | gen (head flag) | kind | piggyback_tail ]
//   [ payload ... ]
//   [ gen (tail flag / "bottom fill") ]
//
// The generation number doubles as both polling flags, so a slot whose
// previous-round content happens to look like data can never be mistaken
// for a new message.  Head-pointer updates are gone entirely -- arrival of
// the flags IS the head update.  Tail updates are delayed: they piggyback
// on reverse-direction slots via the header's piggyback_tail field, and an
// explicit 8-byte tail write is sent only after `tail_update_slots`
// consumed slots see no reverse traffic.
//
// PiggybackChannel sends a large message by copying every chunk into the
// staging buffer first and only then posting the RDMA writes (copies and
// transfers serialized).  PipelineChannel posts each chunk's write
// immediately after copying it, overlapping the copy of chunk k+1 with the
// wire time of chunk k (section 4.4).
#pragma once

#include "rdmach/verbs_base.hpp"

namespace rdmach {

enum class SlotKind : std::uint32_t {
  kData = 0xD1,
  kRts = 0xD2,  // zero-copy rendezvous request (ZeroCopyChannel)
  kAck = 0xD3,  // zero-copy completion acknowledgement
  // Adaptive rendezvous engine (AdaptiveChannel):
  kRtsWrite = 0xD4,  // rendezvous request, sender-driven RDMA-write path
  kRtsRead = 0xD5,   // rendezvous request, chunked RDMA-read path
  kCts = 0xD6,       // receiver's clear-to-send (registered sink window)
  kAckTok = 0xD7,    // tokened rendezvous completion acknowledgement
};

struct SlotHeader {
  std::uint32_t payload_len = 0;
  std::uint32_t gen = 0;  // head flag
  std::uint32_t kind = 0;
  /// CRC32C over the header (this word zeroed) + payload, written with the
  /// slot when ChannelConfig::integrity_check is on; zero otherwise.  The
  /// "bottom-fill" flags gain their checksum word here.
  std::uint32_t crc = 0;
  std::uint64_t piggyback_tail = 0;
};
static_assert(sizeof(SlotHeader) == 24);

/// Per-slot framing overhead: header + 4-byte tail flag.
inline constexpr std::size_t kSlotOverhead = sizeof(SlotHeader) + 4;

class SlotConnection : public VerbsConnection {
 public:
  // -- sender side ----------------------------------------------------------
  std::uint64_t slots_sent = 0;
  /// Highest consumed-slot count learned through piggybacked headers
  /// (ctrl.tail_replica carries the explicitly RDMA-written updates).
  std::uint64_t tail_piggy = 0;

  // -- receiver side ---------------------------------------------------------
  std::uint64_t slots_consumed = 0;   // mirrored into ctrl.tail_master
  std::size_t cur_slot_off = 0;       // payload bytes already delivered
  std::uint64_t consumed_since_update = 0;
  /// Integrity: per-slot-index generation whose CRC already verified, so a
  /// ready slot is checksummed once, not on every poll (lazily sized to
  /// slot_count()).
  std::vector<std::uint32_t> slot_crc_ok;

  // -- zero-copy sender state (ZeroCopyChannel) ------------------------------
  bool rndv_active = false;
  bool rndv_acked = false;
  std::size_t rndv_len = 0;
  ib::MemoryRegion* rndv_mr = nullptr;

  // -- zero-copy receiver state ----------------------------------------------
  bool r_rndv_active = false;
  std::uint64_t r_addr = 0;
  std::uint32_t r_rkey = 0;
  std::size_t r_len = 0;
  std::size_t r_done = 0;
  bool r_read_inflight = false;
  std::uint64_t r_read_wr = 0;
  std::size_t r_read_len = 0;
  std::byte* r_read_dst = nullptr;  // exact destination (the cached MR may
                                    // start earlier); recovery re-reads here
  ib::MemoryRegion* r_dst_mr = nullptr;
  bool ack_pending = false;

  // -- zero-copy receiver integrity (ChannelConfig::integrity_check) ---------
  /// Whole-message CRC advertised in the RTS; the rolling state over landed
  /// reads; and bytes landed but not yet reported to the caller (reporting
  /// is deferred until the message verifies).
  std::uint64_t r_crc_expect = 0;
  std::uint32_t r_crc = 0;
  std::size_t r_unreported = 0;
};

class PiggybackChannel : public VerbsChannelBase {
 public:
  PiggybackChannel(pmi::Context& ctx, const ChannelConfig& cfg,
                   bool pipelined = false)
      : VerbsChannelBase(ctx, cfg), pipelined_(pipelined) {}

  sim::Task<std::size_t> put(Connection& conn,
                             std::span<const ConstIov> iovs) override;
  sim::Task<std::size_t> get(Connection& conn,
                             std::span<const Iov> iovs) override;

  std::size_t slot_count() const noexcept {
    return kRingBytes / cfg_.chunk_bytes;
  }
  std::size_t slot_capacity() const noexcept {
    return cfg_.chunk_bytes - kSlotOverhead;
  }

 protected:
  std::unique_ptr<VerbsConnection> make_connection() override {
    return std::make_unique<SlotConnection>();
  }

  std::size_t free_slots(SlotConnection& c) {
    // The explicit tail replica goes through its self-check (integrity on)
    // so corrupted credit cannot overrun live slots; piggybacked tails ride
    // inside CRC-verified slots and are trusted once harvested.
    const std::uint64_t consumed = std::max(checked_tail(c), c.tail_piggy);
    return slot_count() - static_cast<std::size_t>(c.slots_sent - consumed);
  }

  std::uint32_t send_gen(const SlotConnection& c) const {
    return static_cast<std::uint32_t>(c.slots_sent / slot_count()) + 1;
  }
  std::uint32_t recv_gen(const SlotConnection& c) const {
    return static_cast<std::uint32_t>(c.slots_consumed / slot_count()) + 1;
  }

  /// Prepares the current staging slot (header + payload area + tail flag)
  /// for a payload of `len` bytes and returns a pointer to the payload
  /// area.  finish_slot() posts it.
  std::byte* begin_slot(SlotConnection& c, SlotKind kind, std::size_t len);
  void finish_slot(SlotConnection& c, std::size_t len);

  /// Points at the slot the receiver would consume next, or nullptr if its
  /// flags are not complete yet.  Also harvests the piggybacked tail.
  const SlotHeader* peek_slot(SlotConnection& c);
  const std::byte* slot_payload(const SlotConnection& c) const;

  /// Like peek_slot/slot_payload but `depth` slots past the consume point
  /// (depth 0 is the head).  Consumption stays strictly FIFO -- a caller
  /// that drains a deeper slot must account for it and consume it only
  /// once everything before it has been consumed.
  const SlotHeader* peek_slot_at(SlotConnection& c, std::uint64_t depth);
  const std::byte* slot_payload_at(const SlotConnection& c,
                                   std::uint64_t depth) const;

  /// Marks the current receive slot consumed and sends a (possibly
  /// delayed) explicit tail update when due.
  void consume_slot(SlotConnection& c);

  /// Integrity check for the slot at absolute index `abs` (already
  /// flag-complete).  Verified slots are cached per (index, gen); a
  /// mismatch NACKs via flag_integrity_failure and returns false.
  bool verify_slot(SlotConnection& c, std::uint64_t abs,
                   const std::byte* slot, const SlotHeader* hdr);

  std::size_t tail_threshold() const {
    return cfg_.tail_update_slots != 0 ? cfg_.tail_update_slots
                                       : std::max<std::size_t>(1, slot_count() / 2);
  }

  /// Slot-granular journal: the consumed watermark counts slots.
  std::uint64_t journal_consumed(const VerbsConnection& c) const override;
  std::uint64_t journal_produced(const VerbsConnection& c) const override;
  /// Piggybacked tails count as acknowledgements too (they rode inside
  /// CRC-verified slots), so eviction is not held up waiting for an
  /// explicit tail write that delayed-tail-update may never send.
  std::uint64_t journal_acked(VerbsConnection& c) override {
    auto& sc = static_cast<SlotConnection&>(c);
    return std::max(checked_tail(sc), sc.tail_piggy);
  }
  /// Delayed tail update: consumed slots whose explicit tail write is still
  /// deferred pin the peer's journal.  Under cache pressure, send it now.
  void lazy_flush_acks(VerbsConnection& c) override {
    auto& sc = static_cast<SlotConnection&>(c);
    if (sc.consumed_since_update == 0) return;
    post_tail_update(sc);
    sc.consumed_since_update = 0;
  }
  /// A re-connected peer starts from slot 0 in a zeroed ring.
  void lazy_reset_journal(VerbsConnection& c) override {
    auto& sc = static_cast<SlotConnection&>(c);
    sc.slots_sent = 0;
    sc.tail_piggy = 0;
    sc.slots_consumed = 0;
    sc.cur_slot_off = 0;
    sc.consumed_since_update = 0;
    sc.slot_crc_ok.clear();
  }
  /// Re-posts staged slots [peer_consumed, slots_sent) -- each slot's
  /// length is recovered from its staged header -- and resyncs both local
  /// views of the peer's consumption forward.
  sim::Task<void> replay(VerbsConnection& c,
                         std::uint64_t peer_consumed) override;

  bool pipelined_;
};

/// Section 4.4: piggybacking + per-chunk copy/transfer overlap.
class PipelineChannel : public PiggybackChannel {
 public:
  PipelineChannel(pmi::Context& ctx, const ChannelConfig& cfg)
      : PiggybackChannel(ctx, cfg, /*pipelined=*/true) {}
};

}  // namespace rdmach
