#include "rdmach/piggyback_channel.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "rdmach/crc32c.hpp"

namespace rdmach {

namespace {
/// Fixed software cost of assembling one slot (header construction, flag
/// placement, descriptor build).  Amortized away at 16K chunks; it is what
/// makes 1K chunks a poor choice in the Figure 9 sweep.
constexpr sim::Tick kSlotBuildOverhead = sim::nsec(300);
}  // namespace

std::byte* PiggybackChannel::begin_slot(SlotConnection& c, SlotKind kind,
                                        std::size_t len) {
  const std::size_t idx =
      static_cast<std::size_t>(c.slots_sent % slot_count());
  std::byte* slot = c.staging.data() + idx * cfg_.chunk_bytes;
  SlotHeader hdr;
  hdr.payload_len = static_cast<std::uint32_t>(len);
  hdr.gen = send_gen(c);
  hdr.kind = static_cast<std::uint32_t>(kind);
  // Piggyback the freshest consumption state of the reverse direction.
  hdr.piggyback_tail = c.slots_consumed;
  c.consumed_since_update = 0;
  std::memcpy(slot, &hdr, sizeof(hdr));
  return slot + sizeof(SlotHeader);
}

void PiggybackChannel::finish_slot(SlotConnection& c, std::size_t len) {
  const std::size_t idx =
      static_cast<std::size_t>(c.slots_sent % slot_count());
  std::byte* slot = c.staging.data() + idx * cfg_.chunk_bytes;
  const std::uint32_t gen = send_gen(c);
  std::memcpy(slot + sizeof(SlotHeader) + len, &gen, sizeof(gen));
  if (cfg_.integrity_check) {
    // The staged header's crc word is still zero (begin_slot wrote it so):
    // checksum header + payload in place and drop the result into the slot.
    // The tail flag is excluded -- it is the arrival signal, not data.
    const std::uint32_t crc = crc32c(slot, sizeof(SlotHeader) + len);
    std::memcpy(slot + offsetof(SlotHeader, crc), &crc, sizeof(crc));
    charge_crc(sizeof(SlotHeader) + len);
  }
  ++c.slots_sent;
}

const SlotHeader* PiggybackChannel::peek_slot(SlotConnection& c) {
  return peek_slot_at(c, 0);
}

const SlotHeader* PiggybackChannel::peek_slot_at(SlotConnection& c,
                                                 std::uint64_t depth) {
  if (depth >= slot_count()) return nullptr;  // sender can't have sent it yet
  const std::uint64_t abs = c.slots_consumed + depth;
  const std::size_t idx = static_cast<std::size_t>(abs % slot_count());
  const std::byte* slot = c.rx + idx * cfg_.chunk_bytes;
  const auto* hdr = reinterpret_cast<const SlotHeader*>(slot);
  const std::uint32_t gen =
      static_cast<std::uint32_t>(abs / slot_count()) + 1;
  if (hdr->gen != gen) return nullptr;  // head flag not set
  if (hdr->payload_len > slot_capacity()) {
    // A corrupted length would index the tail flag outside the slot; NACK
    // instead of reading wild memory.  (Without the integrity option the
    // header is trusted, as in the paper's designs.)
    if (cfg_.integrity_check) flag_integrity_failure(c);
    return nullptr;
  }
  std::uint32_t tail_flag = 0;
  std::memcpy(&tail_flag, slot + sizeof(SlotHeader) + hdr->payload_len,
              sizeof(tail_flag));
  if (tail_flag != gen) return nullptr;  // message body still in flight
  // Verify before the piggyback harvest: a corrupted piggyback_tail must
  // not leak into the credit machinery.
  if (cfg_.integrity_check && !verify_slot(c, abs, slot, hdr)) return nullptr;
  // Harvest the piggybacked tail update for our sending direction.
  if (hdr->piggyback_tail > c.tail_piggy) c.tail_piggy = hdr->piggyback_tail;
  return hdr;
}

bool PiggybackChannel::verify_slot(SlotConnection& c, std::uint64_t abs,
                                   const std::byte* slot,
                                   const SlotHeader* hdr) {
  if (c.slot_crc_ok.size() != slot_count()) {
    c.slot_crc_ok.assign(slot_count(), 0);
  }
  const std::size_t idx = static_cast<std::size_t>(abs % slot_count());
  if (c.slot_crc_ok[idx] == hdr->gen) return true;  // already verified
  SlotHeader h = *hdr;
  h.crc = 0;  // the sender checksummed with this word zeroed
  std::uint32_t crc = crc32c_update(0, &h, sizeof(h));
  crc = crc32c_update(crc, slot + sizeof(SlotHeader), hdr->payload_len);
  charge_crc(sizeof(SlotHeader) + hdr->payload_len);
  if (crc != hdr->crc) {
    // Slot damaged in flight: NACK through recovery; the sender's replay
    // rewrites every unconsumed staged slot bit-for-bit.
    flag_integrity_failure(c);
    return false;
  }
  c.slot_crc_ok[idx] = hdr->gen;
  return true;
}

const std::byte* PiggybackChannel::slot_payload(const SlotConnection& c) const {
  return slot_payload_at(c, 0);
}

const std::byte* PiggybackChannel::slot_payload_at(const SlotConnection& c,
                                                   std::uint64_t depth) const {
  const std::size_t idx =
      static_cast<std::size_t>((c.slots_consumed + depth) % slot_count());
  return c.rx + idx * cfg_.chunk_bytes + sizeof(SlotHeader);
}

void PiggybackChannel::consume_slot(SlotConnection& c) {
  ++c.slots_consumed;
  c.cur_slot_off = 0;
  c.ctrl.tail_master = c.slots_consumed;
  ++c.consumed_since_update;
  // Delayed explicit update: only when enough slots were freed with no
  // reverse-direction traffic to piggyback on.  Several consumed slots
  // collapse into this single 8-byte write.
  if (c.consumed_since_update >= tail_threshold()) {
    post_tail_update(c);
    c.consumed_since_update = 0;
  }
}

sim::Task<std::size_t> PiggybackChannel::put(Connection& conn,
                                             std::span<const ConstIov> iovs) {
  auto& c = static_cast<SlotConnection&>(conn);
  co_await call_overhead();
  const bool wired = co_await ensure_tx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);
  if (credit_denied()) co_return 0;

  const std::size_t total = total_length(iovs);
  const std::size_t cap = slot_capacity();
  std::size_t accepted = 0;

  // Slots copied in this call but (in the non-pipelined design) not yet
  // posted: (staging offset, total slot bytes, ring offset).
  struct Pending {
    std::size_t off;
    std::size_t bytes;
  };
  std::vector<Pending> pending;

  while (accepted < total && free_slots(c) > 0) {
    const std::size_t len = std::min(cap, total - accepted);
    const std::size_t idx =
        static_cast<std::size_t>(c.slots_sent % slot_count());
    co_await node().compute(kSlotBuildOverhead);
    std::byte* payload = begin_slot(c, SlotKind::kData, len);

    // Charge the user->staging copy (working set = whole message, so big
    // messages see the paper's cache effect).
    const std::size_t payload_off =
        static_cast<std::size_t>(payload - c.staging.data());
    co_await copy_in(c, payload_off, iovs, accepted, len, total);

    finish_slot(c, len);
    const std::size_t slot_bytes = sizeof(SlotHeader) + len + 4;
    const std::size_t ring_off = idx * cfg_.chunk_bytes;
    if (pipelined_) {
      // Section 4.4: initiate the transfer immediately after copying this
      // chunk, overlapping it with the copy of the next chunk.
      post_ring_write(c, ring_off, slot_bytes, ring_off, /*signaled=*/false,
                      next_wr_id());
    } else {
      pending.push_back(Pending{ring_off, slot_bytes});
    }
    accepted += len;
  }

  for (const Pending& p : pending) {
    post_ring_write(c, p.off, p.bytes, p.off, /*signaled=*/false,
                    next_wr_id());
  }
  if (accepted > 0) note(eager_track_, accepted);
  co_return accepted;
}

sim::Task<std::size_t> PiggybackChannel::get(Connection& conn,
                                             std::span<const Iov> iovs) {
  auto& c = static_cast<SlotConnection&>(conn);
  co_await call_overhead();
  const bool wired = co_await ensure_rx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);

  const std::size_t want = total_length(iovs);
  std::size_t delivered = 0;
  while (delivered < want) {
    const SlotHeader* hdr = peek_slot(c);
    if (hdr == nullptr) break;
    if (hdr->kind != static_cast<std::uint32_t>(SlotKind::kData)) {
      throw std::logic_error("piggyback channel: unexpected control slot");
    }
    const std::size_t n =
        std::min(want - delivered, hdr->payload_len - c.cur_slot_off);
    const std::byte* payload = slot_payload(c);
    const std::size_t ring_pos =
        static_cast<std::size_t>(payload - c.rx + c.cur_slot_off);
    co_await copy_out(c, ring_pos, iovs, delivered, n, want);
    c.cur_slot_off += n;
    delivered += n;
    if (c.cur_slot_off == hdr->payload_len) consume_slot(c);
  }
  co_return delivered;
}

std::uint64_t PiggybackChannel::journal_consumed(
    const VerbsConnection& c) const {
  return static_cast<const SlotConnection&>(c).slots_consumed;
}

sim::Task<void> PiggybackChannel::replay(VerbsConnection& conn,
                                         std::uint64_t peer_consumed) {
  auto& c = static_cast<SlotConnection&>(conn);
  // In-flight explicit/piggybacked tail updates died with the old QP; the
  // handshake watermark supersedes them.
  c.tail_piggy = std::max(c.tail_piggy, peer_consumed);
  c.ctrl.tail_replica = std::max(c.ctrl.tail_replica, peer_consumed);
  c.tail_valid = std::max(c.tail_valid, peer_consumed);
  if (cfg_.integrity_check) {
    // Keep the resynced replica's self-check consistent so checked_tail
    // never trips on handshake-derived state.
    c.ctrl.tail_replica_crc = crc32c_u64(c.ctrl.tail_replica);
  }

  // Re-post every staged slot the peer has not consumed.  Slot lengths are
  // recovered from the retained staged headers; slots the peer already has
  // (complete or partially read -- cur_slot_off > 0) are rewritten with
  // identical bytes, so its gen flags and read position stay valid.
  for (std::uint64_t s = peer_consumed; s < c.slots_sent; ++s) {
    const std::size_t idx = static_cast<std::size_t>(s % slot_count());
    const std::size_t ring_off = idx * cfg_.chunk_bytes;
    SlotHeader hdr;
    std::memcpy(&hdr, c.staging.data() + ring_off, sizeof(hdr));
    const std::size_t slot_bytes = sizeof(SlotHeader) + hdr.payload_len + 4;
    post_ring_write(c, ring_off, slot_bytes, ring_off, /*signaled=*/false,
                    next_wr_id());
    ++stats_.retransmits;
    stats_.replayed_bytes += slot_bytes;
  }
  co_return;
}

std::uint64_t PiggybackChannel::journal_produced(
    const VerbsConnection& c) const {
  return static_cast<const SlotConnection&>(c).slots_sent;
}

}  // namespace rdmach
