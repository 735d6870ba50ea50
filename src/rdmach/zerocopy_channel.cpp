#include "rdmach/zerocopy_channel.hpp"

#include <algorithm>
#include <cstring>

#include "rdmach/crc32c.hpp"

namespace rdmach {

sim::Task<void> ZeroCopyChannel::init() {
  co_await PipelineChannel::init();
  cache_ = std::make_unique<RegCache>(pd(), kRegCacheCapacity,
                                      cfg_.use_reg_cache);
}

sim::Task<void> ZeroCopyChannel::finalize() {
  co_await cache_->flush();
  co_await PipelineChannel::finalize();
}

void ZeroCopyChannel::harvest_acks(SlotConnection& c) {
  for (;;) {
    const SlotHeader* hdr = peek_slot(c);
    if (hdr == nullptr ||
        hdr->kind != static_cast<std::uint32_t>(SlotKind::kAck)) {
      return;
    }
    c.rndv_acked = true;
    consume_slot(c);
  }
}

void ZeroCopyChannel::try_send_ack(SlotConnection& c) {
  if (free_slots(c) == 0) {
    c.ack_pending = true;
    return;
  }
  begin_slot(c, SlotKind::kAck, 0);
  finish_slot(c, 0);
  const std::size_t idx =
      static_cast<std::size_t>((c.slots_sent - 1) % slot_count());
  post_ring_write(c, idx * cfg_.chunk_bytes, kSlotOverhead,
                  idx * cfg_.chunk_bytes, /*signaled=*/false, next_wr_id());
  c.ack_pending = false;
}

namespace {
// "Because of the extra overhead in the implementation, the zero-copy
// design slightly increases the latency for small messages" (section 5):
// the threshold checks and rendezvous state machine cost a little on every
// call.
constexpr sim::Tick kZcStateOverhead = sim::nsec(100);
}  // namespace

sim::Task<std::size_t> ZeroCopyChannel::put(Connection& conn,
                                            std::span<const ConstIov> iovs) {
  auto& c = static_cast<SlotConnection&>(conn);
  co_await node().compute(kZcStateOverhead);
  const bool wired = co_await ensure_tx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);

  // Sender-side rendezvous progress: learn of acks even when the caller is
  // only retrying (Figure 10: "Put ... Done" discovered via put).
  harvest_acks(c);
  if (c.rndv_active) {
    co_await call_overhead();
    if (!c.rndv_acked) co_return 0;
    // "When the acknowledgment packet is received at the sender side, the
    // sender deregisters the user buffer, completing the operation."
    co_await cache_->release(c.rndv_mr);
    c.rndv_active = false;
    c.rndv_acked = false;
    c.rndv_mr = nullptr;
    const std::size_t len = c.rndv_len;
    c.rndv_len = 0;
    note(rndv_read_track_, len);
    co_return len;
  }

  // Split the iov list at the first zero-copy-eligible buffer: everything
  // before it streams through the ring, the large buffer itself goes
  // rendezvous.
  std::size_t split = 0;
  while (split < iovs.size() && iovs[split].len < cfg_.zero_copy_threshold) {
    ++split;
  }

  std::size_t accepted = 0;
  if (split > 0) {
    accepted = co_await PipelineChannel::put(conn, iovs.subspan(0, split));
    if (accepted < total_length(iovs.subspan(0, split))) co_return accepted;
  } else {
    co_await call_overhead();
  }

  if (split < iovs.size() && free_slots(c) > 0) {
    const ConstIov& big = iovs[split];
    // Graceful degradation: if the HCA refuses the registration (pin-down
    // limit, injected exhaustion), fall back to streaming the buffer
    // through the pipelined copy path instead of failing the put.
    bool refused = false;
    try {
      c.rndv_mr = co_await cache_->acquire(big.base, big.len);
    } catch (const ib::RegistrationError&) {
      refused = true;  // co_await is illegal in a handler; flag and go
    }
    if (refused) {
      ++stats_.reg_fallbacks;
      const std::size_t copied =
          co_await PipelineChannel::put(conn, iovs.subspan(split, 1));
      co_return accepted + copied;
    }
    RtsPayload rts{reinterpret_cast<std::uint64_t>(big.base), big.len,
                   c.rndv_mr->rkey()};
    // The trailing crc word goes on the wire only when integrity is on,
    // keeping the integrity-off RTS byte-identical to the original format.
    std::size_t rts_w = sizeof(rts) - sizeof(rts.crc);
    if (cfg_.integrity_check) {
      // Whole-message checksum rides in the RTS; the receiver withholds
      // completion until the pulled bytes reproduce it.
      rts.crc = crc32c(big.base, big.len);
      charge_crc(big.len);
      rts_w = sizeof(rts);
    }
    std::byte* payload = begin_slot(c, SlotKind::kRts, rts_w);
    std::memcpy(payload, &rts, rts_w);
    finish_slot(c, rts_w);
    const std::size_t idx =
        static_cast<std::size_t>((c.slots_sent - 1) % slot_count());
    post_ring_write(c, idx * cfg_.chunk_bytes, kSlotOverhead + rts_w,
                    idx * cfg_.chunk_bytes, /*signaled=*/false, next_wr_id());
    c.rndv_active = true;
    c.rndv_acked = false;
    c.rndv_len = big.len;
    // The rendezvous bytes are NOT counted yet: put keeps returning 0 for
    // them until the ack arrives (paper section 5).
  }
  co_return accepted;
}

sim::Task<void> ZeroCopyChannel::issue_read(SlotConnection& c,
                                            std::span<const Iov> iovs,
                                            std::size_t offset) {
  const std::size_t remaining = c.r_len - c.r_done;
  if (remaining == 0) co_return;
  // Find the contiguous destination piece at `offset` within the iov list.
  std::size_t skipped = 0;
  std::size_t iv = 0;
  while (iv < iovs.size() && skipped + iovs[iv].len <= offset) {
    skipped += iovs[iv].len;
    ++iv;
  }
  if (iv == iovs.size()) co_return;  // no buffer space offered
  std::byte* dst = iovs[iv].base + (offset - skipped);
  const std::size_t room = iovs[iv].len - (offset - skipped);
  const std::size_t m = std::min(remaining, room);
  if (m == 0) co_return;

  // Register the destination through the cache and pull the data straight
  // into the user buffer -- this is the zero-copy.
  bool refused = false;
  try {
    c.r_dst_mr = co_await cache_->acquire(dst, m);
  } catch (const ib::RegistrationError&) {
    refused = true;  // co_await is illegal in a handler; flag and go
  }
  if (refused) {
    // Transient exhaustion: leave the rendezvous where it is and retry the
    // registration on a later get (the wakeup keeps pollers from parking).
    ++stats_.reg_fallbacks;
    schedule_retry_wakeup();
    co_return;
  }
  c.r_read_wr = next_wr_id();
  c.r_read_len = m;
  c.r_read_dst = dst;
  c.r_read_inflight = true;
  c.qp->post_send(ib::SendWr{c.r_read_wr,
                             ib::Opcode::kRdmaRead,
                             {ib::Sge{dst, m, c.r_dst_mr->lkey()}},
                             c.r_addr + c.r_done,
                             static_cast<std::uint32_t>(c.r_rkey),
                             /*signaled=*/true});
}

sim::Task<std::size_t> ZeroCopyChannel::get(Connection& conn,
                                            std::span<const Iov> iovs) {
  auto& c = static_cast<SlotConnection&>(conn);
  co_await call_overhead();
  const bool wired = co_await ensure_rx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);

  const std::size_t want = total_length(iovs);
  std::size_t delivered = 0;

  while (true) {
    if (c.r_rndv_active) {
      if (c.r_read_inflight) {
        ib::Wc wc;
        if (!take_completion(c.r_read_wr, &wc)) break;  // still in flight
        if (wc.status == ib::WcStatus::kLocalProtectionError ||
            wc.status == ib::WcStatus::kRemoteAccessError) {
          throw std::logic_error("zero-copy RDMA read failed");
        }
        if (wc.status != ib::WcStatus::kSuccess) {
          // Transport failure mid-read: leave the rendezvous intact with
          // r_read_inflight set, so recovery's replay re-issues the read
          // on the replacement QP.  The next get() enters maybe_recover.
          break;
        }
        c.r_read_inflight = false;
        c.r_done += c.r_read_len;
        if (cfg_.integrity_check) {
          // Fold the landed piece into the rolling message CRC but defer
          // reporting it until the whole message verifies.
          c.r_crc = crc32c_update(c.r_crc, c.r_read_dst, c.r_read_len);
          charge_crc(c.r_read_len);
          c.r_unreported += c.r_read_len;
        } else {
          delivered += c.r_read_len;
        }
        co_await cache_->release(c.r_dst_mr);
        c.r_dst_mr = nullptr;
        if (c.r_done == c.r_len) {
          if (cfg_.integrity_check &&
              c.r_crc != static_cast<std::uint32_t>(c.r_crc_expect)) {
            // Pulled bytes do not reproduce the RTS checksum: NACK through
            // recovery and restart the pull from offset 0.  The sender's
            // buffer is still pinned (no ack was sent), so the rkey in our
            // stashed rendezvous state stays valid.
            flag_integrity_failure(c);
            c.r_done = 0;
            c.r_crc = 0;
            c.r_unreported = 0;
            break;
          }
          delivered += c.r_unreported;
          c.r_unreported = 0;
          // Rendezvous complete: retire the RTS slot and ack the sender.
          c.r_rndv_active = false;
          consume_slot(c);
          try_send_ack(c);
        }
        continue;
      }
      if (delivered + c.r_unreported >= want && c.r_done < c.r_len) break;
      co_await issue_read(c, iovs, delivered + c.r_unreported);
      break;  // read in flight (or no space); report what we have
    }

    if (delivered >= want) break;
    const SlotHeader* hdr = peek_slot(c);
    if (hdr == nullptr) break;
    switch (static_cast<SlotKind>(hdr->kind)) {
      case SlotKind::kData: {
        const std::size_t n =
            std::min(want - delivered, hdr->payload_len - c.cur_slot_off);
        const std::byte* payload = slot_payload(c);
        const std::size_t ring_pos =
            static_cast<std::size_t>(payload - c.rx + c.cur_slot_off);
        co_await copy_out(c, ring_pos, iovs, delivered, n, want);
        c.cur_slot_off += n;
        delivered += n;
        if (c.cur_slot_off == hdr->payload_len) consume_slot(c);
        break;
      }
      case SlotKind::kRts: {
        RtsPayload rts;  // crc stays 0 for a pre-integrity short RTS
        std::memcpy(&rts, slot_payload(c),
                    std::min<std::size_t>(hdr->payload_len, sizeof(rts)));
        c.r_rndv_active = true;
        c.r_addr = rts.addr;
        c.r_rkey = static_cast<std::uint32_t>(rts.rkey);
        c.r_len = static_cast<std::size_t>(rts.len);
        c.r_done = 0;
        c.r_crc_expect = rts.crc;
        c.r_crc = 0;
        c.r_unreported = 0;
        // The RTS slot stays at the front of the pipe (FIFO order) until
        // the pulled data has fully arrived.
        break;
      }
      case SlotKind::kAck: {
        c.rndv_acked = true;
        consume_slot(c);
        break;
      }
      case SlotKind::kRtsWrite:
      case SlotKind::kRtsRead:
      case SlotKind::kCts:
      case SlotKind::kAckTok:
        // Adaptive-engine slot kinds; never produced by a zero-copy peer.
        throw std::logic_error("zerocopy: adaptive slot kind in ring");
    }
  }

  if (c.ack_pending) try_send_ack(c);
  co_return delivered;
}

sim::Task<void> ZeroCopyChannel::replay(VerbsConnection& conn,
                                        std::uint64_t peer_consumed) {
  co_await PiggybackChannel::replay(conn, peer_consumed);
  auto& c = static_cast<SlotConnection&>(conn);
  // An RTS or ack slot in flight when the QP died is an ordinary unconsumed
  // slot, already re-posted above -- the rendezvous control packet is
  // idempotent by construction.  What slot replay cannot cover is an
  // initiated-but-dead RDMA read: re-pull the same piece into the same
  // destination, resuming at r_done.  The sender's source registration
  // (rndv_mr) survives recovery, so the advertised rkey is still valid.
  if (c.r_rndv_active && c.r_read_inflight && c.r_dst_mr != nullptr) {
    std::byte* dst = c.r_read_dst;
    const std::size_t m = c.r_read_len;
    co_await cache_->invalidate(c.r_dst_mr);
    c.r_dst_mr = co_await cache_->acquire(dst, m);
    c.r_read_wr = next_wr_id();
    ++stats_.retransmits;
    stats_.replayed_bytes += m;
    c.qp->post_send(ib::SendWr{c.r_read_wr,
                               ib::Opcode::kRdmaRead,
                               {ib::Sge{dst, m, c.r_dst_mr->lkey()}},
                               c.r_addr + c.r_done,
                               c.r_rkey,
                               /*signaled=*/true});
  }
}

}  // namespace rdmach
