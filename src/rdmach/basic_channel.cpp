#include "rdmach/basic_channel.hpp"

#include <algorithm>

#include "rdmach/crc32c.hpp"

namespace rdmach {

sim::Task<std::size_t> BasicChannel::put(Connection& conn,
                                         std::span<const ConstIov> iovs) {
  auto& c = static_cast<VerbsConnection&>(conn);
  co_await call_overhead();
  const bool wired = co_await ensure_tx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);
  if (credit_denied()) co_return 0;

  const std::size_t total = total_length(iovs);
  const std::uint64_t head = c.ctrl.head_master;
  const std::uint64_t tail = checked_tail(c);  // peer-maintained replica
  const std::size_t free_bytes =
      kRingBytes - static_cast<std::size_t>(head - tail);
  const std::size_t n = std::min(total, free_bytes);
  if (n == 0) co_return 0;

  // 1. Copy the whole accepted region into the preregistered buffer
  //    (serialized with the transfer: the basic design's weakness).
  co_await copy_in(c, head, iovs, 0, n, total);

  // 2. RDMA-write the data (two writes if the region wraps the ring).
  // 3. Wait for the data to be placed before exposing it via the head
  //    pointer (conservative ordering; see header comment).  A transport
  //    error recovers and re-posts: the staging copy is intact and the
  //    offsets are unchanged, so the retry is idempotent.
  const std::size_t R = kRingBytes;
  const std::size_t off = static_cast<std::size_t>(head % R);
  const std::size_t first = std::min(n, R - off);
  if (cfg_.integrity_check) {
    // Fold the accepted bytes into the rolling stream CRC; the head update
    // below carries (head, stream-CRC) as one 16-byte write, so the
    // receiver can verify the prefix [0, head) end to end.
    c.send_crc = crc32c_update(c.send_crc, c.staging.data() + off, first);
    if (first < n) {
      c.send_crc = crc32c_update(c.send_crc, c.staging.data(), n - first);
    }
    charge_crc(n);
  }
  for (;;) {
    const std::uint64_t wr_id = next_wr_id();
    if (first < n) {
      post_ring_write(c, off, first, off, /*signaled=*/false, next_wr_id());
      post_ring_write(c, 0, n - first, 0, /*signaled=*/true, wr_id);
    } else {
      post_ring_write(c, off, first, off, /*signaled=*/true, wr_id);
    }
    const ib::Wc wc = co_await await_completion(c, wr_id);
    if (wc.status == ib::WcStatus::kSuccess) break;
    co_await maybe_recover(c);
  }

  // 4. Adjust the head and 5. RDMA-write the remote head replica.  The
  //    basic design conservatively completes this write too before
  //    returning, so back-to-back puts serialize with the wire -- the
  //    behaviour behind the paper's 230 MB/s basic peak.  Once the head
  //    master is advanced the data region is covered by replay, so a
  //    failure here recovers (which rewrites data + head) and retries.
  c.ctrl.head_master = head + n;
  if (cfg_.integrity_check) c.ctrl.head_master_crc = c.send_crc;
  const std::size_t head_w = cfg_.integrity_check ? 16 : 8;
  for (;;) {
    const std::uint64_t head_wr = next_wr_id();
    c.qp->post_send(ib::SendWr{
        head_wr,
        ib::Opcode::kRdmaWrite,
        {ib::Sge{reinterpret_cast<std::byte*>(&c.ctrl) + kCtrlHeadMasterOff,
                 head_w, c.ctrl_mr->lkey()}},
        c.r_ctrl_addr + kCtrlHeadReplicaOff,
        c.r_ctrl_rkey,
        /*signaled=*/true});
    const ib::Wc wc = co_await await_completion(c, head_wr);
    if (wc.status == ib::WcStatus::kSuccess) break;
    co_await maybe_recover(c);
  }

  // 6. Return the number of bytes written.
  note(eager_track_, n);
  co_return n;
}

sim::Task<std::size_t> BasicChannel::get(Connection& conn,
                                         std::span<const Iov> iovs) {
  auto& c = static_cast<VerbsConnection&>(conn);
  co_await call_overhead();
  const bool wired = co_await ensure_rx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);

  // 1. Check local replicas for new data.  With integrity on, only the
  //    CRC-verified prefix of the incoming stream is readable.
  const std::uint64_t head =
      cfg_.integrity_check ? verify_incoming(c) : c.ctrl.head_replica;
  const std::uint64_t tail = c.ctrl.tail_master;
  const std::size_t avail = static_cast<std::size_t>(head - tail);
  const std::size_t n = std::min(avail, total_length(iovs));
  if (n == 0) co_return 0;

  // 2. Copy out of the shared ring.
  co_await copy_out(c, tail, iovs, 0, n, n);

  // 3. Adjust the tail and 4. RDMA-write the remote tail replica
  //    (every get -- no delaying in the basic design).
  c.ctrl.tail_master = tail + n;
  post_tail_update(c);

  // 5. Return the number of bytes successfully read.
  co_return n;
}

std::uint64_t BasicChannel::journal_consumed(const VerbsConnection& c) const {
  return c.ctrl.tail_master;
}

std::uint64_t BasicChannel::verify_incoming(VerbsConnection& c) {
  const std::uint64_t h = c.ctrl.head_replica;
  if (h <= c.verified_head) return c.verified_head;
  const std::size_t R = kRingBytes;
  if (h - c.verified_head > R) {
    // A head word lying garbage-high cannot be a real advance (the sender
    // never outruns the ring); NACK without touching the ring.
    flag_integrity_failure(c);
    return c.verified_head;
  }
  // The QP delivers in order, so a visible head implies the data write
  // before it landed: fold the new bytes into a tentative rolling CRC and
  // compare against the sender's stream CRC shipped with the head.
  const std::size_t n = static_cast<std::size_t>(h - c.verified_head);
  const std::size_t off = static_cast<std::size_t>(c.verified_head % R);
  const std::size_t first = std::min(n, R - off);
  std::uint32_t crc = crc32c_update(c.recv_crc, c.rx + off, first);
  if (first < n) crc = crc32c_update(crc, c.rx, n - first);
  charge_crc(n);
  if (crc != static_cast<std::uint32_t>(c.ctrl.head_replica_crc)) {
    // Data (or the head/CRC pair itself) corrupted in flight: NACK through
    // recovery; the sender's replay rewrites [tail_master, head_master)
    // bit-for-bit from staging and refreshes the head pair.
    flag_integrity_failure(c);
    return c.verified_head;
  }
  c.recv_crc = crc;
  c.verified_head = h;
  return h;
}

sim::Task<void> BasicChannel::replay(VerbsConnection& c,
                                     std::uint64_t peer_consumed) {
  // In-flight tail updates died with the old QP; the handshake watermark
  // is at least as fresh (the quiesce before publishing guarantees every
  // old-epoch write had landed when the peer read it).
  c.ctrl.tail_replica = std::max(c.ctrl.tail_replica, peer_consumed);
  c.tail_valid = std::max(c.tail_valid, peer_consumed);
  if (cfg_.integrity_check) {
    // Keep the local replica's self-check consistent with the resynced
    // value so checked_tail never trips on handshake-derived state.
    c.ctrl.tail_replica_crc = crc32c_u64(c.ctrl.tail_replica);
  }

  // Rewrite everything the peer has not consumed from the retained staging
  // copy, then refresh its head replica.  Bytes it already held are
  // rewritten bit-for-bit -- harmless.  Unsignaled: a failure still raises
  // an error CQE, which flags the connection for the next entry hook.
  const std::uint64_t head = c.ctrl.head_master;
  if (head > peer_consumed) {
    const std::size_t R = kRingBytes;
    const std::size_t n = static_cast<std::size_t>(head - peer_consumed);
    const std::size_t off = static_cast<std::size_t>(peer_consumed % R);
    const std::size_t first = std::min(n, R - off);
    post_ring_write(c, off, first, off, /*signaled=*/false, next_wr_id());
    ++stats_.retransmits;
    if (first < n) {
      post_ring_write(c, 0, n - first, 0, /*signaled=*/false, next_wr_id());
      ++stats_.retransmits;
    }
    post_head_update(c);
    ++stats_.retransmits;
    stats_.replayed_bytes += n;
  }
  co_return;
}

}  // namespace rdmach
