#include "ch3/stream_mux.hpp"

#include <cstring>

namespace ch3 {

void StreamMux::enqueue(int dst, const PktHeader& hdr, const void* payload,
                        std::size_t len, std::function<void()> on_streamed) {
  if (ch_->config().ft_detector && ch_->ctx().kvs->is_dead(dst)) {
    // Corpse: drop the frame (keeping no reference to the payload).  The
    // send request never completes; the MPI engine's fault sweep fails it.
    return;
  }
  OutMsg m;
  m.hdr = hdr;
  stamp_obit(m.hdr);
  m.payload = static_cast<const std::byte*>(payload);
  m.len = len;
  m.on_streamed = std::move(on_streamed);
  vcs_[static_cast<std::size_t>(dst)].sendq.push_back(std::move(m));
  const auto it = std::lower_bound(work_.begin(), work_.end(), dst);
  if (it == work_.end() || *it != dst) work_.insert(it, dst);
}

namespace {
std::size_t expect_len(const PktHeader& hdr) {
  return hdr.type == PktType::kEager ? hdr.match.length : 0;
}
}  // namespace

void StreamMux::stamp_obit(PktHeader& hdr) {
  if (!ch_->config().ft_detector) return;
  const std::vector<int>& obits = ch_->ctx().kvs->obits();
  if (obits.empty()) return;
  // Rotate through the board so several deaths all ride out on traffic.
  hdr.reserved =
      static_cast<std::uint64_t>(obits[obit_cursor_++ % obits.size()]) + 1;
}

bool StreamMux::fence_dead(int peer, Vc& vc) {
  if (!ch_->config().ft_detector || !ch_->ctx().kvs->is_dead(peer)) {
    return false;
  }
  // Obituaried peer: drop all framing state so no progress pass ever again
  // touches the VC (or dereferences payload pointers whose owners have
  // unwound).  Un-streamed sends stay incomplete on purpose -- the engine's
  // fault sweep converts them into process-failure errors.
  vc.sendq.clear();
  vc.await_release.clear();
  vc.ahead.clear();
  vc.hdr_got = 0;
  vc.in_payload = false;
  const auto it = std::lower_bound(work_.begin(), work_.end(), peer);
  if (it != work_.end() && *it == peer) work_.erase(it);
  return true;
}

void StreamMux::note_obit(const PktHeader& hdr) {
  if (hdr.reserved == 0 || !ch_->config().ft_detector) return;
  pmi::Context& ctx = ch_->ctx();
  if (!ctx.kvs->post_obit(static_cast<int>(hdr.reserved) - 1)) return;
  // First local sighting of this obituary: wake every rank's progress loop
  // so blocked operations against the corpse re-check the board now.
  pmi::wake_all_ranks(ctx);
}

sim::Task<bool> StreamMux::progress_send(int peer, Vc& vc) {
  bool moved = false;
  rdmach::Connection& conn = ch_->connection(peer);
  while (!vc.sendq.empty()) {
    OutMsg& m = vc.sendq.front();
    const std::size_t hdr_size = sizeof(PktHeader);
    rdmach::ConstIov iovs[2];
    std::size_t n_iovs = 0;
    if (m.sent < hdr_size) {
      iovs[n_iovs++] = rdmach::ConstIov(
          reinterpret_cast<const std::byte*>(&m.hdr) + m.sent,
          hdr_size - m.sent);
      if (m.len > 0) iovs[n_iovs++] = rdmach::ConstIov(m.payload, m.len);
    } else {
      const std::size_t off = m.sent - hdr_size;
      iovs[n_iovs++] = rdmach::ConstIov(m.payload + off, m.len - off);
    }
    std::size_t k = 0;
    try {
      k = co_await ch_->put_pinned(
          conn, std::span<const rdmach::ConstIov>(iovs, n_iovs));
    } catch (const rdmach::ChannelError& e) {
      throw VcError(peer, "vc to rank " + std::to_string(peer) +
                              " failed: " + e.to_string());
    }
    m.sent += k;
    moved |= k > 0;
    if (m.sent < hdr_size + m.len) break;  // pipe full / rendezvous pending
    // Fully accepted: the next frame may go out (rendezvous bytes of this
    // one stay on loan), but completion is only reported at release.
    if (m.on_streamed) {
      vc.await_release.push_back(
          PendingRelease{ch_->put_accepted(conn), std::move(m.on_streamed)});
    }
    vc.sendq.pop_front();
  }
  moved |= drain_releases(peer, vc);
  co_return moved;
}

bool StreamMux::drain_releases(int peer, Vc& vc) {
  const std::uint64_t released = ch_->put_released(ch_->connection(peer));
  bool fired = false;
  while (!vc.await_release.empty() &&
         vc.await_release.front().mark <= released) {
    if (vc.await_release.front().on_streamed) {
      vc.await_release.front().on_streamed();
    }
    vc.await_release.pop_front();
    fired = true;
  }
  return fired;
}

sim::Task<bool> StreamMux::progress_recv(int peer, Vc& vc) {
  bool moved = false;
  rdmach::Connection& conn = ch_->connection(peer);
  for (;;) {
    if (!vc.in_payload && !vc.ahead.empty()) {
      // The previous frame is done: promote the oldest ahead frame.  Its
      // payload may already be fully drained (eager), in flight
      // (attached rendezvous), or partial -- the regular paths below
      // resume it from `got`.
      AheadFrame f = std::move(vc.ahead.front());
      vc.ahead.pop_front();
      moved = true;
      if (f.have_hdr) {
        vc.rhdr = f.hdr;
        vc.sink = f.sink;
        vc.payload_got = f.got;
        if (vc.payload_got >= expect_len(vc.rhdr)) {
          if (vc.rhdr.type == PktType::kEager) {
            handler_->on_payload_done(peer, vc.rhdr, vc.sink);
          }
          vc.hdr_got = 0;
          continue;
        }
        vc.in_payload = true;
      } else {
        std::memcpy(vc.hdr_buf, f.hdr_buf, sizeof(PktHeader));
        vc.hdr_got = f.hdr_got;
      }
    }
    if (!vc.in_payload) {
      std::size_t k = 0;
      try {
        k = co_await ch_->get(conn, vc.hdr_buf + vc.hdr_got,
                              sizeof(PktHeader) - vc.hdr_got);
      } catch (const rdmach::ChannelError& e) {
        throw VcError(peer, "vc to rank " + std::to_string(peer) +
                                " failed: " + e.to_string());
      }
      vc.hdr_got += k;
      moved |= k > 0;
      if (vc.hdr_got < sizeof(PktHeader)) break;
      std::memcpy(&vc.rhdr, vc.hdr_buf, sizeof(PktHeader));
      note_obit(vc.rhdr);
      vc.sink = handler_->on_packet(peer, vc.rhdr);
      vc.payload_got = 0;
      if (expect_len(vc.rhdr) == 0) {
        if (vc.rhdr.type == PktType::kEager) {
          handler_->on_payload_done(peer, vc.rhdr, vc.sink);
        }
        vc.hdr_got = 0;
        moved = true;
        continue;  // next frame may already be available
      }
      vc.in_payload = true;
    }
    const std::size_t want = vc.rhdr.match.length - vc.payload_got;
    std::size_t k = 0;
    try {
      k = co_await ch_->get(conn, vc.sink.dst + vc.payload_got, want);
    } catch (const rdmach::ChannelError& e) {
      throw VcError(peer, "vc to rank " + std::to_string(peer) +
                              " failed: " + e.to_string());
    }
    vc.payload_got += k;
    moved |= k > 0;
    if (vc.payload_got < vc.rhdr.match.length) {
      const bool looked = co_await progress_lookahead(peer, vc);
      moved |= looked;
      break;
    }
    handler_->on_payload_done(peer, vc.rhdr, vc.sink);
    vc.in_payload = false;
    vc.hdr_got = 0;
  }
  moved |= drain_releases(peer, vc);
  co_return moved;
}

sim::Task<bool> StreamMux::progress_lookahead(int peer, Vc& vc) {
  const std::size_t cap = ch_->rndv_lookahead();
  if (cap == 0) co_return false;
  bool moved = false;
  rdmach::Connection& conn = ch_->connection(peer);
  for (;;) {
    // Invariant: every ahead frame but the last is complete (drained or
    // attached); only the back can make progress at the pipe's cursor.
    const bool back_done =
        vc.ahead.empty() ||
        (vc.ahead.back().have_hdr &&
         (vc.ahead.back().attached ||
          vc.ahead.back().got >= expect_len(vc.ahead.back().hdr)));
    if (back_done) {
      if (vc.ahead.size() >= cap) break;
      vc.ahead.emplace_back();
    }
    AheadFrame& f = vc.ahead.back();
    if (!f.have_hdr) {
      const rdmach::Iov hiov{f.hdr_buf + f.hdr_got,
                             sizeof(PktHeader) - f.hdr_got};
      std::size_t k = 0;
      try {
        k = co_await ch_->get_ahead(conn,
                                    std::span<const rdmach::Iov>(&hiov, 1));
      } catch (const rdmach::ChannelError& e) {
        throw VcError(peer, "vc to rank " + std::to_string(peer) +
                                " failed: " + e.to_string());
      }
      f.hdr_got += k;
      moved |= k > 0;
      if (f.hdr_got < sizeof(PktHeader)) break;
      std::memcpy(&f.hdr, f.hdr_buf, sizeof(PktHeader));
      note_obit(f.hdr);
      f.have_hdr = true;
      f.sink = handler_->on_packet(peer, f.hdr);
      moved = true;
    }
    const std::size_t expect = expect_len(f.hdr);
    if (f.attached || f.got >= expect) continue;  // frame complete
    if (f.got == 0) {
      const rdmach::Iov siov{f.sink.dst, expect};
      bool attached = false;
      try {
        attached = co_await ch_->attach_rndv(
            conn, std::span<const rdmach::Iov>(&siov, 1));
      } catch (const rdmach::ChannelError& e) {
        throw VcError(peer, "vc to rank " + std::to_string(peer) +
                                " failed: " + e.to_string());
      }
      if (attached) {
        f.attached = true;
        moved = true;
        continue;
      }
    }
    const rdmach::Iov piov{f.sink.dst + f.got, expect - f.got};
    std::size_t k = 0;
    try {
      k = co_await ch_->get_ahead(conn,
                                  std::span<const rdmach::Iov>(&piov, 1));
    } catch (const rdmach::ChannelError& e) {
      throw VcError(peer, "vc to rank " + std::to_string(peer) +
                              " failed: " + e.to_string());
    }
    f.got += k;
    moved |= k > 0;
    if (f.got < expect) break;  // still in flight behind the head
  }
  co_return moved;
}

sim::Task<bool> StreamMux::progress() {
  bool moved = false;
  const std::vector<int>* act = ch_->active_peers();
  if (act == nullptr) {
    // Eager channel: every VC may hold inbound data at any time, so the
    // pass stays the original dense scan.
    for (int p = 0; p < ch_->size(); ++p) {
      if (p == ch_->rank()) continue;
      Vc& vc = vcs_[static_cast<std::size_t>(p)];
      if (fence_dead(p, vc)) continue;
      moved |= co_await progress_send(p, vc);
      moved |= co_await progress_recv(p, vc);
    }
    co_return moved;
  }
  // Lazy-connect channel: drive its connection control plane first (it can
  // wire passive peers or tear down idle ones), then visit only the union
  // of wired peers and VCs with queued sends -- everything else is
  // provably idle, so a pass is O(active) instead of O(ranks).
  co_await ch_->pre_progress();
  act = ch_->active_peers();
  scratch_.clear();
  std::set_union(act->begin(), act->end(), work_.begin(), work_.end(),
                 std::back_inserter(scratch_));
  for (const int p : scratch_) {
    if (p == ch_->rank()) continue;
    Vc& vc = vcs_[static_cast<std::size_t>(p)];
    if (fence_dead(p, vc)) continue;
    moved |= co_await progress_send(p, vc);
    moved |= co_await progress_recv(p, vc);
    if (vc.sendq.empty() && vc.await_release.empty()) {
      const auto it = std::lower_bound(work_.begin(), work_.end(), p);
      if (it != work_.end() && *it == p) work_.erase(it);
    }
  }
  co_return moved;
}

}  // namespace ch3
