#include "rdmach/adaptive_channel.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "rdmach/crc32c.hpp"

namespace rdmach {

namespace {

/// Same per-call state-machine cost the zero-copy design charges (section
/// 5's "extra overhead ... slightly increases the latency").
constexpr sim::Tick kAdStateOverhead = sim::nsec(100);

/// Contiguous destination piece at byte `offset` of the iov list; len 0
/// when the list offers no space there.
Iov locate(std::span<const Iov> iovs, std::size_t offset) {
  std::size_t skipped = 0;
  for (const Iov& v : iovs) {
    if (offset < skipped + v.len) {
      const std::size_t in = offset - skipped;
      return Iov{v.base + in, v.len - in};
    }
    skipped += v.len;
  }
  return Iov{};
}

}  // namespace

sim::Task<void> AdaptiveChannel::init() {
  co_await PipelineChannel::init();
  cache_ = std::make_unique<RegCache>(pd(), kRegCacheCapacity,
                                      cfg_.use_reg_cache);
}

sim::Task<void> AdaptiveChannel::finalize() {
  co_await cache_->flush();
  co_await PipelineChannel::finalize();
  for (int p = 0; p < size(); ++p) {
    if (p == rank()) continue;
    auto& c = static_cast<AdaptiveConnection&>(connection(p));
    if (c.fin_mr != nullptr) co_await pd().deregister(c.fin_mr);
    if (c.fin_src_mr != nullptr) co_await pd().deregister(c.fin_src_mr);
    c.fin_mr = nullptr;
    c.fin_src_mr = nullptr;
  }
}

// Per connection: FIN-flag landing zone + source words, and the read
// pipeline's auxiliary QPs.  Endpoint words: fin_addr, fin_rkey, aqpn[i].
sim::Task<void> AdaptiveChannel::setup_extra(VerbsConnection& conn,
                                             pmi::Record& ep) {
  auto& c = static_cast<AdaptiveConnection&>(conn);
  const int naux = std::max(0, cfg_.rndv_read_qps);
  // Two words per FIN slot -- {progress, round CRC} -- so one contiguous
  // write carries the value and its check when integrity is on.
  c.fin_flags.assign(2 * kFinSlots, 0);
  c.fin_src.assign(2 * kFinSlots, 0);
  c.fin_mr = co_await pd().register_memory(
      c.fin_flags.data(), 2 * kFinSlots * sizeof(std::uint64_t),
      ib::kAllAccess);
  c.fin_src_mr = co_await pd().register_memory(
      c.fin_src.data(), 2 * kFinSlots * sizeof(std::uint64_t),
      ib::kAllAccess);
  ep.push_back(reinterpret_cast<std::uint64_t>(c.fin_flags.data()));
  ep.push_back(c.fin_mr->rkey());
  // Aux QPs deal round-robin over the node's rails (rail 0 on a default
  // fabric); each rides its rail's port and completes into that rail's CQ.
  c.rail_sched.assign(static_cast<std::size_t>(num_rails()), 0);
  c.rr_next = 0;
  c.aux.assign(static_cast<std::size_t>(naux), nullptr);
  for (int i = 0; i < naux; ++i) {
    c.aux[static_cast<std::size_t>(i)] = &create_rail_qp(i % num_rails());
    ep.push_back(c.aux[static_cast<std::size_t>(i)]->qp_num());
  }
}

void AdaptiveChannel::join_extra(VerbsConnection& conn,
                                 const pmi::Record& ep) {
  auto& c = static_cast<AdaptiveConnection&>(conn);
  c.r_fin_addr = ep[kEpBaseWords];
  c.r_fin_rkey = static_cast<std::uint32_t>(ep[kEpBaseWords + 1]);
  if (rank() < c.peer) {
    // The lower rank wires each aux pair; connect() is bidirectional, so
    // by the time the higher rank sees the main QP connected its aux QPs
    // are wired too.
    for (std::size_t i = 0; i < c.aux.size(); ++i) {
      ib::QueuePair* peer_qp = ctx_->fabric().find_qp(
          static_cast<std::uint32_t>(ep[kEpBaseWords + 2 + i]));
      if (peer_qp == nullptr) {
        throw std::runtime_error("connect: peer aux QP not found");
      }
      c.aux[i]->connect(*peer_qp);
    }
  }
  for (ib::QueuePair* q : c.aux) qp_index_[q->qp_num()] = &c;
}

sim::Task<void> AdaptiveChannel::lazy_evict_extra(VerbsConnection& conn) {
  auto& c = static_cast<AdaptiveConnection&>(conn);
  for (ib::QueuePair* q : c.aux) {
    if (q == nullptr) continue;
    q->close();
    co_await q->quiesce();
    qp_index_.erase(q->qp_num());
  }
  c.aux.clear();
  if (c.fin_mr != nullptr) {
    co_await pd().deregister(c.fin_mr);
    c.fin_mr = nullptr;
  }
  if (c.fin_src_mr != nullptr) {
    co_await pd().deregister(c.fin_src_mr);
    c.fin_src_mr = nullptr;
  }
  c.fin_flags.clear();
  c.fin_src.clear();
  c.r_fin_addr = 0;
  c.r_fin_rkey = 0;
}

void AdaptiveChannel::post_ctrl_slot(AdaptiveConnection& c, SlotKind kind,
                                     const void* body, std::size_t len) {
  std::byte* payload = begin_slot(c, kind, len);
  std::memcpy(payload, body, len);
  finish_slot(c, len);
  const std::size_t idx =
      static_cast<std::size_t>((c.slots_sent - 1) % slot_count());
  post_ring_write(c, idx * cfg_.chunk_bytes, kSlotOverhead + len,
                  idx * cfg_.chunk_bytes, /*signaled=*/false, next_wr_id());
}

void AdaptiveChannel::flush_acks(AdaptiveConnection& c) {
  while (!c.ack_queue.empty() && free_slots(c) > 0) {
    AdaptiveAck ack{c.ack_queue.front()};
    post_ctrl_slot(c, SlotKind::kAckTok, &ack, sizeof(ack));
    c.ack_queue.pop_front();
  }
}

void AdaptiveChannel::advance_release(AdaptiveConnection& c) {
  while (!c.segs.empty() && c.segs.front().done) {
    c.loan_released += c.segs.front().len;
    c.segs.pop_front();
  }
}

int AdaptiveChannel::aux_on_rail(const AdaptiveConnection& c, int rail) const {
  for (std::size_t i = 0; i < c.aux.size(); ++i) {
    ib::QueuePair* q = c.aux[i];
    if (q->port().rail() == rail && q->port().up() && !q->in_error()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int AdaptiveChannel::pick_write_rail(AdaptiveConnection& c) {
  const int R = num_rails();
  if (cfg_.rail_policy == RailPolicy::kRoundRobin) {
    for (int step = 0; step < R; ++step) {
      const int r = static_cast<int>(
          (c.rr_next + static_cast<std::size_t>(step)) %
          static_cast<std::size_t>(R));
      if (!rail_up(r) || aux_on_rail(c, r) < 0) continue;
      if (rail_quarantined(r) && !rail_probe_due(r)) continue;
      c.rr_next = static_cast<std::size_t>((r + 1) % R);
      return r;
    }
    return -1;
  }
  int best = -1;
  double best_key = 0.0;
  for (int r = 0; r < R; ++r) {
    if (!rail_up(r) || aux_on_rail(c, r) < 0) continue;
    if (rail_quarantined(r)) {
      if (rail_probe_due(r)) return r;  // probation probe rides this round
      continue;
    }
    const double key =
        static_cast<double>(c.rail_sched[static_cast<std::size_t>(r)]) /
        sel_.rail_weight(r);
    if (best < 0 || key < best_key) {
      best = r;
      best_key = key;
    }
  }
  return best;
}

/// QP for an outbound write round's data+FIN pair.  Two pitfalls shape the
/// choice.  On the main QP, a 64K data write parks ~75us of wire time in
/// front of the ring's slot writes -- RTS slots for the *next* rendezvous
/// queue behind the current one's data and the pipeline collapses into
/// batches.  Striped over *several* QPs, concurrent data writes fair-share
/// the wire and all finish together, so every FIN (and therefore every
/// ack that refills the ring) arrives at once -- batches again.  One
/// dedicated QP does both jobs: data writes serialize behind each other,
/// so messages retire at wire pace and each ack releases the next RTS
/// while the wire is still busy, and the control plane never waits.  The
/// first aux QP is idle on the sending side (aux QPs initiate reads only
/// on the receiving side); data and FIN stay on the *same* QP so in-order
/// delivery still makes the flag vouch for the data.
///
/// Multi-rail: each rendezvous is assigned a rail at its first CTS (whole
/// rounds, never split -- the FIN must trail its round's data on one QP)
/// and keeps it unless the rail dies, in which case the next round or the
/// recovery rewrite moves it to a surviving rail.  Per-QP serialization
/// still paces each rail's rounds at that rail's wire speed.
ib::QueuePair* AdaptiveChannel::write_qp(AdaptiveConnection& c,
                                         AdaptiveConnection::OutRndv& r) {
  if (c.aux.empty()) return c.qp;
  if (num_rails() <= 1) return c.aux.front();
  if (r.rail >= 0 && rail_usable(r.rail)) {
    const int i = aux_on_rail(c, r.rail);
    if (i >= 0) return c.aux[static_cast<std::size_t>(i)];
  }
  r.rail = pick_write_rail(c);
  if (r.rail >= 0) {
    const int i = aux_on_rail(c, r.rail);
    if (i >= 0) return c.aux[static_cast<std::size_t>(i)];
  }
  return c.qp;  // every rail dead: the main QP carries the final attempts
}

int AdaptiveChannel::pick_read_qp(AdaptiveConnection& c) {
  // One read outstanding per QP (the HCA limit the pipeline exists to
  // hide): a QP is busy while an unfinished, unfailed chunk of *any*
  // inbound rendezvous rides on it.
  const int naux = static_cast<int>(c.aux.size());
  auto busy = [&c](int q) {
    for (const auto& r : c.inq) {
      for (const auto& ch : r.chunks) {
        if (!ch.done && !ch.failed && ch.qp == q) return true;
      }
    }
    return false;
  };
  if (num_rails() <= 1 || naux == 0) {
    // Single rail (or main-QP fallback): the original in-order scan, so
    // default fabrics produce the exact pre-multirail schedule.
    const int lo = naux == 0 ? -1 : 0;
    const int hi = naux == 0 ? 0 : naux;
    for (int q = lo; q < hi; ++q) {
      if (!busy(q)) return q;
    }
    return -2;
  }
  // Multi-rail: pick a live rail by stripe policy, then a free QP bound to
  // it.  Only rails offering a free, healthy QP compete this round.
  auto free_on_rail = [&](int rail) {
    for (std::size_t i = 0; i < c.aux.size(); ++i) {
      ib::QueuePair* q = c.aux[i];
      if (q->port().rail() == rail && q->port().up() && !q->in_error() &&
          !busy(static_cast<int>(i))) {
        return static_cast<int>(i);
      }
    }
    return -2;
  };
  const int R = num_rails();
  if (cfg_.rail_policy == RailPolicy::kRoundRobin) {
    // Naive strict rotation: chunk k rides rail k mod R (dead rails drop
    // out of the rotation); when the turn rail has no free QP the stripe
    // *waits* for it instead of borrowing another rail -- the baseline the
    // weighted policy is measured against, and exactly how it loses on
    // asymmetric fabrics (everything gates on the slowest rail).
    for (int step = 0; step < R; ++step) {
      const int r = static_cast<int>(
          (c.rr_next + static_cast<std::size_t>(step)) %
          static_cast<std::size_t>(R));
      if (!rail_up(r)) continue;
      if (rail_quarantined(r) && !rail_probe_due(r)) continue;
      const int q = free_on_rail(r);
      if (q != -2) c.rr_next = static_cast<std::size_t>((r + 1) % R);
      return q;
    }
    return -2;
  }
  // Weighted deficit: the rail furthest *behind* its goodput-proportional
  // share of scheduled bytes takes the next chunk, so a slow rail settles
  // at proportionally fewer chunks instead of gating the whole stripe.
  int best_q = -2;
  double best_key = 0.0;
  for (int r = 0; r < R; ++r) {
    if (!rail_up(r)) continue;
    if (rail_quarantined(r)) {
      // Quarantined rails sit out the stripe; every probe-interval-th skip
      // sends one chunk through as a probation probe instead.
      if (rail_probe_due(r)) {
        const int q = free_on_rail(r);
        if (q != -2) return q;
      }
      continue;
    }
    const int q = free_on_rail(r);
    if (q == -2) continue;
    const double key =
        static_cast<double>(c.rail_sched[static_cast<std::size_t>(r)]) /
        sel_.rail_weight(r);
    if (best_q == -2 || key < best_key) {
      best_q = q;
      best_key = key;
    }
  }
  return best_q;
}

void AdaptiveChannel::post_chunk_read(AdaptiveConnection& c,
                                      const AdaptiveConnection::InRndv& r,
                                      AdaptiveConnection::Chunk& ch) {
  ib::QueuePair* qp =
      ch.qp >= 0 ? c.aux[static_cast<std::size_t>(ch.qp)] : c.qp;
  // Rail accounting covers replays too: a re-issued chunk is real traffic
  // on whichever rail carries it now.
  ch.rail = qp->port().rail();
  ch.start = ctx_->sim().now();
  if (static_cast<std::size_t>(ch.rail) < c.rail_sched.size()) {
    c.rail_sched[static_cast<std::size_t>(ch.rail)] += ch.len;
  }
  note_rail(ch.rail, ch.len);
  qp->post_send(ib::SendWr{ch.wr,
                           ib::Opcode::kRdmaRead,
                           {ib::Sge{ch.dst, ch.len, ch.mr->lkey()}},
                           r.src_addr + ch.off,
                           r.src_rkey,
                           /*signaled=*/true});
}

std::uint64_t AdaptiveChannel::ahead_depth(const AdaptiveConnection& c) const {
  // The head entry's RTS slot sits at the consume point (depth 0); each
  // later entry contributes the drained gap before it plus its own RTS
  // slot; the drained tail follows the last entry.
  std::uint64_t d = 1;
  for (std::size_t i = 1; i < c.inq.size(); ++i) {
    d += c.inq[i].gap_before + 1;
  }
  return d + c.tail_drained;
}

sim::Task<void> AdaptiveChannel::scan_ahead_ctrl(AdaptiveConnection& c) {
  // Reverse-direction control (CTS for our outbound writes, acks retiring
  // our outbound tokens) can be parked behind the in-flight head RTS.
  // Control is token-addressed, so processing it in place is safe; the
  // slots are consumed later, when the stream position reaches them.
  while (!c.inq.empty() && c.tail_off == 0) {
    const SlotHeader* hdr = peek_slot_at(c, ahead_depth(c));
    if (hdr == nullptr) break;
    const auto kind = static_cast<SlotKind>(hdr->kind);
    if (kind == SlotKind::kCts) {
      AdaptiveCts cts;
      std::memcpy(&cts, slot_payload_at(c, ahead_depth(c)), sizeof(cts));
      handle_cts(c, cts);
    } else if (kind == SlotKind::kAckTok) {
      AdaptiveAck ack;
      std::memcpy(&ack, slot_payload_at(c, ahead_depth(c)), sizeof(ack));
      co_await handle_ack(c, ack.token);
    } else {
      break;  // stream bytes or a further RTS: lookahead's business
    }
    ++c.tail_drained;
  }
}

sim::Task<bool> AdaptiveChannel::start_rndv(AdaptiveConnection& c,
                                            const ConstIov& big,
                                            ProtocolSelector::Proto proto,
                                            bool pinned) {
  AdaptiveConnection::OutRndv r;
  r.proto = proto;
  r.src = big.base;
  r.len = big.len;
  r.start = ctx_->sim().now();
  r.conc = static_cast<unsigned>(c.out.size()) + 1;
  r.legacy = !pinned;
  bool refused = false;
  try {
    r.mr = co_await cache_->acquire(big.base, big.len);
  } catch (const ib::RegistrationError&) {
    refused = true;  // co_await is illegal in a handler; flag and go
  }
  if (refused) co_return false;  // caller degrades to the copy path
  r.token = c.next_token++;  // burn a token only once the start is certain
  AdaptiveRts rts{r.token, big.len, reinterpret_cast<std::uint64_t>(big.base),
                  r.mr->rkey()};
  // The trailing crc word goes on the wire only when integrity is on,
  // keeping the integrity-off RTS byte-identical to the original format.
  std::size_t rts_w = sizeof(rts) - sizeof(rts.crc);
  if (cfg_.integrity_check) {
    rts.crc = crc32c(big.base, big.len);
    charge_crc(big.len);
    rts_w = sizeof(rts);
  }
  const SlotKind kind = proto == ProtocolSelector::Proto::kRead
                            ? SlotKind::kRtsRead
                            : SlotKind::kRtsWrite;
  post_ctrl_slot(c, kind, &rts, rts_w);
  c.out.push_back(r);
  if (pinned) {
    c.loan_accepted += big.len;
    c.segs.push_back(AdaptiveConnection::Seg{big.len, r.token, false});
  }
  co_return true;
}

void AdaptiveChannel::handle_cts(AdaptiveConnection& c,
                                 const AdaptiveCts& cts) {
  for (auto& r : c.out) {
    if (r.token != cts.token) continue;
    const std::size_t m =
        std::min(r.len - r.w_sent, static_cast<std::size_t>(cts.room));
    r.cts_seen = true;
    r.w_addr = cts.addr;
    r.w_rkey = static_cast<std::uint32_t>(cts.rkey);
    r.round_base = r.w_sent;
    // Data straight from the loaned user buffer, FIN flag behind it on the
    // same QP: in-order delivery makes the flag vouch for the data.
    ib::QueuePair* wqp = write_qp(c, r);
    const int rail = wqp->port().rail();
    if (static_cast<std::size_t>(rail) < c.rail_sched.size()) {
      c.rail_sched[static_cast<std::size_t>(rail)] += m;
    }
    note_rail(rail, m);
    wqp->post_send(ib::SendWr{next_wr_id(),
                              ib::Opcode::kRdmaWrite,
                              {ib::Sge{const_cast<std::byte*>(r.src) + r.w_sent,
                                       m, r.mr->lkey()}},
                              cts.addr,
                              static_cast<std::uint32_t>(cts.rkey),
                              /*signaled=*/false});
    r.w_sent += m;
    const std::size_t fs = static_cast<std::size_t>(r.token % kFinSlots);
    c.fin_src[2 * fs] = r.w_sent;
    std::size_t fin_w = sizeof(std::uint64_t);
    if (cfg_.integrity_check) {
      // The FIN carries the round's data CRC in the adjacent word; the
      // 16-byte write lands atomically, so the flag vouches for both the
      // data's arrival and its checksum.
      c.fin_src[2 * fs + 1] = crc32c(r.src + r.round_base, m);
      charge_crc(m);
      fin_w = 2 * sizeof(std::uint64_t);
    }
    wqp->post_send(ib::SendWr{
        next_wr_id(),
        ib::Opcode::kRdmaWrite,
        {ib::Sge{reinterpret_cast<std::byte*>(&c.fin_src[2 * fs]), fin_w,
                 c.fin_src_mr->lkey()}},
        c.r_fin_addr + fs * 2 * sizeof(std::uint64_t),
        c.r_fin_rkey,
        /*signaled=*/false});
    return;
  }
  throw std::logic_error("adaptive channel: CTS for unknown token");
}

sim::Task<void> AdaptiveChannel::handle_ack(AdaptiveConnection& c,
                                            std::uint64_t token) {
  if (c.out.empty() || c.out.front().token != token) {
    throw std::logic_error("adaptive channel: out-of-order rendezvous ack");
  }
  AdaptiveConnection::OutRndv r = c.out.front();
  c.out.pop_front();
  co_await cache_->release(r.mr);
  const double elapsed =
      static_cast<double>(ctx_->sim().now() - r.start) / sim::usec(1);
  sel_.record(r.proto, r.len, r.len, elapsed, r.conc);
  note(r.proto == ProtocolSelector::Proto::kRead ? rndv_read_track_
                                                 : rndv_write_track_,
       r.len);
  // Write rendezvous never pass through harvest_chunks, so the ack is the
  // only point the sender can clock the rail that carried the rounds.  The
  // elapsed span includes the CTS handshake, but so does every healthy
  // baseline sample, and a degraded link dwarfs that fixed overhead.
  if (cfg_.health_detector && r.proto == ProtocolSelector::Proto::kWrite &&
      r.rail >= 0 && r.len * 2 >= kRndvReadChunk) {
    note_rail_sample(r.rail, r.len, elapsed);
  }
  if (r.legacy) {
    c.legacy_done = true;
  } else {
    for (auto& s : c.segs) {
      if (!s.done && s.token == r.token) {
        s.done = true;
        break;
      }
    }
  }
}

sim::Task<void> AdaptiveChannel::progress_sender(AdaptiveConnection& c) {
  for (;;) {
    const SlotHeader* hdr = peek_slot(c);
    if (hdr == nullptr) break;
    const auto kind = static_cast<SlotKind>(hdr->kind);
    if (kind == SlotKind::kCts) {
      AdaptiveCts cts;
      std::memcpy(&cts, slot_payload(c), sizeof(cts));
      handle_cts(c, cts);
      consume_slot(c);
    } else if (kind == SlotKind::kAckTok) {
      AdaptiveAck ack;
      std::memcpy(&ack, slot_payload(c), sizeof(ack));
      co_await handle_ack(c, ack.token);
      consume_slot(c);
    } else {
      break;  // data or an inbound RTS: the receive side's business
    }
  }
  // An in-flight inbound RTS at the head parks reverse control behind it;
  // a sender stuck in put still needs those CTS/acks processed.
  co_await scan_ahead_ctrl(c);
  flush_acks(c);
  advance_release(c);
}

sim::Task<std::size_t> AdaptiveChannel::engine(AdaptiveConnection& c,
                                               std::span<const ConstIov> iovs,
                                               bool pinned) {
  co_await node().compute(kAdStateOverhead);
  const bool wired = co_await ensure_tx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);
  co_await progress_sender(c);

  if (!pinned && c.legacy_active) {
    co_await call_overhead();
    if (!c.legacy_done) co_return 0;
    c.legacy_active = false;
    c.legacy_done = false;
    const std::size_t len = c.legacy_len;
    c.legacy_len = 0;
    co_return len;
  }

  std::size_t accepted = 0;
  std::size_t iv = 0;
  bool charged = false;
  while (iv < iovs.size()) {
    // Consecutive sub-threshold buffers stream through the ring in one
    // slot-copy pass.
    std::size_t run = iv;
    while (run < iovs.size() && iovs[run].len < sel_.eager_max()) ++run;
    if (run > iv) {
      auto sub = iovs.subspan(iv, run - iv);
      const std::size_t k = co_await PipelineChannel::put(c, sub);
      charged = true;
      if (k > 0) {
        if (pinned) {
          c.loan_accepted += k;
          c.segs.push_back(AdaptiveConnection::Seg{k, 0, true});
        }
        accepted += k;
      }
      if (k < total_length(sub)) break;  // ring full
      iv = run;
      continue;
    }
    if (free_slots(c) == 0) break;  // no slot for the RTS
    const ConstIov& big = iovs[iv];
    const ProtocolSelector::Proto proto = sel_.choose(big.len);
    const bool started = co_await start_rndv(c, big, proto, pinned);
    if (!started) {
      // Registration refused (pin-down exhaustion): degrade to the
      // pipelined copy path, and teach the selector the penalty -- an
      // uncached bus-speed pass over the buffer -- so it stops preferring
      // a protocol the HCA cannot currently serve.
      ++stats_.reg_fallbacks;
      const ib::FabricConfig& f = ctx_->fabric().cfg();
      sel_.record(proto, big.len, big.len,
                  static_cast<double>(big.len) /
                      (f.bus_mbps / f.copy_factor_uncached),
                  1);
      const ConstIov one = big;
      const std::size_t k =
          co_await PipelineChannel::put(c, std::span<const ConstIov>(&one, 1));
      charged = true;
      if (k > 0) {
        if (pinned) {
          c.loan_accepted += k;
          c.segs.push_back(AdaptiveConnection::Seg{k, 0, true});
        }
        accepted += k;
      }
      if (k < big.len) break;  // ring full
      ++iv;
      continue;
    }
    if (!pinned) {
      // Classic semantics: the rendezvous bytes are not counted until the
      // ack retires them; put keeps returning 0 for this buffer.
      c.legacy_active = true;
      c.legacy_done = false;
      c.legacy_len = big.len;
      break;
    }
    accepted += big.len;
    ++iv;
  }
  if (!charged) co_await call_overhead();
  advance_release(c);
  co_return accepted;
}

sim::Task<std::size_t> AdaptiveChannel::put(Connection& conn,
                                            std::span<const ConstIov> iovs) {
  co_return co_await engine(static_cast<AdaptiveConnection&>(conn), iovs,
                            /*pinned=*/false);
}

sim::Task<std::size_t> AdaptiveChannel::put_pinned(
    Connection& conn, std::span<const ConstIov> iovs) {
  co_return co_await engine(static_cast<AdaptiveConnection&>(conn), iovs,
                            /*pinned=*/true);
}

sim::Task<void> AdaptiveChannel::harvest_chunks(
    AdaptiveConnection& /*c*/, AdaptiveConnection::InRndv& r) {
  for (auto& ch : r.chunks) {
    if (ch.done || ch.failed) continue;
    ib::Wc wc;
    const bool have = take_completion(ch.wr, &wc);
    if (!have) continue;
    if (wc.status == ib::WcStatus::kLocalProtectionError ||
        wc.status == ib::WcStatus::kRemoteAccessError) {
      throw std::logic_error("adaptive chunk read failed");
    }
    if (wc.status != ib::WcStatus::kSuccess) {
      // Transport/flush: recovery's replay re-issues this chunk.
      ch.failed = true;
      continue;
    }
    ch.done = true;
    // Per-rail goodput sample (chunk issued -> chunk retired): feeds the
    // weighted stripe policy.  Relative accuracy across rails is all that
    // matters here.
    const double chunk_usec =
        static_cast<double>(ctx_->sim().now() - ch.start) / sim::usec(1);
    sel_.record_rail(ch.rail, ch.len, chunk_usec);
    if (cfg_.health_detector && ch.len * 2 >= kRndvReadChunk) {
      // Health sample: full-size chunks only -- tail fragments run at a
      // different goodput and would false-trip the suspicion score.
      note_rail_sample(ch.rail, ch.len, chunk_usec);
    }
    co_await cache_->release(ch.mr);
    ch.mr = nullptr;
  }
  while (!r.chunks.empty() && r.chunks.front().done) {
    if (cfg_.integrity_check) {
      // Chunks retire in offset order, so the rolling CRC walks the sink
      // contiguously; the whole message is checked against the RTS CRC
      // once done reaches len.
      const AdaptiveConnection::Chunk& ch = r.chunks.front();
      r.crc_state = crc32c_update(r.crc_state, ch.dst, ch.len);
      charge_crc(ch.len);
    }
    r.done += r.chunks.front().len;
    r.chunks.pop_front();
  }
}

sim::Task<void> AdaptiveChannel::progress_inbound(AdaptiveConnection& c,
                                                  std::span<const Iov> iovs,
                                                  std::size_t* delivered) {
  // 1. Land data for every rendezvous: chunk-read completions, FIN flags.
  for (auto& r : c.inq) {
    if (r.read) {
      co_await harvest_chunks(c, r);
      if (cfg_.integrity_check && r.done == r.len && !r.verified) {
        if (r.crc_state == static_cast<std::uint32_t>(r.crc_expect)) {
          r.verified = true;
        } else {
          // Pulled bytes do not reproduce the RTS checksum: NACK through
          // recovery and re-pull the whole message into the same sink.
          // Nothing was reported yet (reporting is gated on verified), so
          // placement offsets restart consistently at zero.
          flag_integrity_failure(c);
          r.done = 0;
          r.issued = 0;
          r.crc_state = 0;
          r.chunks.clear();
        }
      }
    } else {
      const std::size_t fs = static_cast<std::size_t>(r.token % kFinSlots);
      if (r.cts_open && c.fin_flags[2 * fs] >= r.expect) {
        if (cfg_.integrity_check) {
          const std::size_t m = r.expect - r.done;
          charge_crc(m);
          if (crc32c(r.round_dst, m) !=
              static_cast<std::uint32_t>(c.fin_flags[2 * fs + 1])) {
            // Round data damaged in flight: NACK; recovery's replay
            // rewrites the round and its FIN (fresh CRC) from the loaned
            // source bytes, and this check runs again.
            flag_integrity_failure(c);
            continue;
          }
        }
        // The FIN flag proves the round's data landed in the sink.
        co_await cache_->release(r.dst_mr);
        r.dst_mr = nullptr;
        r.done = r.expect;
        r.cts_open = false;
      }
    }
  }

  // 2. Report the head's landed bytes first so iov offsets below see a
  // consistent delivered/reported pair.  Integrity gates read-path bytes
  // until the whole message verified (they land zero-copy in the caller's
  // sink either way; only the reporting is withheld).
  if (delivered != nullptr) {
    auto& head = c.inq.front();
    const bool gated = cfg_.integrity_check && head.read && !head.verified;
    if (!gated && head.done > head.reported) {
      *delivered += head.done - head.reported;
      head.reported = head.done;
    }
  }

  // 3. Keep the pipelines full.  Attached entries place into their own
  // sink; the head may also use whatever space the caller is offering.
  for (std::size_t i = 0; i < c.inq.size(); ++i) {
    auto& r = c.inq[i];
    const bool use_iovs = i == 0 && r.sink_len == 0 && delivered != nullptr;
    if (r.read) {
      while (r.issued < r.len) {
        const int q = pick_read_qp(c);
        if (q == -2) break;
        Iov piece;
        if (r.sink_len > 0) {
          piece = locate(r.sink, r.issued);
        } else if (use_iovs) {
          piece = locate(iovs, *delivered + (r.issued - r.reported));
        }
        if (piece.len == 0) break;  // no sink space for this entry
        AdaptiveConnection::Chunk ch;
        ch.off = r.issued;
        ch.len =
            std::min({kRndvReadChunk, r.len - r.issued, piece.len});
        ch.qp = q;
        ch.dst = piece.base;
        bool refused = false;
        try {
          ch.mr = co_await cache_->acquire(piece.base, ch.len);
        } catch (const ib::RegistrationError&) {
          refused = true;  // co_await is illegal in a handler; flag and go
        }
        if (refused) {
          // Transient pin-down exhaustion: stop issuing and retry on a
          // later pass (the wakeup keeps pollers from parking).
          ++stats_.reg_fallbacks;
          schedule_retry_wakeup();
          break;
        }
        ch.wr = next_wr_id();
        r.chunks.push_back(ch);
        post_chunk_read(c, r, r.chunks.back());
        r.issued += ch.len;
      }
    } else if (!r.cts_open && r.done < r.len && free_slots(c) > 0) {
      Iov piece;
      if (r.sink_len > 0) {
        piece = locate(r.sink, r.done);
      } else if (use_iovs) {
        piece = locate(iovs, *delivered + (r.done - r.reported));
      }
      if (piece.len > 0) {
        const std::size_t m = std::min(r.len - r.done, piece.len);
        bool refused = false;
        try {
          r.dst_mr = co_await cache_->acquire(piece.base, m);
        } catch (const ib::RegistrationError&) {
          refused = true;  // co_await is illegal in a handler; flag and go
        }
        if (refused) {
          ++stats_.reg_fallbacks;
          schedule_retry_wakeup();
        } else {
          AdaptiveCts cts{r.token, reinterpret_cast<std::uint64_t>(piece.base),
                          r.dst_mr->rkey(), m};
          post_ctrl_slot(c, SlotKind::kCts, &cts, sizeof(cts));
          r.round_dst = piece.base;
          r.expect = r.done + m;
          r.cts_open = true;
        }
      }
    }
  }

  // 4. Reverse-direction control parked behind the head RTS.
  co_await scan_ahead_ctrl(c);

  // 5. Report again (step 1 may have landed more) and retire the head once
  // everything is delivered AND reported: the ack releases the sender's
  // loan, and the consume burst frees the RTS slot plus the drained-ahead
  // slots between it and the next stop point.
  auto& head = c.inq.front();
  const bool head_gated =
      cfg_.integrity_check && head.read && !head.verified;
  if (delivered != nullptr && !head_gated && head.done > head.reported) {
    *delivered += head.done - head.reported;
    head.reported = head.done;
  }
  if (head.done == head.len && head.reported == head.len) {
    if (!head.read) {
      c.fin_flags[2 * (head.token % kFinSlots)] = 0;
      c.fin_flags[2 * (head.token % kFinSlots) + 1] = 0;
    }
    const std::uint64_t token = head.token;
    c.inq.pop_front();
    consume_slot(c);  // the RTS slot
    if (!c.inq.empty()) {
      for (std::uint64_t s = 0; s < c.inq.front().gap_before; ++s) {
        consume_slot(c);
      }
      c.inq.front().gap_before = 0;
    } else {
      for (std::uint64_t s = 0; s < c.tail_drained; ++s) consume_slot(c);
      c.tail_drained = 0;
      c.cur_slot_off = c.tail_off;  // partially drained next slot, if any
      c.tail_off = 0;
    }
    c.ack_queue.push_back(token);
    flush_acks(c);
  }
}

sim::Task<std::size_t> AdaptiveChannel::get(Connection& conn,
                                            std::span<const Iov> iovs) {
  auto& c = static_cast<AdaptiveConnection&>(conn);
  co_await call_overhead();
  const bool wired = co_await ensure_rx(c);
  if (!wired) co_return 0;
  co_await maybe_recover(c);

  const std::size_t want = total_length(iovs);
  std::size_t delivered = 0;
  bool stop = false;

  while (!stop) {
    if (!c.inq.empty()) {
      co_await progress_inbound(c, iovs, &delivered);
      // Head still in flight, or it retired with attached successors
      // behind it (whose bytes belong to the *next* frames -- the caller
      // re-enters with their sinks): report what has landed.
      if (!c.inq.empty()) break;
      continue;
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
      case SlotKind::kRtsRead:
      case SlotKind::kRtsWrite: {
        AdaptiveRts rts;  // crc stays 0 for a pre-integrity short RTS
        std::memcpy(&rts, slot_payload(c),
                    std::min<std::size_t>(hdr->payload_len, sizeof(rts)));
        AdaptiveConnection::InRndv r;
        r.token = rts.token;
        r.read = static_cast<SlotKind>(hdr->kind) == SlotKind::kRtsRead;
        r.len = static_cast<std::size_t>(rts.len);
        r.src_addr = rts.addr;
        r.src_rkey = static_cast<std::uint32_t>(rts.rkey);
        r.crc_expect = rts.crc;
        // The RTS slot stays at the pipe head (FIFO order) until the
        // rendezvous completes.
        c.inq.push_back(std::move(r));
        break;
      }
      case SlotKind::kCts: {
        AdaptiveCts cts;
        std::memcpy(&cts, slot_payload(c), sizeof(cts));
        handle_cts(c, cts);
        consume_slot(c);
        break;
      }
      case SlotKind::kAckTok: {
        AdaptiveAck ack;
        std::memcpy(&ack, slot_payload(c), sizeof(ack));
        co_await handle_ack(c, ack.token);
        consume_slot(c);
        // Return before parsing further stream bytes: the caller must
        // observe the advanced release watermark first, so a sender
        // blocked on this ack completes before the next frame's sink is
        // even needed.
        stop = true;
        break;
      }
      default:
        throw std::logic_error("adaptive channel: unexpected slot kind");
    }
  }

  flush_acks(c);
  advance_release(c);
  co_return delivered;
}

sim::Task<std::size_t> AdaptiveChannel::get_ahead(Connection& conn,
                                                  std::span<const Iov> iovs) {
  auto& c = static_cast<AdaptiveConnection&>(conn);
  if (!lazy_wired(c) || c.inq.empty()) co_return 0;
  co_await node().compute(kAdStateOverhead);
  const std::size_t want = total_length(iovs);
  std::size_t delivered = 0;
  while (delivered < want) {
    co_await scan_ahead_ctrl(c);
    const SlotHeader* hdr = peek_slot_at(c, ahead_depth(c));
    if (hdr == nullptr ||
        static_cast<SlotKind>(hdr->kind) != SlotKind::kData) {
      break;  // nothing queued yet, or an RTS that needs attach_rndv
    }
    const std::size_t n =
        std::min(want - delivered, hdr->payload_len - c.tail_off);
    const std::byte* payload = slot_payload_at(c, ahead_depth(c));
    const std::size_t ring_pos =
        static_cast<std::size_t>(payload - c.rx + c.tail_off);
    co_await copy_out(c, ring_pos, iovs, delivered, n, want);
    c.tail_off += n;
    delivered += n;
    if (c.tail_off == hdr->payload_len) {
      ++c.tail_drained;  // consumed later, when the head catches up
      c.tail_off = 0;
    }
  }
  flush_acks(c);
  advance_release(c);
  co_return delivered;
}

sim::Task<bool> AdaptiveChannel::attach_rndv(Connection& conn,
                                             std::span<const Iov> sink) {
  auto& c = static_cast<AdaptiveConnection&>(conn);
  if (!lazy_wired(c)) co_return false;
  if (c.inq.empty() || c.inq.size() > rndv_lookahead()) co_return false;
  co_await node().compute(kAdStateOverhead);
  co_await scan_ahead_ctrl(c);
  if (c.tail_off != 0) co_return false;  // cursor mid-slot: not at an RTS
  const SlotHeader* hdr = peek_slot_at(c, ahead_depth(c));
  if (hdr == nullptr) co_return false;
  const auto kind = static_cast<SlotKind>(hdr->kind);
  if (kind != SlotKind::kRtsRead && kind != SlotKind::kRtsWrite) {
    co_return false;
  }
  AdaptiveRts rts;  // crc stays 0 for a pre-integrity short RTS
  std::memcpy(&rts, slot_payload_at(c, ahead_depth(c)),
              std::min<std::size_t>(hdr->payload_len, sizeof(rts)));
  if (total_length(sink) < rts.len) co_return false;  // partial sinks stay
                                                      // on the head flow
  AdaptiveConnection::InRndv r;
  r.token = rts.token;
  r.read = kind == SlotKind::kRtsRead;
  r.len = static_cast<std::size_t>(rts.len);
  r.src_addr = rts.addr;
  r.src_rkey = static_cast<std::uint32_t>(rts.rkey);
  r.crc_expect = rts.crc;
  r.sink.assign(sink.begin(), sink.end());
  r.sink_len = total_length(sink);
  r.gap_before = c.tail_drained;  // drained slots between the previous RTS
  c.tail_drained = 0;             // and this one, consumed at its retire
  c.inq.push_back(std::move(r));
  // Kick the new entry's data leg immediately -- overlapping it with the
  // head's is the whole point.
  co_await progress_inbound(c, {}, nullptr);
  flush_acks(c);
  advance_release(c);
  co_return true;
}

sim::Task<void> AdaptiveChannel::replay(VerbsConnection& conn,
                                        std::uint64_t peer_consumed) {
  co_await PiggybackChannel::replay(conn, peer_consumed);
  auto& c = static_cast<AdaptiveConnection&>(conn);

  // Aux QPs are not torn down with the main QP's epoch: a drained errored
  // QP returns to service in place, peer binding intact.  A QP whose rail
  // died stays in the error state -- its port never comes back -- and the
  // connection records the failover once; its traffic moves to surviving
  // rails below.
  for (ib::QueuePair* q : c.aux) {
    if (!q->in_error()) continue;
    co_await q->quiesce();
    if (q->port().up()) {
      q->reset();
    } else {
      note_rail_dead(c, q->port().rail());
    }
  }

  // Inbound read pipelines: sweep any verdicts that raced in, then re-pull
  // every failed chunk with a fresh destination registration (translation
  // state involved in a torn-down transfer is not trusted).  The sender's
  // source registration is held until our ack, so the rkey is still valid.
  // A chunk whose QP died with its rail is reassigned in place (the deque
  // position preserves offset-order retirement) to a surviving QP --
  // queueing behind that QP's own chunk is acceptable on the failover path.
  for (auto& r : c.inq) {
    if (!r.read) continue;
    co_await harvest_chunks(c, r);
    for (auto& ch : r.chunks) {
      if (!ch.failed) continue;
      std::byte* dst = ch.dst;
      const std::size_t m = ch.len;
      co_await cache_->invalidate(ch.mr);
      ch.mr = co_await cache_->acquire(dst, m);
      ch.wr = next_wr_id();
      ch.failed = false;
      ib::QueuePair* cur =
          ch.qp >= 0 ? c.aux[static_cast<std::size_t>(ch.qp)] : c.qp;
      if (cur->in_error() || !cur->port().up()) {
        // Dead rail: first healthy aux QP, else the fresh main QP (whose
        // failure, with every rail dead, exhausts the recovery budget).
        int nq = -1;
        for (std::size_t i = 0; i < c.aux.size(); ++i) {
          if (!c.aux[i]->in_error() && c.aux[i]->port().up()) {
            nq = static_cast<int>(i);
            break;
          }
        }
        ch.qp = nq;
      }
      post_chunk_read(c, r, ch);
      ++rndv_read_track_.retries;
      ++stats_.retransmits;
      stats_.replayed_bytes += m;
    }
  }

  // Outbound write rendezvous: the data and FIN writes of the open CTS
  // round were unsignaled; any of them may have died with the QP.  Re-write
  // the whole round from the loaned source bytes -- bit-identical, so a
  // duplicate is harmless -- and the FIN behind it.
  for (auto& r : c.out) {
    if (r.proto != ProtocolSelector::Proto::kWrite || !r.cts_seen ||
        r.w_sent == r.round_base) {
      continue;
    }
    const std::size_t m = r.w_sent - r.round_base;
    // write_qp re-picks the round's rail if its old one died; the CTS
    // window (receiver memory registration) is rail-agnostic, so the same
    // rkey serves from the surviving rail.
    ib::QueuePair* wqp = write_qp(c, r);
    note_rail(wqp->port().rail(), m);
    wqp->post_send(
        ib::SendWr{next_wr_id(),
                   ib::Opcode::kRdmaWrite,
                   {ib::Sge{const_cast<std::byte*>(r.src) + r.round_base, m,
                            r.mr->lkey()}},
                   r.w_addr,
                   r.w_rkey,
                   /*signaled=*/false});
    const std::size_t fs = static_cast<std::size_t>(r.token % kFinSlots);
    c.fin_src[2 * fs] = r.w_sent;
    std::size_t fin_w = sizeof(std::uint64_t);
    if (cfg_.integrity_check) {
      // Fresh round CRC with the rewrite: if the original data write was
      // the corrupted one, the receiver's pending FIN check now passes.
      c.fin_src[2 * fs + 1] = crc32c(r.src + r.round_base, m);
      charge_crc(m);
      fin_w = 2 * sizeof(std::uint64_t);
    }
    wqp->post_send(ib::SendWr{
        next_wr_id(),
        ib::Opcode::kRdmaWrite,
        {ib::Sge{reinterpret_cast<std::byte*>(&c.fin_src[2 * fs]), fin_w,
                 c.fin_src_mr->lkey()}},
        c.r_fin_addr + fs * 2 * sizeof(std::uint64_t),
        c.r_fin_rkey,
        /*signaled=*/false});
    ++rndv_write_track_.retries;
    stats_.retransmits += 2;
    stats_.replayed_bytes += m;
  }
}

ChannelStats AdaptiveChannel::stats() const {
  ChannelStats s = VerbsChannelBase::stats();
  s.eager_threshold = sel_.eager_max();
  s.write_read_crossover = sel_.write_read_crossover();
  // The selector's EWMAs are the live per-protocol goodput estimates;
  // surface the best-sampled figure of each rendezvous protocol.
  const double w = sel_.peak_mbps(ProtocolSelector::Proto::kWrite);
  const double r = sel_.peak_mbps(ProtocolSelector::Proto::kRead);
  if (w > 0.0) s.rndv_write.mbps = w;
  if (r > 0.0) s.rndv_read.mbps = r;
  return s;
}

}  // namespace rdmach
