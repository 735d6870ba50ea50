#include "rdmach/verbs_base.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "rdmach/crc32c.hpp"
#include "rdmach/piggyback_channel.hpp"  // SlotHeader: the ring's flag words
#include "sim/fault.hpp"

namespace rdmach {

namespace {

/// Endpoint-record key of `from`'s half toward `to` in connect generation
/// `gen` (always 0 for the eager bootstrap).  Generation-scoped, so every
/// lazy reconnect is a fresh write-once exchange.
std::string endpoint_key(int from, int to, std::uint64_t gen) {
  return "ep:" + std::to_string(from) + ":" + std::to_string(to) + ":" +
         std::to_string(gen);
}

/// Recovery-handshake records {qpn, consumed} are epoch-scoped so every
/// re-handshake is a fresh exchange (PMI keys are write-once in real mpd
/// too).
std::string rec_key(int from, int to, std::uint64_t epoch) {
  return "rcv:" + std::to_string(from) + ":" + std::to_string(to) + ":" +
         std::to_string(epoch);
}

std::string dead_key(int from, int to) {
  return "rcv:" + std::to_string(from) + ":" + std::to_string(to) + ":dead";
}

/// Per-rank mailbox key of the lazy-connect control plane; messages are
/// appended (Kvs::append) and consumed in FIFO order through a cursor, so
/// an evict-ack for generation g is always processed before the connect
/// request that opens generation g+1.
std::string lz_mail_key(int r) { return "lzm:" + std::to_string(r); }

/// Op word of a lazy-connect mail record {op, from, gen, consumed}.
enum LzMailOp : std::uint64_t {
  kLzConnect,  // open generation `gen`: join my endpoint record
  kLzEvict,    // tear down `gen`; `consumed` is my consumed watermark
  kLzAck,      // eviction of `gen` done on my side
  kLzNak,      // eviction of `gen` refused (or stale)
  kLzFlush,    // send your deferred consumption ack: it pins my eviction
};

}  // namespace

sim::Task<void> VerbsChannelBase::init() {
  pd_ = &node().hca().alloc_pd();
  cq_ = &node().hca().create_cq("rank" + std::to_string(rank()) + ".cq");

  // Rail bundle: one CQ per rail, owned by the rail's HCA.  Rail 0 reuses
  // the CQ above (legacy name, so single-rail runs are bit-identical).
  num_rails_ = node().num_rails();
  cqs_.assign(1, cq_);
  for (int r = 1; r < num_rails_; ++r) {
    cqs_.push_back(&node().rail(r).hca().create_cq(
        "rank" + std::to_string(rank()) + ".rail" + std::to_string(r) +
        ".cq"));
  }
  stats_.rails.assign(static_cast<std::size_t>(num_rails_), {});
  rail_health_.assign(static_cast<std::size_t>(num_rails_), {});

  // Lazy bootstrap: no per-pair rings, MRs, or QPs -- a rank's footprint at
  // init is O(1), not O(ranks).  Connections are born cold; the first put()
  // runs the on-demand handshake (ensure_tx / lazy_service).  The shared
  // receive pool, when configured, is allocated and registered once here:
  // one rkey covers every lease it will ever hand out.
  if (cfg_.lazy_connect && cfg_.srq_pool_rings > 0) {
    srq_pool_.reset(cfg_.srq_pool_rings, kRingBytes);
    srq_mr_ = co_await pd_->register_memory(srq_pool_.base(),
                                            srq_pool_.bytes(), ib::kAllAccess);
  }
  conns_.clear();
  conns_.resize(static_cast<std::size_t>(size()));
  for (int p = 0; p < size(); ++p) {
    if (p == rank()) continue;
    auto conn = make_connection();
    conn->peer = p;
    conn->rail_failed.assign(static_cast<std::size_t>(num_rails_), 0);
    if (cfg_.lazy_connect) {
      conn->boot = VerbsConnection::Boot::kCold;
      // The peer's node is known from the process map alone -- needed for
      // connect-request wakeups before any QP exists.
      conn->peer_node = &ctx_->fabric().node(
          static_cast<std::size_t>(p / ctx_->ranks_per_node));
    }
    conns_[static_cast<std::size_t>(p)] = std::move(conn);
  }

  if (cfg_.lazy_connect) {
    co_await ctx_->barrier->arrive();
    co_return;
  }

  // Eager bootstrap: a lazy connect's two steps for every peer at once --
  // publish my half toward each, then join each peer's half (the lower rank
  // of each pair connects the QPs).  peer_node stays unset until the
  // barrier, so the setup schedules no wakeups.
  for (auto& c : conns_) {
    if (c) co_await setup_half(*c);
  }
  for (int p = 0; p < size(); ++p) {
    if (p == rank()) continue;
    const pmi::Record* ep =
        co_await ctx_->kvs->get(endpoint_key(p, rank(), 0));
    join_half(*conns_[static_cast<std::size_t>(p)], *ep);
  }
  co_await ctx_->barrier->arrive();

  // Both directions are connected now: index QPs for error-CQE dispatch and
  // remember the peer node for out-of-band recovery wakeups.
  for (auto& c : conns_) {
    if (!c) continue;
    c->peer_node = &c->qp->peer()->node();
    qp_index_[c->qp->qp_num()] = c.get();
    ++qps_live_;
  }
}

sim::Task<void> VerbsChannelBase::drain_connection(VerbsConnection& c) {
  sim::Simulator& sim = ctx_->sim();
  for (;;) {
    bool dead = false;  // co_await is illegal inside a handler
    try {
      co_await maybe_recover(c);
    } catch (const ChannelError&) {
      // Nothing more can be delivered; the data loss was already surfaced
      // as ChannelError from the puts/gets that needed the connection.
      dead = true;
    }
    if (dead) co_return;
    co_await c.qp->quiesce();
    // An errored WQE's completion trails the quiesce by the NAK round trip
    // (the engine goes idle when it gives up, the CQE lands 2*wire_latency
    // later) -- wait it out so drain_cq sees the verdict.
    co_await sim.delay(2 * ctx_->fabric().cfg().wire_latency + 1);
    drain_cq();
    if (!c.rec.failed && !c.integrity_failed && !peer_epoch_pending(c)) {
      co_return;
    }
  }
}

sim::Task<void> VerbsChannelBase::finalize() {
  // Flush before stopping: "my put accepted those bytes" must mean "the
  // peer can read them", even though data/tail writes are posted unsignaled
  // and their loss is only discovered by the *next* channel entry -- which,
  // at shutdown, would never come.  (Regression: an MPI rank whose last
  // packet's ring write died with the QP parked in the finalize barrier
  // while its peer waited forever for the bytes.)
  for (auto& c : conns_) {
    if (!c) continue;
    // Lazy mode: cold connections have nothing to drain; a half-built one
    // (kRequested, peer never joined) has no wired QP either.
    if (c->qp == nullptr || !c->qp->connected()) continue;
    co_await drain_connection(*c);
  }

  // Recovery-aware barrier: a drained rank keeps answering epoch
  // handshakes -- a slower peer may still need our half of a re-handshake
  // to redeliver its own traffic.  A blocking arrive() here would deadlock
  // exactly the case the drain above exists for, with the roles swapped.
  const std::uint64_t token = ctx_->barrier->arrive_split();
  while (!ctx_->barrier->done(token)) {
    // Obituaried ranks can never arrive: drop them from the participant
    // set (idempotent per rank) so survivors' finalize does not wedge on a
    // corpse.  Re-checked each pass -- an obituary can land while parked.
    for (int r : ctx_->kvs->obits()) ctx_->barrier->abandon(r);
    if (ctx_->barrier->done(token)) break;
    bool serviced = false;
    // A finalizing rank keeps answering the lazy control plane too: a
    // slower peer may still need our half of an evict handshake to get out
    // of kEvictWait.
    if (cfg_.lazy_connect) co_await lazy_service();
    for (auto& cp : conns_) {
      if (!cp || cp->rec.dead) continue;
      if (cp->qp == nullptr || !cp->qp->connected()) continue;
      drain_cq();
      if (cp->rec.failed || peer_epoch_pending(*cp)) {
        co_await drain_connection(*cp);
        serviced = true;
      }
    }
    if (ctx_->barrier->done(token)) break;
    if (!serviced) co_await wait_for_activity();
  }
  // Completing the barrier wakes peers parked in the service loop above
  // (wait_for_activity is a node-level event; the barrier release is not).
  node().dma_arrival().fire();
  for (auto& c : conns_) {
    if (!c) continue;
    wake_peer(*c);
  }

  // All ranks have drained and stopped producing; buffers can go.  Cold
  // lazy connections have no registrations; pooled rings go back to the
  // shared pool (whose one registration is dropped last).
  for (auto& c : conns_) {
    if (!c) continue;
    if (c->ring_mr != nullptr) co_await pd_->deregister(c->ring_mr);
    if (c->staging_mr != nullptr) co_await pd_->deregister(c->staging_mr);
    if (c->ctrl_mr != nullptr) co_await pd_->deregister(c->ctrl_mr);
    if (c->ring_pooled) {
      srq_pool_.release(c->rx);
      c->ring_pooled = false;
      c->rx = nullptr;
    }
  }
  if (srq_mr_ != nullptr) {
    co_await pd_->deregister(srq_mr_);
    srq_mr_ = nullptr;
  }
  co_await ctx_->barrier->arrive();
}

Connection& VerbsChannelBase::connection(int peer) {
  auto& c = conns_.at(static_cast<std::size_t>(peer));
  if (!c) throw std::logic_error("no connection to self");
  return *c;
}

sim::Task<void> VerbsChannelBase::wait_for_activity() {
  co_await node().dma_arrival().wait();
}

std::uint64_t VerbsChannelBase::activity_count() const {
  return node().dma_arrival().fire_count();
}

ChannelStats VerbsChannelBase::stats() const {
  ChannelStats s = stats_;
  snapshot_protocols(s);
  for (const RailHealth& h : rail_health_) {
    // Open quarantines count up to "now": a campaign that ends mid-
    // probation still reports how long the rail has been out.
    if (h.quarantined) {
      s.degraded_ns += static_cast<std::uint64_t>(ctx_->sim().now() - h.since);
    }
  }
  s.qps_live = qps_live_;
  s.srq_pool_high_water = srq_pool_.high_water();
  s.resident_bytes = srq_pool_.bytes();
  for (const auto& c : conns_) {
    if (!c) continue;
    s.resident_bytes +=
        c->recv_ring.size() + c->staging.size() + sizeof(CtrlBlock);
  }
  return s;
}

void VerbsChannelBase::ready_recv_ring(std::byte* ring,
                                       std::size_t chunk_bytes) {
  for (std::size_t off = 0; off < kRingBytes; off += chunk_bytes) {
    std::memset(ring + off, 0, sizeof(SlotHeader));
  }
}

void VerbsChannelBase::reset_stats() {
  Channel::reset_stats();
  // The per-rail slots are sized at init: zero them in place.
  std::vector<ChannelStats::RailStats> rails = std::move(stats_.rails);
  rails.assign(rails.size(), {});
  stats_ = ChannelStats{};
  stats_.rails = std::move(rails);
  for (RailHealth& h : rail_health_) {
    // Restart the open-quarantine clock so per-phase deltas stay exact.
    if (h.quarantined) h.since = ctx_->sim().now();
  }
}

void VerbsChannelBase::post_ring_write(VerbsConnection& c,
                                       std::size_t staging_off,
                                       std::size_t len, std::size_t ring_off,
                                       bool signaled, std::uint64_t wr_id) {
  c.qp->post_send(ib::SendWr{
      wr_id,
      ib::Opcode::kRdmaWrite,
      {ib::Sge{c.staging.data() + staging_off, len, c.staging_mr->lkey()}},
      c.r_ring_addr + ring_off,
      c.r_ring_rkey,
      signaled});
}

void VerbsChannelBase::post_head_update(VerbsConnection& c) {
  // With integrity on, the 16-byte write carries the value together with
  // its CRC word (the basic design keeps head_master_crc current).
  const std::size_t w = cfg_.integrity_check ? 16 : 8;
  c.qp->post_send(ib::SendWr{
      next_wr_id(),
      ib::Opcode::kRdmaWrite,
      {ib::Sge{reinterpret_cast<std::byte*>(&c.ctrl) + kCtrlHeadMasterOff, w,
               c.ctrl_mr->lkey()}},
      c.r_ctrl_addr + kCtrlHeadReplicaOff,
      c.r_ctrl_rkey,
      /*signaled=*/false});
}

void VerbsChannelBase::post_tail_update(VerbsConnection& c) {
  std::size_t w = 8;
  if (cfg_.integrity_check) {
    c.ctrl.tail_master_crc = crc32c_u64(c.ctrl.tail_master);
    charge_crc(sizeof(c.ctrl.tail_master));
    w = 16;
  }
  c.qp->post_send(ib::SendWr{
      next_wr_id(),
      ib::Opcode::kRdmaWrite,
      {ib::Sge{reinterpret_cast<std::byte*>(&c.ctrl) + kCtrlTailMasterOff, w,
               c.ctrl_mr->lkey()}},
      c.r_ctrl_addr + kCtrlTailReplicaOff,
      c.r_ctrl_rkey,
      /*signaled=*/false});
}

void VerbsChannelBase::drain_cq() {
  // Every rail's CQ feeds one completion stash; wr_ids are unique across
  // rails, so waiters don't care which CQ their CQE arrived on.
  for (ib::CompletionQueue* cq : cqs_) {
    // Batched poll: one call drains the whole rail instead of one poll per
    // WQE (the reused scratch keeps the hot path allocation-free).
    wc_scratch_.clear();
    cq->poll_batch(wc_scratch_);
    for (const ib::Wc& wc : wc_scratch_) {
      if (wc.status == ib::WcStatus::kTransportError ||
          wc.status == ib::WcStatus::kFlushError) {
        // Map the CQE back to its connection.  A qp_num missing from the
        // index belongs to an already torn-down epoch (a straggler flush);
        // it must not re-trip recovery on the replacement QP.
        auto it = qp_index_.find(wc.qp_num);
        if (it != qp_index_.end()) it->second->rec.failed = true;
      } else if (wd_hint_ && wc.status == ib::WcStatus::kSuccess) {
        // A *partial* CQ drain is progress too: a successful CQE on a
        // connection inside an armed watchdog episode re-arms its deadline,
        // so a degraded (slow, not dead) rail that is steadily completing
        // WQEs can never be convicted by the clock between two recovery
        // attempts.  Pure bookkeeping -- no virtual time, and wd_hint_ is
        // only ever set by recover(), so fault-free traces are untouched.
        auto it = qp_index_.find(wc.qp_num);
        if (it != qp_index_.end()) {
          VerbsConnection::Recovery& rec = it->second->rec;
          if (watchdog_armed(*it->second)) {
            rec.deadline = ctx_->sim().now() + cfg_.recovery_epoch_deadline;
            if (rec.suspicion > 0) --rec.suspicion;
          }
        }
      }
      completed_[wc.wr_id] = wc;
    }
    if (cq->overrun()) {
      // Drain-and-rearm: an injected overrun dropped CQEs before they were
      // queued.  Their true verdicts are unknowable (real HCAs lose them
      // outright), so resurface each as a flush on its connection -- waiters
      // unblock, the connection recovers, and replay (idempotent) redelivers
      // whatever the lost completions covered.
      for (ib::Wc wc : cq->rearm()) {
        wc.status = ib::WcStatus::kFlushError;
        auto it = qp_index_.find(wc.qp_num);
        if (it != qp_index_.end()) it->second->rec.failed = true;
        completed_[wc.wr_id] = wc;
        ++stats_.cq_overruns;
      }
    }
  }
}

void VerbsChannelBase::note_rail_sample(int rail, std::uint64_t bytes,
                                        double elapsed_usec) {
  if (!cfg_.health_detector || rail < 0 || rail >= num_rails_ ||
      elapsed_usec <= 0.0) {
    return;
  }
  RailHealth& h = rail_health_[static_cast<std::size_t>(rail)];
  const double mbps = static_cast<double>(bytes) / elapsed_usec;

  if (h.quarantined) {
    // Probation: this sample is a probe's verdict.  Healthy = within the
    // reinstate factor of the pre-quarantine baseline goodput.
    const bool healthy = mbps >= kHealthReinstateFactor * h.baseline;
    if (h.probe_virgin) {
      h.probe_virgin = false;
      // The very first probe already measuring healthy means the detector
      // jumped at noise, not at a degrade.
      if (healthy) ++stats_.false_suspicions;
    }
    if (!healthy) {
      h.healthy_probes = 0;
      return;
    }
    if (++h.healthy_probes < kHealthReinstateProbes) return;
    // Reinstate: rejoin the stripe set without a reconnect.  The EWMA
    // restarts its warmup from the probe's reading -- the healed rail's
    // goodput, not the degraded history.
    h.quarantined = false;
    h.suspicion = 0;
    h.samples = 1;
    h.mean = mbps;
    h.var = 0.0;
    h.skip_count = 0;
    h.healthy_probes = 0;
    stats_.degraded_ns += static_cast<std::uint64_t>(ctx_->sim().now() - h.since);
    ++stats_.rail_reinstates;
    return;
  }

  // Suspicion test against the EWMA *before* folding the sample in, with
  // the deviation floored at 10 % of the mean so a near-zero variance
  // cannot hair-trigger on ordinary jitter.
  if (h.samples >= static_cast<std::uint64_t>(kHealthWarmup)) {
    const double sigma =
        std::max(std::sqrt(h.var), 0.1 * h.mean);
    if (mbps < h.mean - cfg_.health_soft_sigma * sigma) {
      // Suspicious samples accrue score and are NOT folded into the EWMA:
      // a degraded rail must not drag its own baseline down until the
      // degrade looks normal.
      if (++h.suspicion == kHealthSuspicionTrip) {
        ++stats_.suspicion_trips;
        // Never quarantine the last usable rail -- a fully-degraded node
        // still needs a stripe set of one.
        int usable = 0;
        for (int r = 0; r < num_rails_; ++r) {
          if (rail_usable(r)) ++usable;
        }
        if (usable > 1) {
          h.quarantined = true;
          h.since = ctx_->sim().now();
          h.baseline = h.mean;
          h.skip_count = 0;
          h.healthy_probes = 0;
          h.probe_virgin = true;
          ++stats_.rail_quarantines;
        } else {
          // Conviction refused; keep accruing so a later-recovered fleet
          // can still quarantine (score capped at trip by the == above).
          --h.suspicion;
        }
      }
      return;
    }
    if (h.suspicion > 0) --h.suspicion;
  }
  if (h.samples == 0) {
    h.mean = mbps;
    h.var = 0.0;
  } else {
    const double a = kHealthAlpha;
    const double d = mbps - h.mean;
    h.mean += a * d;
    h.var = (1.0 - a) * (h.var + a * d * d);
  }
  ++h.samples;
}

bool VerbsChannelBase::take_completion(std::uint64_t wr_id, ib::Wc* out) {
  drain_cq();
  auto it = completed_.find(wr_id);
  if (it == completed_.end()) return false;
  if (out != nullptr) *out = it->second;
  completed_.erase(it);
  return true;
}

sim::Task<ib::Wc> VerbsChannelBase::await_completion(VerbsConnection& c,
                                                     std::uint64_t wr_id) {
  ib::Wc wc;
  for (;;) {
    if (take_completion(wr_id, &wc)) {
      if (wc.status == ib::WcStatus::kLocalProtectionError ||
          wc.status == ib::WcStatus::kRemoteAccessError) {
        throw std::logic_error(std::string("channel-internal WR failed: ") +
                               ib::to_string(wc.status));
      }
      co_return wc;
    }
    if (watchdog_expired(c)) convict(c, Conviction::kWatchdog, "completion");
    if (watchdog_armed(c)) {
      // Park against the node trigger (fired on every CQE delivery on any
      // rail, and by the scheduled deadline wakeup) so this wait cannot
      // outlive the episode deadline.
      arm_watchdog_wakeup(c);
      co_await node().dma_arrival().wait();
    } else if (num_rails_ > 1) {
      co_await node().dma_arrival().wait();
    } else {
      co_await cq_->wait_nonempty();
    }
  }
}

void VerbsChannelBase::arm_watchdog_wakeup(VerbsConnection& c) {
  if (c.rec.deadline == 0 || c.rec.wakeup_armed == c.rec.deadline) return;
  c.rec.wakeup_armed = c.rec.deadline;
  sim::Simulator& sim = ctx_->sim();
  if (c.rec.deadline <= sim.now()) return;
  ib::Node* n = &node();
  sim.call_at(c.rec.deadline, [n] { n->dma_arrival().fire(); });
}

RecoverySnapshot VerbsChannelBase::make_snapshot(const VerbsConnection& c,
                                                 std::string stage) const {
  RecoverySnapshot s;
  s.stage = std::move(stage);
  s.epoch = c.rec.epoch;
  s.attempts = c.rec.attempts;
  // Units the peer has not acknowledged consuming of my outgoing stream
  // (bytes for the basic design, slots for the slot-ring family): what a
  // further replay would have to carry.
  const std::uint64_t produced = journal_produced(c);
  s.journal_outstanding =
      produced > c.rec.last_synced ? produced - c.rec.last_synced : 0;
  s.total_rails = num_rails_;
  for (int r = 0; r < num_rails_; ++r) {
    if (node().rail(r).up()) ++s.live_rails;
  }
  s.nacks = c.rec.nacks;
  s.last_nack_epoch = c.rec.last_nack_epoch;
  return s;
}

void VerbsChannelBase::post_obituary(VerbsConnection& c) {
  if (!cfg_.ft_detector) return;
  if (!ctx_->kvs->post_obit(c.peer)) return;
  ++stats_.obits_posted;
  // Progress engines park on the fabric dma_arrival triggers, not the KVS
  // one: wake every node (one wire latency out, like any CM event) so
  // parked loops re-check the board instead of sleeping on a corpse.
  pmi::wake_all_ranks(*ctx_);
}

void VerbsChannelBase::obit_fast_fail(VerbsConnection& c, const char* stage) {
  if (!cfg_.ft_detector || !peer_obituaried(c)) return;
  ++stats_.obit_fast_fails;
  c.rec.dead = true;
  RecoverySnapshot snap = make_snapshot(c, std::string("obituary:") + stage);
  throw ChannelError(c.peer,
                     "rank " + std::to_string(c.peer) +
                         " has a published obituary (" + stage + ")",
                     ChannelError::kDead, std::move(snap));
}

void VerbsChannelBase::convict(VerbsConnection& c, Conviction why,
                               const char* stage) {
  if (why == Conviction::kWatchdog) ++stats_.watchdog_trips;
  c.rec.dead = true;
  // Publish the verdict *before* throwing so the peer -- possibly parked
  // inside its own handshake wait -- is released rather than deadlocked.
  ctx_->kvs->put_recovery(dead_key(rank(), c.peer), {});
  wake_peer(c);
  if (why == Conviction::kWatchdog) node().dma_arrival().fire();
  post_obituary(c);
  if (why == Conviction::kWatchdog) {
    RecoverySnapshot snap = make_snapshot(c, std::string("watchdog:") + stage);
    throw ChannelError(c.peer,
                       "connection to rank " + std::to_string(c.peer) +
                           " watchdog expired (" + snap.to_string() + ")",
                       ChannelError::kDead, std::move(snap));
  }
  if (why == Conviction::kRetryBudget) {
    const ChannelError::Kind kind =
        c.rec.integrity ? ChannelError::kIntegrity : ChannelError::kDead;
    throw ChannelError(
        c.peer,
        "connection to rank " + std::to_string(c.peer) +
            " beyond recovery: " +
            std::to_string(cfg_.recovery_max_attempts) +
            " consecutive attempts without progress" +
            (kind == ChannelError::kIntegrity ? " (integrity)" : ""),
        kind, make_snapshot(c, stage));
  }
  throw ChannelError(c.peer,
                     "connection to rank " + std::to_string(c.peer) +
                         " beyond reach: " +
                         std::to_string(cfg_.recovery_max_attempts) +
                         " lazy-connect attempts without an answer (" +
                         stage + ")",
                     ChannelError::kDead, make_snapshot(c, stage));
}

void VerbsChannelBase::throw_if_dead(VerbsConnection& c, const char* stage) {
  if (!c.rec.dead && !peer_declared_dead(c)) return;
  c.rec.dead = true;
  throw ChannelError(c.peer,
                     "connection to rank " + std::to_string(c.peer) +
                         " is dead",
                     ChannelError::kDead, make_snapshot(c, stage));
}

sim::Task<void> VerbsChannelBase::maybe_recover(VerbsConnection& c) {
  drain_cq();
  for (;;) {
    throw_if_dead(c, "dead");
    // Obituary board: someone else already paid the detection cost for
    // this peer -- fail fast instead of burning a local retry budget.
    // Re-checked every loop pass, so an obituary landing mid-burn aborts
    // the remaining backoff ladder too.
    obit_fast_fail(c, "recover-entry");
    if (!c.rec.failed && !c.integrity_failed && !peer_epoch_pending(c)) {
      co_return;
    }
    co_await recover(c);
    drain_cq();
  }
}

sim::Task<void> VerbsChannelBase::flush_crc_charge() {
  while (pending_crc_bytes_ > 0) {
    const std::size_t n = pending_crc_bytes_;
    pending_crc_bytes_ = 0;
    co_await node().bus().transfer(static_cast<std::int64_t>(n));
  }
}

void VerbsChannelBase::flag_integrity_failure(VerbsConnection& c) {
  ++stats_.crc_failures;
  c.integrity_failed = true;
  c.rec.nacks++;
  c.rec.last_nack_epoch = c.rec.epoch;
  node().dma_arrival().fire();
}

std::uint64_t VerbsChannelBase::checked_tail(VerbsConnection& c) {
  if (!cfg_.integrity_check) return c.ctrl.tail_replica;
  const std::uint64_t t = c.ctrl.tail_replica;
  if (t > c.tail_valid) {
    charge_crc(sizeof(t));
    if (crc32c_u64(t) == static_cast<std::uint32_t>(c.ctrl.tail_replica_crc)) {
      c.tail_valid = t;
    } else {
      // A lying tail word (e.g. corrupted garbage-high) must not mint ring
      // credit.  No NACK needed: tail updates are repeated, so the next
      // clean one heals this without a round trip.
      ++stats_.crc_failures;
    }
  }
  return c.tail_valid;
}

bool VerbsChannelBase::credit_denied() {
  sim::FaultSchedule* faults = ctx_->fabric().faults();
  if (faults == nullptr) return false;
  if (!faults->check(node().name() + ".credit")) return false;
  ++stats_.credit_stalls;
  schedule_retry_wakeup();
  return true;
}

void VerbsChannelBase::schedule_retry_wakeup() {
  sim::Simulator& sim = ctx_->sim();
  ib::Node* n = &node();
  sim.call_at(sim.now() + ctx_->fabric().cfg().retry_delay,
              [n] { n->dma_arrival().fire(); });
}

bool VerbsChannelBase::peer_epoch_pending(VerbsConnection& c) const {
  const pmi::Kvs& kvs = *ctx_->kvs;
  return kvs.recovery_version() != 0 &&
         kvs.has(rec_key(c.peer, rank(), c.rec.epoch + 1));
}

bool VerbsChannelBase::peer_declared_dead(const VerbsConnection& c) const {
  const pmi::Kvs& kvs = *ctx_->kvs;
  return kvs.recovery_version() != 0 && kvs.has(dead_key(c.peer, rank()));
}

void VerbsChannelBase::wake_peer(VerbsConnection& c) {
  if (c.peer_node == nullptr) return;
  sim::Simulator& sim = ctx_->sim();
  ib::Node* peer_node = c.peer_node;
  sim.call_at(sim.now() + ctx_->fabric().cfg().wire_latency,
              [peer_node] { peer_node->dma_arrival().fire(); });
}

sim::Task<void> VerbsChannelBase::recover(VerbsConnection& c) {
  pmi::Kvs& kvs = *ctx_->kvs;
  sim::Simulator& sim = ctx_->sim();
  const std::uint64_t next_epoch = c.rec.epoch + 1;

  // A CRC-mismatch NACK colors this attempt run: should the budget run out
  // before a clean retransmission lands, the error reports an integrity
  // exhaustion rather than a transport death.
  if (c.integrity_failed) c.rec.integrity = true;

  // Watchdog episode accounting.  A fresh episode -- first attempt ever,
  // first after a progress refund, or first after a quiet gap longer than
  // the deadline window -- (re)arms the deadline; an episode still spinning
  // at its deadline is aborted here (the backoff below bounds the spacing
  // of these checks, so a spin cannot dodge the deadline for long).
  if (cfg_.recovery_epoch_deadline > 0) {
    const sim::Tick now = sim.now();
    const bool fresh = c.rec.deadline == 0 || c.rec.attempts == 0 ||
                       now - c.rec.last_attempt > cfg_.recovery_epoch_deadline;
    if (fresh) {
      c.rec.deadline = now + cfg_.recovery_epoch_deadline;
    } else if (now >= c.rec.deadline &&
               (!cfg_.health_detector ||
                c.rec.suspicion >= kHealthSuspicionTrip)) {
      // With the health detector on, the deadline alone does not convict:
      // the episode must also have accrued enough suspicion (attempts with
      // no completions decaying the score) -- the accrual-detector gate.
      ++c.rec.attempts;
      convict(c, Conviction::kWatchdog, "retry-loop");
    }
    c.rec.last_attempt = now;
    // From here on, successful completions observed by drain_cq count as
    // episode progress (partial-drain re-arm); the hint is never set on
    // the fault-free path.
    wd_hint_ = true;
    if (cfg_.health_detector) ++c.rec.suspicion;
  }

  if (++c.rec.attempts > cfg_.recovery_max_attempts) {
    convict(c, Conviction::kRetryBudget, "retry-budget");
  }

  // Bounded exponential backoff before touching the wire again.
  co_await sim.delay(capped_backoff(c.rec.attempts));

  // Tear down: error the old QP, wait until nothing it initiated can still
  // land in peer memory (the precondition for trusting replayed state),
  // then drop it from the CQE index so straggler flushes are inert.
  c.qp->close();
  co_await c.qp->quiesce();
  qp_index_.erase(c.qp->qp_num());

  // Fresh QP on the lowest live rail (rail 0 unless its port died -- a rail
  // failure is a failover, not a retry storm; with every rail dead we stay
  // on rail 0 and let the attempt budget declare the connection dead).
  // Publish my half of the epoch handshake as one record: the new QP number
  // and how much of the peer's stream I had consumed (its replay start).
  if (!c.qp->port().up()) note_rail_dead(c, c.qp->port().rail());
  c.qp = &create_rail_qp(lowest_live_rail());
  kvs.put_recovery(rec_key(rank(), c.peer, next_epoch),
                   {c.qp->qp_num(), journal_consumed(c)});
  wake_peer(c);

  // Join the peer's half -- unless it declared the connection dead, or the
  // watchdog deadline passes first (a peer that never answers must not
  // park this rank forever).
  const pmi::Record* peer = nullptr;
  if (watchdog_armed(c)) {
    peer = co_await kvs.get_unless_before(rec_key(c.peer, rank(), next_epoch),
                                          dead_key(c.peer, rank()),
                                          c.rec.deadline);
  } else {
    peer = co_await kvs.get_unless(rec_key(c.peer, rank(), next_epoch),
                                   dead_key(c.peer, rank()));
  }
  if (peer == nullptr) {
    if (!peer_declared_dead(c) && watchdog_expired(c)) {
      convict(c, Conviction::kWatchdog, "handshake");
    }
    c.rec.dead = true;
    throw ChannelError(c.peer,
                       "connection to rank " + std::to_string(c.peer) +
                           " declared dead by peer",
                       ChannelError::kDead,
                       make_snapshot(c, "peer-declared-dead"));
  }
  const auto peer_qpn = static_cast<std::uint32_t>((*peer)[0]);
  const std::uint64_t peer_consumed = (*peer)[1];

  // Same connect protocol as bootstrap: the lower rank wires the pair.
  if (rank() < c.peer) {
    ib::QueuePair* peer_qp = ctx_->fabric().find_qp(peer_qpn);
    if (peer_qp == nullptr) {
      throw std::runtime_error("recovery: peer QP not found");
    }
    c.qp->connect(*peer_qp);
  } else if (watchdog_armed(c)) {
    const bool connected = co_await c.qp->wait_connected_until(c.rec.deadline);
    if (!connected) convict(c, Conviction::kWatchdog, "connect");
  } else {
    co_await c.qp->wait_connected();
  }

  c.rec.epoch = next_epoch;
  c.rec.failed = false;
  // The NACK is consumed: the re-handshake tells the sender to retransmit
  // (replay below on its side).  A fresh mismatch on the retransmitted data
  // will re-arm it.
  c.integrity_failed = false;
  qp_index_[c.qp->qp_num()] = &c;
  ++stats_.recoveries;

  // Progress in either direction since the last epoch refunds the retry
  // budget; only consecutive *no-progress* attempts count against it.
  const std::uint64_t local_consumed = journal_consumed(c);
  if (peer_consumed > c.rec.last_synced ||
      local_consumed > c.rec.last_synced_local) {
    c.rec.attempts = 0;
    c.rec.integrity = false;
    c.rec.suspicion = 0;
    // Progress ends the watchdog episode; the next attempt re-arms afresh.
    if (cfg_.recovery_epoch_deadline > 0) {
      c.rec.deadline = sim.now() + cfg_.recovery_epoch_deadline;
    }
  }
  c.rec.last_synced = peer_consumed;
  c.rec.last_synced_local = local_consumed;

  co_await replay(c, peer_consumed);
}

sim::Task<void> VerbsChannelBase::setup_extra(VerbsConnection&,
                                              pmi::Record&) {
  co_return;
}
void VerbsChannelBase::join_extra(VerbsConnection&, const pmi::Record&) {}
sim::Task<void> VerbsChannelBase::lazy_evict_extra(VerbsConnection&) {
  co_return;
}

sim::Task<void> VerbsChannelBase::pre_progress() {
  if (cfg_.lazy_connect) co_await lazy_service();
}

void VerbsChannelBase::lz_post_mail(VerbsConnection& c, std::uint64_t op,
                                    std::uint64_t gen,
                                    std::uint64_t consumed) {
  ctx_->kvs->append(lz_mail_key(c.peer),
                    {op, static_cast<std::uint64_t>(rank()), gen, consumed});
  wake_peer(c);
}

void VerbsChannelBase::lz_activate(int peer) {
  auto it = std::lower_bound(active_.begin(), active_.end(), peer);
  if (it == active_.end() || *it != peer) active_.insert(it, peer);
}

void VerbsChannelBase::lz_deactivate(int peer) {
  auto it = std::lower_bound(active_.begin(), active_.end(), peer);
  if (it != active_.end() && *it == peer) active_.erase(it);
}

void VerbsChannelBase::lz_unpend(int peer) {
  lz_pending_.erase(std::remove(lz_pending_.begin(), lz_pending_.end(), peer),
                    lz_pending_.end());
}

sim::Task<void> VerbsChannelBase::lz_pace(VerbsConnection& c,
                                          const char* stage) {
  sim::Simulator& sim = ctx_->sim();
  if (sim.now() < c.lz_next_attempt) co_return;
  if (++c.rec.attempts > cfg_.recovery_max_attempts) {
    convict(c, Conviction::kConnectBudget, stage);
  }
  c.lz_next_attempt = sim.now() + capped_backoff(c.rec.attempts);
  // Guaranteed self-wakeup at the next pacing step: a sender whose put()
  // keeps returning 0 may have no other future event, and a parked progress
  // loop with an empty queue would otherwise be a DeadlockError.
  ib::Node* n = &node();
  sim.call_at(c.lz_next_attempt, [n] { n->dma_arrival().fire(); });
  wake_peer(c);  // re-nudge: the peer may have slept through the first one
}

sim::Task<bool> VerbsChannelBase::setup_half(VerbsConnection& c) {
  if (c.lz_local_ready) co_return true;
  std::uint64_t ring_rkey = 0;
  if (srq_pool_.configured()) {
    std::byte* lease = srq_pool_.acquire();
    if (lease == nullptr) {
      // Shared-pool exhaustion maps onto the credit-denial degradation
      // path: backpressure (the requester stays cold, a delayed wakeup
      // retries), never a deadlock.
      ++stats_.credit_stalls;
      schedule_retry_wakeup();
      co_return false;
    }
    c.rx = lease;
    c.ring_pooled = true;
    ring_rkey = srq_mr_->rkey();
  } else {
    c.recv_ring.resize(kRingBytes);
    c.rx = c.recv_ring.data();
    c.ring_mr = co_await pd_->register_memory(c.rx, kRingBytes,
                                              ib::kAllAccess);
    ring_rkey = c.ring_mr->rkey();
  }
  ready_recv_ring(c.rx, cfg_.chunk_bytes);
  c.staging.resize(kRingBytes);
  c.staging_mr = co_await pd_->register_memory(c.staging.data(),
                                               c.staging.size(),
                                               ib::kAllAccess);
  c.ctrl = CtrlBlock{};
  c.ctrl_mr = co_await pd_->register_memory(&c.ctrl, sizeof(CtrlBlock),
                                            ib::kAllAccess);
  c.qp = &create_rail_qp(lowest_live_rail());
  pmi::Record ep{c.qp->qp_num(), reinterpret_cast<std::uint64_t>(c.rx),
                 ring_rkey, reinterpret_cast<std::uint64_t>(&c.ctrl),
                 c.ctrl_mr->rkey()};
  co_await setup_extra(c, ep);
  ctx_->kvs->put(endpoint_key(rank(), c.peer, c.lz_gen), std::move(ep));
  c.lz_local_ready = true;
  wake_peer(c);
  co_return true;
}

void VerbsChannelBase::join_half(VerbsConnection& c, const pmi::Record& ep) {
  c.r_ring_addr = ep[kEpRingAddr];
  c.r_ring_rkey = static_cast<std::uint32_t>(ep[kEpRingRkey]);
  c.r_ctrl_addr = ep[kEpCtrlAddr];
  c.r_ctrl_rkey = static_cast<std::uint32_t>(ep[kEpCtrlRkey]);
  // Design extras (auxiliary QPs) wire first; the main QP connect is the
  // commit point a lazy higher rank polls.
  join_extra(c, ep);
  if (rank() > c.peer) return;  // the lower rank wires the pair
  ib::QueuePair* peer_qp =
      ctx_->fabric().find_qp(static_cast<std::uint32_t>(ep[kEpQpn]));
  if (peer_qp == nullptr) {
    throw std::runtime_error("connect: peer QP not found");
  }
  c.qp->connect(*peer_qp);
  wake_peer(c);
}

sim::Task<void> VerbsChannelBase::lazy_advance(VerbsConnection& c) {
  if (c.boot != VerbsConnection::Boot::kRequested) co_return;
  if (peer_declared_dead(c)) {
    // The peer died mid-handshake; its verdict surfaces at the next
    // put/get on this connection.  Local registrations (if any) are
    // reclaimed at finalize.
    c.rec.dead = true;
    lz_unpend(c.peer);
    co_return;
  }
  const bool have_local = co_await setup_half(c);
  if (!have_local) co_return;
  const pmi::Record* ep =
      ctx_->kvs->find(endpoint_key(c.peer, rank(), c.lz_gen));
  if (ep == nullptr) co_return;  // peer half not published yet
  // The higher rank joins once the lower one has connected the pair.
  if (rank() > c.peer && !c.qp->connected()) co_return;
  join_half(c, *ep);
  c.peer_node = &c.qp->peer()->node();
  qp_index_[c.qp->qp_num()] = &c;
  c.boot = VerbsConnection::Boot::kReady;
  c.rec.attempts = 0;
  lz_unpend(c.peer);
  lz_activate(c.peer);
  ++qps_live_;
  ++stats_.connects_on_demand;
  // Evict/reconnect ping-pong: re-wiring a peer this rank itself evicted
  // within the last qp_budget evictions means the working set (for the
  // tree collectives, 2*log2(p) dissemination peers) exceeds the budget --
  // every round now pays a teardown it immediately undoes.
  if (c.lz_evicted_at != 0 && cfg_.qp_budget > 0 &&
      lz_evict_seq_ - c.lz_evicted_at <
          static_cast<std::uint64_t>(cfg_.qp_budget)) {
    ++stats_.qp_thrash;
    if (!qp_thrash_warned_) {
      qp_thrash_warned_ = true;
      std::fprintf(stderr,
                   "rdmach: rank %d qp_budget=%d thrashes: peer %d "
                   "re-wired %llu evictions after this rank evicted it "
                   "(working set exceeds the budget; raise qp_budget)\n",
                   rank(), cfg_.qp_budget, c.peer,
                   static_cast<unsigned long long>(lz_evict_seq_ -
                                                   c.lz_evicted_at));
    }
  }
  c.lz_evicted_at = 0;
  lz_touch(c);
}

sim::Task<void> VerbsChannelBase::lazy_teardown(VerbsConnection& c) {
  if (c.qp != nullptr) {
    // close + quiesce: after this, nothing this half ever posted can still
    // land in peer memory (the same precondition recovery relies on).
    c.qp->close();
    co_await c.qp->quiesce();
    qp_index_.erase(c.qp->qp_num());
  }
  co_await lazy_evict_extra(c);
  if (c.staging_mr != nullptr) {
    co_await pd_->deregister(c.staging_mr);
    c.staging_mr = nullptr;
  }
  if (c.ctrl_mr != nullptr) {
    co_await pd_->deregister(c.ctrl_mr);
    c.ctrl_mr = nullptr;
  }
  if (c.ring_pooled) {
    srq_pool_.release(c.rx);
    c.ring_pooled = false;
  } else if (c.ring_mr != nullptr) {
    co_await pd_->deregister(c.ring_mr);
  }
  c.ring_mr = nullptr;
  c.rx = nullptr;
  sim::UninitBytes().swap(c.recv_ring);
  sim::UninitBytes().swap(c.staging);
  // The journal restarts from zero on both sides symmetrically; eviction
  // only ever fires on a fully-drained, fully-acknowledged connection, so
  // this loses bookkeeping, not data.
  c.ctrl = CtrlBlock{};
  c.send_crc = 0;
  c.recv_crc = 0;
  c.verified_head = 0;
  c.tail_valid = 0;
  c.integrity_failed = false;
  lazy_reset_journal(c);
  c.rec.failed = false;
  c.rec.attempts = 0;
  c.rec.integrity = false;
  c.rec.deadline = 0;
  c.rec.last_synced = 0;
  c.rec.last_synced_local = 0;
  // rec.epoch survives (see VerbsConnection::lz_gen comment).
  c.lz_local_ready = false;
  c.lz_flush_asks = 0;
  ++c.lz_gen;
  c.boot = VerbsConnection::Boot::kCold;
  lz_deactivate(c.peer);
  --qps_live_;
}

sim::Task<void> VerbsChannelBase::lazy_maybe_evict() {
  if (lz_evict_peer_ >= 0) co_return;
  const bool over_budget =
      cfg_.qp_budget > 0 &&
      qps_live_ > static_cast<std::uint64_t>(cfg_.qp_budget);
  // Shared-pool pressure: a requested-but-cold peer is stalled waiting for
  // a receive-ring lease.  Evicting an idle lease-holder is the only way
  // it can ever wire, so pool exhaustion degrades to backpressure (the
  // stalled side retries on its wakeup) instead of deadlock, even when the
  // QP budget itself is not exceeded.
  const bool pool_pressure = srq_pool_.configured() &&
                             srq_pool_.free_rings() == 0 &&
                             !lz_pending_.empty();
  if (!over_budget && !pool_pressure) co_return;
  // LRU scan over the wired set (bounded by qp_budget + 1 entries, never
  // the rank dimension).  A connection with outstanding journal state, a
  // recovery in flight, or a design veto (open rendezvous) is pinned.
  VerbsConnection* victim = nullptr;
  // LRU connection pinned only by the peer's deferred consumption ack.
  VerbsConnection* ack_pinned = nullptr;
  for (int p : active_) {
    if (p == lz_protect_) continue;  // the caller is mid-op on this peer
    VerbsConnection& c = *conns_[static_cast<std::size_t>(p)];
    if (c.boot != VerbsConnection::Boot::kReady || c.rec.failed ||
        c.rec.dead || c.integrity_failed || peer_epoch_pending(c) ||
        !lazy_evictable(c)) {
      continue;
    }
    if (!over_budget && !c.ring_pooled) continue;  // must free a lease
    if (journal_acked(c) != journal_produced(c)) {
      if (ack_pinned == nullptr || c.lz_last_used < ack_pinned->lz_last_used) {
        ack_pinned = &c;
      }
      continue;
    }
    c.lz_flush_asks = 0;  // the pin cleared: a new one starts a new series
    if (victim == nullptr || c.lz_last_used < victim->lz_last_used) {
      victim = &c;
    }
  }
  if (victim == nullptr) {
    // Soft budget: nothing evictable now.  An idle peer that owes its ack
    // never sends it on its own (it is not under pressure), so ask -- with
    // backoff, not once per service pass, and again later in case it had
    // not consumed everything yet.  A kReady connection has no handshake
    // to pace, so lz_next_attempt paces these requests.
    const sim::Tick now = ctx_->sim().now();
    VerbsConnection* a = ack_pinned;
    if (a != nullptr && now >= a->lz_next_attempt) {
      if (a->lz_flush_asks < UINT8_MAX) ++a->lz_flush_asks;
      a->lz_next_attempt = now + capped_backoff(a->lz_flush_asks);
      lz_post_mail(*a, kLzFlush, a->lz_gen);
    }
    co_return;
  }
  VerbsConnection& v = *victim;
  v.boot = VerbsConnection::Boot::kEvictWait;
  v.rec.attempts = 0;
  v.lz_next_attempt = ctx_->sim().now();
  // Thrash-window stamp: if this rank re-wires the same peer within the
  // next qp_budget evictions, the LRU threw away a connection the working
  // set still needed (see the qp_thrash accounting in lazy_advance).
  v.lz_evicted_at = ++lz_evict_seq_;
  lz_evict_peer_ = v.peer;
  lz_post_mail(v, kLzEvict, v.lz_gen, journal_consumed(v));
}

sim::Task<void> VerbsChannelBase::lz_handle_mail(std::uint64_t op, int from,
                                                 std::uint64_t gen,
                                                 std::uint64_t consumed) {
  VerbsConnection& c = *conns_[static_cast<std::size_t>(from)];
  using Boot = VerbsConnection::Boot;
  switch (op) {
    case kLzConnect:
      // Connect request: the passive side joins the rendezvous.  A stale
      // generation, or a connection we already consider requested/wired,
      // needs no action (both sides may initiate simultaneously).
      if (gen == c.lz_gen && c.boot == Boot::kCold) {
        c.boot = Boot::kRequested;
        c.rec.attempts = 0;
        c.lz_next_attempt = ctx_->sim().now();
        lz_pending_.push_back(from);
        co_await lazy_advance(c);
      }
      co_return;
    case kLzEvict: {
      if (gen != c.lz_gen) {
        lz_post_mail(c, kLzNak, gen);
        co_return;
      }
      if (c.boot == Boot::kEvictWait) {
        // Mutual eviction: both sides requested; each treats the other's
        // request as the acknowledgement.
        co_await lazy_teardown(c);
        ++stats_.qps_evicted;
        if (lz_evict_peer_ == from) lz_evict_peer_ = -1;
        co_return;
      }
      // Safe to honour only when this direction is drained too: everything
      // I produced was consumed (the initiator's claim must match my
      // produced count -- it diverges if I produced more since), and the
      // initiator's tail acknowledgements have all landed in my control
      // block (journal_acked == journal_produced rules out an in-flight
      // ctrl write hitting memory I am about to deregister).
      const bool ok =
          c.boot == Boot::kReady && !c.rec.failed && !c.rec.dead &&
          !c.integrity_failed && !peer_epoch_pending(c) &&
          lazy_evictable(c) && consumed == journal_produced(c) &&
          journal_acked(c) == journal_produced(c);
      if (!ok) {
        lz_post_mail(c, kLzNak, gen);
        co_return;
      }
      co_await lazy_teardown(c);
      ++stats_.qps_evicted;
      // Acknowledge only after the teardown's quiesce: when the initiator
      // processes this, nothing of ours can still be in flight toward it.
      lz_post_mail(c, kLzAck, gen);
      co_return;
    }
    case kLzAck:
      if (gen == c.lz_gen && c.boot == Boot::kEvictWait) {
        co_await lazy_teardown(c);
        ++stats_.qps_evicted;
      }
      if (lz_evict_peer_ == from) lz_evict_peer_ = -1;
      co_return;
    case kLzNak:
      if (gen == c.lz_gen && c.boot == Boot::kEvictWait) {
        c.boot = Boot::kReady;
        c.lz_evicted_at = 0;  // eviction refused: no teardown, no thrash
        lz_touch(c);          // do not immediately re-pick the same victim
      }
      if (lz_evict_peer_ == from) lz_evict_peer_ = -1;
      co_return;
    case kLzFlush:
      // The peer's eviction scan is blocked on my deferred ack alone.
      if (gen == c.lz_gen && c.boot == Boot::kReady) lazy_flush_acks(c);
      co_return;
    default:
      co_return;
  }
}

sim::Task<void> VerbsChannelBase::lazy_service() {
  if (lz_service_busy_) co_return;
  lz_service_busy_ = true;
  std::exception_ptr err;
  try {
    if (lz_mail_ == nullptr) lz_mail_ = &ctx_->kvs->mail(lz_mail_key(rank()));
    const std::vector<pmi::Record>& box = *lz_mail_;
    while (lz_mail_cursor_ < box.size()) {
      // Words are copied into the handler's frame before it can suspend
      // (an append during the suspension may reallocate `box`).
      const pmi::Record& m = box[lz_mail_cursor_];
      ++lz_mail_cursor_;
      co_await lz_handle_mail(m[0], static_cast<int>(m[1]), m[2], m[3]);
    }
    if (!lz_pending_.empty()) {
      const std::vector<int> pending = lz_pending_;
      for (int p : pending) {
        co_await lazy_advance(*conns_[static_cast<std::size_t>(p)]);
      }
    }
    // Under cache pressure, flush deferred consumption acks on every wired
    // connection.  A deferred ack pins the peer's journal: at scale the
    // pressure is symmetric (both sides over budget), so flushing here is
    // what lets peers retire their half of idle connections -- and their
    // flushes unpin ours.
    if ((cfg_.qp_budget > 0 &&
         qps_live_ > static_cast<std::uint64_t>(cfg_.qp_budget)) ||
        (srq_pool_.configured() && srq_pool_.free_rings() == 0 &&
         !lz_pending_.empty())) {
      for (int p : active_) {
        VerbsConnection& c = *conns_[static_cast<std::size_t>(p)];
        if (c.boot == VerbsConnection::Boot::kReady) lazy_flush_acks(c);
      }
    }
    co_await lazy_maybe_evict();
  } catch (...) {
    err = std::current_exception();
  }
  lz_service_busy_ = false;
  if (err) std::rethrow_exception(err);
}

namespace {
/// Pins a peer against eviction for the duration of an ensure_* call.
struct [[nodiscard]] EvictShield {
  int& slot;
  int prev;
  EvictShield(int& s, int peer) : slot(s), prev(s) { s = peer; }
  ~EvictShield() { slot = prev; }
};
}  // namespace

sim::Task<bool> VerbsChannelBase::ensure_tx(VerbsConnection& c) {
  if (!cfg_.lazy_connect) co_return true;
  using Boot = VerbsConnection::Boot;
  EvictShield shield(lz_protect_, c.peer);
  co_await lazy_service();
  if (c.boot == Boot::kReady) {
    lz_touch(c);
    co_return true;
  }
  if (c.boot == Boot::kEvictWait) {
    // No new journal entries while the evict handshake is in flight, but
    // recovery stays serviced (the peer's answer may depend on it) and the
    // wait is paced/bounded so a silently dead peer cannot park us.
    co_await maybe_recover(c);
    co_await lz_pace(c, "evict-wait");
    co_return false;
  }
  if (c.boot == Boot::kCold) {
    c.boot = Boot::kRequested;
    c.rec.attempts = 0;
    c.lz_next_attempt = ctx_->sim().now();
    lz_pending_.push_back(c.peer);
    lz_post_mail(c, kLzConnect, c.lz_gen);
    co_await lazy_advance(c);
    if (c.boot == Boot::kReady) co_return true;  // peer half was waiting
  }
  throw_if_dead(c, "lazy-connect:dead");
  obit_fast_fail(c, "lazy-connect");
  co_await lz_pace(c, "connect-budget");
  co_return false;
}

sim::Task<bool> VerbsChannelBase::ensure_rx(VerbsConnection& c) {
  if (!cfg_.lazy_connect) co_return true;
  using Boot = VerbsConnection::Boot;
  EvictShield shield(lz_protect_, c.peer);
  co_await lazy_service();
  if (c.boot == Boot::kReady || c.boot == Boot::kEvictWait) {
    lz_touch(c);
    co_return true;
  }
  // Passive: never initiate -- but surface a dead sender so a receive from
  // a killed never-connected rank fails instead of spinning.
  throw_if_dead(c, "lazy-accept:dead");
  obit_fast_fail(c, "lazy-accept");
  co_return false;
}

sim::Task<void> VerbsChannelBase::copy_in(VerbsConnection& c,
                                          std::uint64_t ring_pos,
                                          std::span<const ConstIov> iovs,
                                          std::size_t iov_off, std::size_t n,
                                          std::size_t ws) {
  const std::size_t R = kRingBytes;
  std::size_t iv = 0;
  std::size_t skipped = 0;
  // Locate the iov containing iov_off.
  while (iv < iovs.size() && skipped + iovs[iv].len <= iov_off) {
    skipped += iovs[iv].len;
    ++iv;
  }
  std::size_t in_iov = iov_off - skipped;
  while (n > 0 && iv < iovs.size()) {
    const std::size_t off = static_cast<std::size_t>(ring_pos % R);
    std::size_t piece = std::min({n, iovs[iv].len - in_iov, R - off});
    co_await node().copy(c.staging.data() + off, iovs[iv].base + in_iov,
                         piece, ws);
    ring_pos += piece;
    in_iov += piece;
    n -= piece;
    if (in_iov == iovs[iv].len) {
      ++iv;
      in_iov = 0;
    }
  }
}

sim::Task<void> VerbsChannelBase::copy_out(VerbsConnection& c,
                                           std::uint64_t ring_pos,
                                           std::span<const Iov> iovs,
                                           std::size_t iov_off, std::size_t n,
                                           std::size_t ws) {
  const std::size_t R = kRingBytes;
  std::size_t iv = 0;
  std::size_t skipped = 0;
  while (iv < iovs.size() && skipped + iovs[iv].len <= iov_off) {
    skipped += iovs[iv].len;
    ++iv;
  }
  std::size_t in_iov = iov_off - skipped;
  while (n > 0 && iv < iovs.size()) {
    const std::size_t off = static_cast<std::size_t>(ring_pos % R);
    std::size_t piece = std::min({n, iovs[iv].len - in_iov, R - off});
    co_await node().copy(iovs[iv].base + in_iov, c.rx + off, piece, ws);
    ring_pos += piece;
    in_iov += piece;
    n -= piece;
    if (in_iov == iovs[iv].len) {
      ++iv;
      in_iov = 0;
    }
  }
}

}  // namespace rdmach
