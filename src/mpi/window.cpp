#include "mpi/window.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "ib/hca.hpp"
#include "ib/node.hpp"
#include "pmi/pmi.hpp"

namespace mpi {

Window::Window(Communicator& comm, void* base, std::size_t bytes)
    : comm_(&comm), base_(static_cast<std::byte*>(base)), bytes_(bytes) {}

Window::~Window() {
  if (pd_ == nullptr) return;  // the fabric, and every QP, is gone already
  pd_->set_holder(nullptr);
  // The exposed memory and ctrl_ may be freed right after this: an access
  // that reaches either later, a put already on the wire included, must
  // fail at its origin with a remote access error instead of landing.
  if (mr_ != nullptr && mr_->valid()) pd_->invalidate(mr_);
  if (ctrl_mr_ != nullptr && ctrl_mr_->valid()) pd_->invalidate(ctrl_mr_);
}

sim::Task<std::unique_ptr<Window>> Window::create(Communicator& comm,
                                                  void* base,
                                                  std::size_t bytes) {
  auto win = std::unique_ptr<Window>(new Window(comm, base, bytes));
  co_await win->init();
  co_return win;
}

sim::Task<void> Window::init() {
  Engine& eng = comm_->engine();
  pmi::Context& ctx = eng.ctx();
  pmi::Kvs& kvs = *ctx.kvs;
  const int p = comm_->size();
  const int me = comm_->rank();

  // All members agree on a fresh window id (same trick as comm split).
  std::uint64_t local_seq = ++win_seq_counter();
  std::uint64_t agreed = 0;
  co_await comm_->allreduce(&local_seq, &agreed, 1, Datatype::kLong,
                            Op::kMax);
  win_id_ = (comm_->context() << 20) | agreed;

  pd_ = &ctx.node->hca().alloc_pd();
  pd_->set_holder(&pd_);
  cq_ = &ctx.node->hca().create_cq("win" + std::to_string(win_id_) + ".cq");
  watchdog_->arrival = &cq_->arrival();
  mr_ = co_await pd_->register_memory(base_, bytes_, ib::kAllAccess);
  cache_ = std::make_unique<rdmach::RegCache>(*pd_, rdmach::kRegCacheCapacity,
                                              true);

  // Control block: accumulate lock word, CAS scratch, inbound notify
  // counters by origin, and a ring of outbound notify flag sources (each
  // flag write needs a registered 8-byte source that stays stable until
  // its CQE retires it -- see the layout comment in the header).
  ctrl_.assign(2 + static_cast<std::size_t>(p) + kNotifySlots, 0);
  notify_busy_.assign(kNotifySlots, 0);
  ctrl_mr_ = co_await pd_->register_memory(ctrl_.data(), ctrl_.size() * 8,
                                           ib::kAllAccess);

  peers_.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    peers_[static_cast<std::size_t>(r)].qp =
        &ctx.node->hca().create_qp(*pd_, *cq_, *cq_);
  }

  // One descriptor record per rank: addr, size, rkey, caddr, ckey, then
  // the QPN of the QP this rank created for each peer (0 for itself).
  auto key = [this](int rank) {
    return "win:" + std::to_string(win_id_) + ":" + std::to_string(rank);
  };
  pmi::Record desc{reinterpret_cast<std::uint64_t>(base_), bytes_,
                   mr_->rkey(), reinterpret_cast<std::uint64_t>(ctrl_.data()),
                   ctrl_mr_->rkey()};
  for (const Peer& peer : peers_) {
    desc.push_back(peer.qp == nullptr ? 0 : peer.qp->qp_num());
  }
  kvs.put(key(me), std::move(desc));

  for (int r = 0; r < p; ++r) {
    if (r == me) continue;
    Peer& peer = peers_[static_cast<std::size_t>(r)];
    const pmi::Record& rdesc = *co_await kvs.get(key(r));
    peer.raddr = rdesc[0];
    peer.rbytes = rdesc[1];
    peer.rkey = static_cast<std::uint32_t>(rdesc[2]);
    peer.ctrl_raddr = rdesc[3];
    peer.ctrl_rkey = static_cast<std::uint32_t>(rdesc[4]);
    if (me < r) {
      const auto peer_qpn = static_cast<std::uint32_t>(
          rdesc[5 + static_cast<std::size_t>(me)]);
      peer.qp->connect(*ctx.fabric().find_qp(peer_qpn));
    }
  }
  co_await comm_->barrier();
}

std::uint64_t& Window::win_seq_counter() {
  static std::uint64_t counter = 0;
  return counter;
}

// ---- issue ------------------------------------------------------------------

ib::SendWr Window::build_wr(std::uint64_t wr_id, const OpRecord& rec) const {
  ib::SendWr wr;
  wr.wr_id = wr_id;
  wr.opcode = rec.op;
  wr.remote_addr = rec.remote_addr;
  wr.rkey = rec.rkey;
  wr.signaled = true;
  wr.atomic_arg = rec.atomic_arg;
  wr.atomic_swap = rec.atomic_swap;
  wr.sgl = {ib::Sge{rec.local, rec.len, rec.lkey}};
  return wr;
}

std::uint64_t Window::post_op(OpRecord rec) {
  Peer& peer = peers_.at(static_cast<std::size_t>(rec.target));
  const std::uint64_t wr_id = ++wr_seq_;
  peer.qp->post_send(build_wr(wr_id, rec));
  ++peer.outstanding;
  journal_.emplace(wr_id, std::move(rec));
  return wr_id;
}

int Window::alloc_notify_slot() {
  for (std::size_t i = 0; i < notify_busy_.size(); ++i) {
    if (notify_busy_[i] == 0) {
      notify_busy_[i] = 1;
      return static_cast<int>(i);
    }
  }
  return -1;
}

sim::Task<ib::Wc> Window::rma_sync(OpRecord rec) {
  const int target = rec.target;
  for (;;) {
    const std::uint64_t id = ++wr_seq_;
    sync_wait_id_ = id;
    sync_wc_.reset();
    peers_.at(static_cast<std::size_t>(target)).qp->post_send(
        build_wr(id, rec));
    sim::Tick deadline = arm_deadline();
    std::optional<ib::Wc> got;
    for (;;) {
      drain_cq();
      if (sync_wc_ && sync_wc_->wr_id == id) {
        got = *sync_wc_;
        sync_wc_.reset();
        break;
      }
      co_await watchdog_wait(deadline, target, "window:watchdog:sync");
    }
    sync_wait_id_ = 0;
    if (got->status == ib::WcStatus::kSuccess) {
      peers_[static_cast<std::size_t>(target)].attempts = 0;
      co_return *got;
    }
    co_await recover(target);  // throws when the target is beyond recovery
  }
}

// ---- data ops ---------------------------------------------------------------

void Window::check_range(int target, std::size_t disp,
                         std::size_t len) const {
  // create() takes per-rank bytes, so windows may be asymmetric: validate
  // against the *target's* exposed size (exchanged at create), not ours --
  // otherwise a legal access to a larger remote window throws and an
  // out-of-range access to a smaller one surfaces as a remote-access CQE
  // plus QP recovery churn instead of a clean local error.
  const std::size_t limit =
      target == comm_->rank()
          ? bytes_
          : static_cast<std::size_t>(
                peers_[static_cast<std::size_t>(target)].rbytes);
  if (disp + len > limit) {
    throw MpiError("one-sided access outside the target window");
  }
}

sim::Task<void> Window::put(const void* origin, int count, Datatype d,
                            int target, std::size_t disp) {
  const std::size_t len = static_cast<std::size_t>(count) * datatype_size(d);
  check_range(target, disp, len);
  ++stats_.puts;
  if (target == comm_->rank()) {
    co_await comm_->engine().ctx().node->copy(base_ + disp, origin, len);
    co_return;
  }
  ft_entry(target);
  Peer& peer = peers_[static_cast<std::size_t>(target)];
  ib::MemoryRegion* mr = co_await cache_->acquire(origin, len);
  OpRecord rec;
  rec.target = target;
  rec.op = ib::Opcode::kRdmaWrite;
  rec.local = static_cast<std::byte*>(const_cast<void*>(origin));
  rec.len = len;
  rec.remote_addr = peer.raddr + disp;
  rec.rkey = peer.rkey;
  rec.lkey = mr->lkey();
  rec.mr = mr;
  post_op(std::move(rec));
}

sim::Task<void> Window::get(void* origin, int count, Datatype d, int target,
                            std::size_t disp) {
  const std::size_t len = static_cast<std::size_t>(count) * datatype_size(d);
  check_range(target, disp, len);
  ++stats_.gets;
  if (target == comm_->rank()) {
    co_await comm_->engine().ctx().node->copy(origin, base_ + disp, len);
    co_return;
  }
  ft_entry(target);
  Peer& peer = peers_[static_cast<std::size_t>(target)];
  ib::MemoryRegion* mr = co_await cache_->acquire(origin, len);
  OpRecord rec;
  rec.target = target;
  rec.op = ib::Opcode::kRdmaRead;
  rec.local = static_cast<std::byte*>(origin);
  rec.len = len;
  rec.remote_addr = peer.raddr + disp;
  rec.rkey = peer.rkey;
  rec.lkey = mr->lkey();
  rec.mr = mr;
  post_op(std::move(rec));
}

sim::Task<void> Window::put_notify(const void* origin, int count, Datatype d,
                                   int target, std::size_t disp) {
  co_await put(origin, count, d, target, disp);
  const int me = comm_->rank();
  if (target == me) {
    ctrl_[2 + static_cast<std::size_t>(me)] += 1;
    // Remote flags wake waiters through the inbound-DMA trigger; a local
    // bump must do the same or a coroutine already blocked in
    // wait_notify(me, ...) never re-evaluates its predicate.
    comm_->engine().ctx().node->dma_arrival().fire();
    co_return;
  }
  Peer& peer = peers_[static_cast<std::size_t>(target)];
  ++peer.notify_out;
  // The flag travels on the same QP *after* the data; RC in-order delivery
  // makes it visible only once the data landed.  The value is an absolute
  // sequence number, so replay after recovery is idempotent.  Each
  // in-flight flag owns its own registered source slot until the CQE
  // retires it: the HCA gathers the source at WQE-processing time, so a
  // shared slot would let a later put_notify's count ride the earlier
  // flag write.  Ring exhaustion falls back to draining (every retired op
  // frees its slot).
  int slot = alloc_notify_slot();
  if (slot < 0) {
    co_await drain_target(target);
    slot = alloc_notify_slot();
  }
  if (slot < 0) {
    co_await drain_target(-1);  // empties the journal: every slot frees
    slot = alloc_notify_slot();
  }
  const std::size_t out_slot = 2 + peers_.size() + static_cast<std::size_t>(slot);
  ctrl_[out_slot] = peer.notify_out;
  OpRecord rec;
  rec.target = target;
  rec.op = ib::Opcode::kRdmaWrite;
  rec.local = reinterpret_cast<std::byte*>(&ctrl_[out_slot]);
  rec.len = 8;
  rec.remote_addr = peer.ctrl_raddr + (2 + static_cast<std::size_t>(me)) * 8;
  rec.rkey = peer.ctrl_rkey;
  rec.lkey = ctrl_mr_->lkey();
  rec.notify_slot = slot;
  post_op(std::move(rec));
}

sim::Task<void> Window::wait_notify(int origin, std::uint64_t count) {
  // Inbound flag writes land in ctrl_ and fire this node's dma_arrival.
  sim::Trigger& t = comm_->engine().ctx().node->dma_arrival();
  co_await sim::wait_until(t, [this, origin, count] {
    return ctrl_[2 + static_cast<std::size_t>(origin)] >= count;
  });
}

std::uint64_t Window::notify_count(int origin) const {
  return ctrl_[2 + static_cast<std::size_t>(origin)];
}

sim::Task<void> Window::accumulate(const void* origin, int count, Datatype d,
                                   Op op, int target, std::size_t disp) {
  const std::size_t len = static_cast<std::size_t>(count) * datatype_size(d);
  check_range(target, disp, len);
  ++stats_.atomics;
  if (target == comm_->rank()) {
    // Participate in the same lock protocol as remote origins.  A remote
    // RMW holds our lock word across its read/modify/write; this local
    // check-and-apply runs in one coroutine step (no suspension), so once
    // the word reads free the update is atomic with the check.
    sim::Simulator& lsim = comm_->engine().ctx().sim();
    sim::Tick ldeadline = arm_deadline();
    std::uint64_t lowner = ctrl_[0];
    while (ctrl_[0] != 0) {
      ++stats_.lock_spins;
      if (ctrl_[0] != lowner) {
        // The lock moved to a new holder: the queue is making progress, so
        // re-arm (expiry is reserved for a holder that never budges).
        lowner = ctrl_[0];
        ldeadline = arm_deadline();
      } else if (lsim.now() >= ldeadline) {
        throw rdmach::ChannelError(
            target, "accumulate: window RMW lock never released",
            rdmach::ChannelError::kDead);
      }
      co_await lsim.delay(sim::usec(1));
    }
    apply_op(op, d, origin, base_ + disp, count);
    co_return;
  }
  ft_entry(target);
  Peer& peer = peers_[static_cast<std::size_t>(target)];
  sim::Simulator& sim = comm_->engine().ctx().sim();
  const std::uint64_t my_tag = static_cast<std::uint64_t>(comm_->rank()) + 1;

  // Acquire the target's window RMW lock: HCA compare-and-swap on the
  // control block's lock word serializes conflicting accumulates from any
  // set of origins (this is what makes the old racy read-modify-write
  // emulation safe).
  sim::Tick deadline = arm_deadline();
  std::uint64_t owner = 0;
  bool owner_seen = false;
  for (;;) {
    OpRecord cas;
    cas.target = target;
    cas.op = ib::Opcode::kCompareSwap;
    cas.local = reinterpret_cast<std::byte*>(&ctrl_[1]);
    cas.len = 8;
    cas.remote_addr = peer.ctrl_raddr;
    cas.rkey = peer.ctrl_rkey;
    cas.lkey = ctrl_mr_->lkey();
    cas.atomic_arg = 0;
    cas.atomic_swap = my_tag;
    (void)co_await rma_sync(std::move(cas));
    if (ctrl_[1] == 0) break;  // prior value was "free": lock is ours
    ++stats_.lock_spins;
    if (!owner_seen || ctrl_[1] != owner) {
      // A different holder since we last looked: the lock queue is making
      // progress, so re-arm the watchdog -- under healthy contention
      // (many origins rotating through the lock) the total wait can
      // legitimately exceed one fixed deadline.  A holder that never
      // budges still expires it.
      owner = ctrl_[1];
      owner_seen = true;
      deadline = arm_deadline();
    } else if (sim.now() >= deadline) {
      throw rdmach::ChannelError(
          target, "accumulate: window RMW lock never released",
          rdmach::ChannelError::kDead);
    }
    co_await sim.delay(sim::usec(1));  // deterministic retry pacing
  }

  // Read-modify-write under the lock.  A failure in here (retry budget,
  // watchdog, obituary conviction) must not leak the remote lock word:
  // healthy origins accumulating to a live target would spin until their
  // own watchdog and raise a false kDead.  co_await is illegal inside a
  // catch handler, so capture the exception and clean up after.
  std::vector<std::byte> tmp(len);
  ib::MemoryRegion* mr = nullptr;
  std::exception_ptr failure;
  try {
    mr = co_await cache_->acquire(tmp.data(), len);
    OpRecord rd;
    rd.target = target;
    rd.op = ib::Opcode::kRdmaRead;
    rd.local = tmp.data();
    rd.len = len;
    rd.remote_addr = peer.raddr + disp;
    rd.rkey = peer.rkey;
    rd.lkey = mr->lkey();
    (void)co_await rma_sync(std::move(rd));
    apply_op(op, d, origin, tmp.data(), count);
    OpRecord wb;
    wb.target = target;
    wb.op = ib::Opcode::kRdmaWrite;
    wb.local = tmp.data();
    wb.len = len;
    wb.remote_addr = peer.raddr + disp;
    wb.rkey = peer.rkey;
    wb.lkey = mr->lkey();
    (void)co_await rma_sync(std::move(wb));
  } catch (...) {
    failure = std::current_exception();
  }
  if (mr != nullptr) {
    try {
      co_await cache_->release(mr);
    } catch (...) {
      if (!failure) failure = std::current_exception();
    }
  }

  // Release the lock: only the holder writes it, so a plain RDMA write of
  // zero suffices (and is idempotent under replay).  On the failure path
  // this is best-effort with one fresh recovery budget -- the 8-byte
  // write is cheap, and if the target is genuinely dead the attempt fails
  // fast off the obituary board or burns one budget round; the original
  // error still propagates.
  if (failure) peer.attempts = 0;
  ctrl_[1] = 0;
  try {
    OpRecord unlock;
    unlock.target = target;
    unlock.op = ib::Opcode::kRdmaWrite;
    unlock.local = reinterpret_cast<std::byte*>(&ctrl_[1]);
    unlock.len = 8;
    unlock.remote_addr = peer.ctrl_raddr;
    unlock.rkey = peer.ctrl_rkey;
    unlock.lkey = ctrl_mr_->lkey();
    (void)co_await rma_sync(std::move(unlock));
  } catch (...) {
    if (!failure) throw;  // RMW succeeded: the unlock failure is primary
  }
  if (failure) std::rethrow_exception(failure);
}

sim::Task<std::int64_t> Window::fetch_add(int target, std::size_t disp,
                                          std::int64_t value) {
  check_range(target, disp, 8);
  ++stats_.atomics;
  if (target == comm_->rank()) {
    auto* p = reinterpret_cast<std::int64_t*>(base_ + disp);
    const std::int64_t old = *p;
    *p += value;
    co_return old;
  }
  ft_entry(target);
  Peer& peer = peers_[static_cast<std::size_t>(target)];
  std::uint64_t old = 0;
  ib::MemoryRegion* mr = co_await cache_->acquire(&old, 8);
  OpRecord rec;
  rec.target = target;
  rec.op = ib::Opcode::kFetchAdd;
  rec.local = reinterpret_cast<std::byte*>(&old);
  rec.len = 8;
  rec.remote_addr = peer.raddr + disp;
  rec.rkey = peer.rkey;
  rec.lkey = mr->lkey();
  rec.atomic_arg = static_cast<std::uint64_t>(value);
  (void)co_await rma_sync(std::move(rec));
  co_await cache_->release(mr);
  co_return static_cast<std::int64_t>(old);
}

// ---- completion / recovery --------------------------------------------------

void Window::process_wc(const ib::Wc& wc) {
  auto it = journal_.find(wc.wr_id);
  if (it == journal_.end()) {
    // Not journalled: either the rma_sync rendezvous, or a stale CQE of a
    // journal entry that was re-keyed for replay (its original delivery is
    // idempotent; drop it).
    if (sync_wait_id_ != 0 && wc.wr_id == sync_wait_id_) sync_wc_ = wc;
    return;
  }
  OpRecord& rec = it->second;
  Peer& peer = peers_[static_cast<std::size_t>(rec.target)];
  if (wc.status == ib::WcStatus::kSuccess) {
    if (rec.mr != nullptr) release_q_.push_back(rec.mr);
    if (rec.notify_slot >= 0) notify_busy_[static_cast<std::size_t>(rec.notify_slot)] = 0;
    if (peer.outstanding > 0) --peer.outstanding;
    peer.attempts = 0;  // completion progress re-arms the retry budget
    progress_ = true;
    journal_.erase(it);
  } else {
    peer.failed = true;
  }
}

void Window::drain_cq() {
  while (auto wc = cq_->poll()) process_wc(*wc);
  if (cq_->overrun()) {
    for (const ib::Wc& wc : cq_->rearm()) process_wc(wc);
  }
}

sim::Tick Window::arm_deadline() const {
  return comm_->engine().ctx().sim().now() + rdmach::kRecoveryEpochDeadline;
}

sim::Task<void> Window::watchdog_wait(sim::Tick& deadline, int target,
                                      const char* stage) {
  sim::Simulator& sim = comm_->engine().ctx().sim();
  if (progress_) {
    progress_ = false;
    deadline = arm_deadline();
  } else if (sim.now() >= deadline) {
    sync_wait_id_ = 0;  // no rma_sync rendezvous outlives the give-up
    throw_dead(target, stage);
  }
  if (sim.now() >= deadline) co_return;
  // The wakeup fires the CQ trigger at the deadline so the predicate's time
  // clause is re-evaluated (the wait_connected_until idiom).  At most one
  // wakeup is queued per window: deadlines only move later (each is now()
  // plus a constant, and the waits on one window are sequential), so a
  // wakeup that finds the deadline moved re-queues itself for it instead of
  // firing.  A wakeup left queued after the epoch completes holds one event
  // queue slot until its deadline, then fires a trigger with no waiters.
  watchdog_->armed = deadline;
  if (!watchdog_->queued) {
    watchdog_->queued = true;
    queue_wakeup(sim, watchdog_);
  }
  co_await sim::wait_until(cq_->arrival(), [this, deadline, &sim] {
    return !cq_->empty() || cq_->overrun() || sim.now() >= deadline;
  });
}

void Window::queue_wakeup(sim::Simulator& sim, std::shared_ptr<Watchdog> w) {
  const sim::Tick at = w->armed;
  sim.call_at(at, [&sim, w = std::move(w)]() mutable {
    if (w->armed > sim.now()) {
      queue_wakeup(sim, std::move(w));
    } else {
      w->queued = false;
      w->arrival->fire();
    }
  });
}

sim::Task<void> Window::drain_target(int target) {
  auto remaining = [this, target]() -> std::uint64_t {
    if (target >= 0) return peers_[static_cast<std::size_t>(target)].outstanding;
    std::uint64_t n = 0;
    for (const Peer& p : peers_) n += p.outstanding;
    return n;
  };
  auto next_failed = [this, target]() -> int {
    for (int r = 0; r < static_cast<int>(peers_.size()); ++r) {
      if (!peers_[static_cast<std::size_t>(r)].failed) continue;
      if (target < 0 || r == target) return r;
    }
    return -1;
  };
  auto first_outstanding = [this]() -> int {
    for (int r = 0; r < static_cast<int>(peers_.size()); ++r) {
      if (peers_[static_cast<std::size_t>(r)].outstanding > 0) return r;
    }
    return -1;
  };
  sim::Tick deadline = arm_deadline();
  for (;;) {
    drain_cq();
    for (int r = next_failed(); r != -1; r = next_failed()) {
      co_await recover(r);
      drain_cq();
      deadline = arm_deadline();
    }
    if (remaining() == 0) co_return;
    co_await watchdog_wait(deadline,
                           target >= 0 ? target : first_outstanding(),
                           "window:watchdog:flush");
  }
}

sim::Task<void> Window::recover(int target) {
  Peer& peer = peers_[static_cast<std::size_t>(target)];
  peer.failed = false;
  Engine& eng = comm_->engine();
  pmi::Context& pctx = eng.ctx();

  // Obituary board first: someone else may already have convicted the
  // target, in which case burning our own budget is pointless.
  ft_entry(target, /*abandon=*/true);

  ++peer.attempts;
  if (peer.attempts > eng.recovery_max_attempts()) {
    if (!eng.ft_armed()) throw_dead(target, "window:retry-budget", true);
    abandon_target(target);
    const int wr = comm_->world_rank(target);
    if (pctx.kvs->post_obit(wr)) pmi::wake_all_ranks(pctx);
    throw ProcFailedError(wr, "one-sided retry budget exhausted toward "
                              "world rank " +
                                  std::to_string(wr));
  }

  co_await pctx.sim().delay(rdmach::capped_backoff(peer.attempts));

  // Tear the QP down, wait until nothing of it can touch memory later,
  // then consume its flushed CQEs so they cannot alias the replay.
  peer.qp->close();
  co_await peer.qp->quiesce();
  drain_cq();
  peer.failed = false;  // the drained error CQEs are what we are recovering
  peer.qp->reset();

  // Replay the target's journal in original post order under fresh wr_ids.
  // Safe: a killed WQE never reached the responder, and everything
  // journalled (puts, gets, absolute-value notify flags) is idempotent
  // even if its original delivery did land and only the CQE was lost.
  std::vector<OpRecord> replays;
  for (auto it = journal_.begin(); it != journal_.end();) {
    if (it->second.target == target) {
      replays.push_back(std::move(it->second));
      it = journal_.erase(it);
    } else {
      ++it;
    }
  }
  peer.outstanding -= std::min<std::uint64_t>(peer.outstanding,
                                              replays.size());
  for (OpRecord& rec : replays) {
    ++stats_.replays;
    stats_.replayed_bytes += rec.len;
    post_op(std::move(rec));
  }
  ++stats_.recoveries;
  progress_ = true;  // a completed reset counts as episode progress
}

void Window::abandon_target(int target) {
  Peer& peer = peers_[static_cast<std::size_t>(target)];
  for (auto it = journal_.begin(); it != journal_.end();) {
    if (it->second.target != target) {
      ++it;
      continue;
    }
    if (it->second.mr != nullptr) release_q_.push_back(it->second.mr);
    if (it->second.notify_slot >= 0) {
      notify_busy_[static_cast<std::size_t>(it->second.notify_slot)] = 0;
    }
    it = journal_.erase(it);
  }
  peer.outstanding = 0;
  peer.failed = false;
}

sim::Task<void> Window::drain_releases() {
  // FIFO so RegCache sees releases in pin order (matches the historical
  // fence teardown).
  std::size_t i = 0;
  while (i < release_q_.size()) {
    ib::MemoryRegion* mr = release_q_[i++];
    co_await cache_->release(mr);
  }
  release_q_.clear();
}

void Window::throw_dead(int target, const char* stage, bool abandon) {
  rdmach::RecoverySnapshot snap;
  snap.stage = stage;
  snap.epoch = stats_.recoveries;
  if (target >= 0) {
    const Peer& peer = peers_[static_cast<std::size_t>(target)];
    snap.attempts = peer.attempts;
    snap.journal_outstanding = peer.outstanding;
  } else {
    snap.journal_outstanding = journal_.size();
  }
  if (abandon) abandon_target(target);
  throw rdmach::ChannelError(
      target, std::string("one-sided epoch gave up (") + stage + ")",
      rdmach::ChannelError::kDead, std::move(snap));
}

// ---- epochs -----------------------------------------------------------------

sim::Task<void> Window::flush(int target) {
  ++stats_.flushes;
  if (target == comm_->rank()) co_return;  // self ops complete synchronously
  ft_entry(target);
  co_await drain_target(target);
  co_await drain_releases();
}

sim::Task<void> Window::flush_all() {
  ++stats_.flushes;
  for (int r = 0; r < static_cast<int>(peers_.size()); ++r) {
    if (peers_[static_cast<std::size_t>(r)].outstanding > 0) ft_entry(r);
  }
  co_await drain_target(-1);
  co_await drain_releases();
}

sim::Task<void> Window::flush_local(int target) { return flush(target); }

sim::Task<void> Window::flush_local_all() { return flush_all(); }

sim::Task<void> Window::unlock_all() {
  co_await flush_all();
  locked_all_ = false;
}

sim::Task<void> Window::fence() {
  // Local completion of everything issued this epoch...
  co_await drain_target(-1);
  co_await drain_releases();
  // ...then the collective epoch boundary.  RC ordering means a write
  // whose CQE we have seen is already visible at the target, so the
  // barrier is sufficient for the fence semantics.
  co_await comm_->barrier();
}

// ---- fault-tolerance entry checks -------------------------------------------

void Window::ft_entry(int target, bool abandon) {
  Engine& eng = comm_->engine();
  if (!eng.ft_armed()) return;
  pmi::Kvs& kvs = *eng.ctx().kvs;
  if (kvs.obit_version() == 0) return;
  const int wr = comm_->world_rank(target);
  if (kvs.is_dead(wr)) {
    if (abandon) abandon_target(target);
    ++stats_.obit_fast_fails;
    throw ProcFailedError(
        wr, "one-sided operation toward dead rank (world " +
                std::to_string(wr) + ")");
  }
}

}  // namespace mpi
