#include "mpi/engine.hpp"

#include <algorithm>
#include <cstring>

#include "ib/node.hpp"

namespace mpi {

Engine::Engine(pmi::Context& ctx, const ch3::StackConfig& cfg)
    : ctx_(&ctx),
      ch3_(ch3::make_channel(ctx, cfg)),
      ft_armed_(cfg.channel.ft_detector),
      recovery_max_attempts_(cfg.channel.recovery_max_attempts) {}

Engine::~Engine() = default;

sim::Task<void> Engine::init() { co_await ch3_->init(*this); }

sim::Task<void> Engine::finalize() {
  // Drain whatever is still moving (e.g. FIN packets of our last sends),
  // then synchronize with the fabric-level finalize inside the channel.
  co_await ch3_->finalize();
}

std::unique_ptr<Engine::PostedRecv> Engine::match_posted(
    const ch3::MatchHeader& h) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(*it, h)) {
      auto r = std::make_unique<PostedRecv>(std::move(*it));
      posted_.erase(it);
      return r;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// EngineHooks
// ---------------------------------------------------------------------------

ch3::Sink Engine::on_eager(int src, const ch3::MatchHeader& hdr) {
  const std::uint64_t id = ++cookie_seq_;
  if (auto r = match_posted(hdr)) {
    check_truncation(r->cap, hdr);
    inflight_[id] = Inflight{r->req, nullptr, src};
    return ch3::Sink{r->buf, id};
  }
  auto u = std::make_unique<UnexMsg>();
  u->hdr = hdr;
  u->src_vc = src;
  u->data.resize(hdr.length);
  UnexMsg* raw = u.get();
  unexpected_.push_back(std::move(u));
  inflight_[id] = Inflight{nullptr, raw, src};
  return ch3::Sink{raw->data.data(), id};
}

void Engine::on_eager_complete(const ch3::Sink& sink,
                               const ch3::MatchHeader& hdr) {
  auto it = inflight_.find(sink.cookie);
  if (it == inflight_.end()) {
    throw MpiError("eager completion for unknown delivery");
  }
  Inflight inf = it->second;
  inflight_.erase(it);
  if (inf.req) {
    complete_recv(*inf.req, hdr);
    return;
  }
  inf.unex->data_ready = true;
  if (inf.unex->claimed) {
    deferred_copies_.push_back(inf.unex);  // charged copy in progress loop
  }
}

void Engine::on_rts(int src, const ch3::MatchHeader& hdr,
                    std::uint64_t token) {
  if (auto r = match_posted(hdr)) {
    check_truncation(r->cap, hdr);
    const std::uint64_t id = ++cookie_seq_;
    inflight_[id] = Inflight{r->req, nullptr, src};
    // Stash the envelope for completion-time status.
    inflight_[id].req->status.source = hdr.src;
    inflight_[id].req->status.tag = hdr.tag;
    inflight_[id].req->status.bytes = hdr.length;
    ch3_->rndv_recv_ready(src, token, r->buf, hdr.length, id);
    return;
  }
  auto u = std::make_unique<UnexMsg>();
  u->hdr = hdr;
  u->src_vc = src;
  u->rndv = true;
  u->token = token;
  unexpected_.push_back(std::move(u));
}

void Engine::on_rndv_complete(std::uint64_t cookie) {
  auto it = inflight_.find(cookie);
  if (it == inflight_.end()) {
    throw MpiError("rendezvous completion for unknown delivery");
  }
  it->second.req->recv_done = true;
  inflight_.erase(it);
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

sim::Task<Request> Engine::isend(const void* buf, std::size_t bytes,
                                 int dst_world, int src_comm_rank, int tag,
                                 std::uint64_t context) {
  auto st = std::make_shared<detail::ReqState>();
  st->is_send = true;
  if (dst_world == kProcNull) {
    st->ch3_send.done = true;
    co_return Request(st);
  }
  ++sends;
  co_await ctx_->node->compute(kPerOpOverhead);
  ch3::MatchHeader hdr;
  hdr.src = src_comm_rank;
  hdr.tag = tag;
  hdr.context_id = context;
  hdr.length = bytes;

  if (dst_world == world_rank()) {
    // Self-send: route through the matching engine locally.
    if (auto r = match_posted(hdr)) {
      check_truncation(r->cap, hdr);
      co_await ctx_->node->copy(r->buf, buf, bytes);
      complete_recv(*r->req, hdr);
    } else {
      auto u = std::make_unique<UnexMsg>();
      u->hdr = hdr;
      u->src_vc = world_rank();
      u->data.resize(bytes);
      co_await ctx_->node->copy(u->data.data(), buf, bytes);
      u->data_ready = true;
      unexpected_.push_back(std::move(u));
    }
    st->ch3_send.done = true;
    co_return Request(st);
  }

  ch3_->start_send(dst_world, hdr, buf, &st->ch3_send);
  if (ft_armed_) pending_sends_.push_back(PendingSend{dst_world, context, st});
  co_return Request(st);
}

sim::Task<Request> Engine::irecv(void* buf, std::size_t bytes,
                                 int src_comm_rank, int tag,
                                 std::uint64_t context) {
  auto st = std::make_shared<detail::ReqState>();
  if (src_comm_rank == kProcNull) {
    st->recv_done = true;
    st->status.source = kProcNull;
    st->status.bytes = 0;
    co_return Request(st);
  }
  ++recvs;
  co_await ctx_->node->compute(kPerOpOverhead);

  // First consult the unexpected queue (arrival order).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    UnexMsg& u = **it;
    if (u.claimed || !matches(context, src_comm_rank, tag, u.hdr)) continue;
    check_truncation(bytes, u.hdr);
    ++unexpected_hits;
    if (u.rndv) {
      const std::uint64_t id = ++cookie_seq_;
      inflight_[id] = Inflight{st, nullptr, u.src_vc};
      st->status.source = u.hdr.src;
      st->status.tag = u.hdr.tag;
      st->status.bytes = u.hdr.length;
      ch3_->rndv_recv_ready(u.src_vc, u.token, buf, u.hdr.length, id);
      unexpected_.erase(it);
      co_return Request(st);
    }
    if (u.data_ready) {
      co_await ctx_->node->copy(buf, u.data.data(), u.hdr.length);
      complete_recv(*st, u.hdr);
      unexpected_.erase(it);
      co_return Request(st);
    }
    // Matched while the payload is still arriving into the temp buffer.
    u.claimed = st;
    u.claimed_buf = static_cast<std::byte*>(buf);
    co_return Request(st);
  }

  posted_.push_back(PostedRecv{context, src_comm_rank, tag,
                               static_cast<std::byte*>(buf), bytes, st});
  co_return Request(st);
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

sim::Task<bool> Engine::run_deferred() {
  bool any = false;
  while (!deferred_copies_.empty()) {
    UnexMsg* u = deferred_copies_.back();
    deferred_copies_.pop_back();
    co_await ctx_->node->copy(u->claimed_buf, u->data.data(), u->hdr.length);
    complete_recv(*u->claimed, u->hdr);
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (it->get() == u) {
        unexpected_.erase(it);
        break;
      }
    }
    any = true;
  }
  co_return any;
}

int Engine::dead_src_world(std::uint64_t context, int src) const {
  const auto git = groups_.find(context);
  if (git == groups_.end()) return -1;
  const std::vector<int>& group = *git->second;
  const pmi::Kvs& kvs = *ctx_->kvs;
  if (src == kAnySource) {
    for (const int w : group) {
      if (kvs.is_dead(w)) return w;
    }
    return -1;
  }
  if (src < 0 || static_cast<std::size_t>(src) >= group.size()) return -1;
  const int w = group[static_cast<std::size_t>(src)];
  return kvs.is_dead(w) ? w : -1;
}

void Engine::ft_sweep() {
  if (!ft_armed_) return;
  pmi::Kvs& kvs = *ctx_->kvs;
  const std::uint64_t gen = kvs.obit_version() + kvs.mail_count("rvk");
  if (gen == ft_gen_seen_) return;
  ft_gen_seen_ = gen;

  const auto revoked = [&kvs](std::uint64_t c) {
    return kvs.has("rvk:" + std::to_string(c));
  };
  const auto dead_msg = [](int w) {
    return "rank " + std::to_string(w) + " has a published obituary";
  };

  for (auto it = posted_.begin(); it != posted_.end();) {
    if (revoked(it->context)) {
      fail_req(*it->req, /*revoked=*/true, -1,
               "receive interrupted: communicator revoked");
      it = posted_.erase(it);
      continue;
    }
    const int w = dead_src_world(it->context, it->src);
    if (w >= 0) {
      fail_req(*it->req, /*revoked=*/false, w,
               "receive from dead process: " + dead_msg(w));
      it = posted_.erase(it);
      continue;
    }
    ++it;
  }

  // Matched receives whose payload is mid-delivery from a rank that died:
  // the data leg will never finish, so fail the request (the entry stays --
  // a straggling completion on a failed request is harmless).
  for (auto& [cookie, inf] : inflight_) {
    (void)cookie;
    if (inf.req && inf.src_world >= 0 && kvs.is_dead(inf.src_world)) {
      fail_req(*inf.req, /*revoked=*/false, inf.src_world,
               "delivery from dead process: " + dead_msg(inf.src_world));
    }
  }
  for (auto& u : unexpected_) {
    if (u->claimed && u->src_vc >= 0 && !u->data_ready &&
        kvs.is_dead(u->src_vc)) {
      fail_req(*u->claimed, /*revoked=*/false, u->src_vc,
               "delivery from dead process: " + dead_msg(u->src_vc));
    }
  }

  for (auto it = pending_sends_.begin(); it != pending_sends_.end();) {
    std::shared_ptr<detail::ReqState> st = it->req.lock();
    if (!st || st->completed()) {
      it = pending_sends_.erase(it);
      continue;
    }
    if (revoked(it->context)) {
      fail_req(*st, /*revoked=*/true, -1,
               "send interrupted: communicator revoked");
      it = pending_sends_.erase(it);
      continue;
    }
    if (kvs.is_dead(it->dst_world)) {
      fail_req(*st, /*revoked=*/false, it->dst_world,
               "send to dead process: " + dead_msg(it->dst_world));
      it = pending_sends_.erase(it);
      continue;
    }
    ++it;
  }
}

sim::Task<void> Engine::progress_until(const std::function<bool()>& pred) {
  ft_sweep();
  while (!pred()) {
    const std::uint64_t gen = ch3_->activity_count();
    bool moved = false;
    try {
      moved = co_await ch3_->progress_once();
    } catch (const ch3::VcError& e) {
      // With the detector armed a VC failure is a process failure: surface
      // it as the typed MPI error so collectives and callers can run the
      // revoke -> agree -> shrink path.  Unarmed, keep the historic VcError.
      if (!ft_armed_) throw;
      throw ProcFailedError(e.peer(), e.what());
    }
    moved |= co_await run_deferred();
    ft_sweep();
    if (pred()) break;
    if (!moved && ch3_->activity_count() == gen) {
      co_await ch3_->wait_for_activity();
    }
  }
}

sim::Task<void> Engine::wait(const Request& r) {
  co_await progress_until([&r] { return r.done(); });
  throw_if_failed(r);
}

sim::Task<void> Engine::wait_all(std::span<const Request> rs) {
  co_await progress_until([rs] {
    return std::all_of(rs.begin(), rs.end(),
                       [](const Request& r) { return r.done(); });
  });
  for (const Request& r : rs) throw_if_failed(r);
}

sim::Task<bool> Engine::test(const Request& r) {
  (void)co_await ch3_->progress_once();
  (void)co_await run_deferred();
  ft_sweep();
  throw_if_failed(r);
  co_return r.done();
}

Engine::UnexMsg* Engine::find_unexpected(std::uint64_t context, int src,
                                         int tag) {
  for (auto& u : unexpected_) {
    if (!u->claimed && matches(context, src, tag, u->hdr)) return u.get();
  }
  return nullptr;
}

sim::Task<bool> Engine::iprobe(int src_comm_rank, int tag,
                               std::uint64_t context, Status* st) {
  (void)co_await ch3_->progress_once();
  (void)co_await run_deferred();
  if (UnexMsg* u = find_unexpected(context, src_comm_rank, tag)) {
    if (st != nullptr) {
      st->source = u->hdr.src;
      st->tag = u->hdr.tag;
      st->bytes = u->hdr.length;
    }
    co_return true;
  }
  co_return false;
}

sim::Task<Status> Engine::probe(int src_comm_rank, int tag,
                                std::uint64_t context) {
  co_await progress_until([this, context, src_comm_rank, tag] {
    return find_unexpected(context, src_comm_rank, tag) != nullptr;
  });
  UnexMsg* u = find_unexpected(context, src_comm_rank, tag);
  Status st;
  st.source = u->hdr.src;
  st.tag = u->hdr.tag;
  st.bytes = u->hdr.length;
  co_return st;
}

}  // namespace mpi
