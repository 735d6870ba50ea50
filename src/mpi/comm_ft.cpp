// ULFM-style fault tolerance: revoke / agree / shrink, and the entry
// checks that give collectives uniform-error semantics on a communicator
// with a dead member.
//
// All three recovery operations run over the PMI control plane (KVS board
// reads/writes plus deadline-bounded waits), never over the message plane:
// a protocol step can therefore always terminate even when the ranks it is
// waiting on are dead, by converting silence-past-deadline into an obituary
// conviction and moving on.  Agreement uses a lowest-live-rank leader with
// takeover: the first decision written wins (has+put with no suspension in
// between is atomic in the event simulation), so every survivor adopts the
// same value no matter how many leaders died before one succeeded.
#include <algorithm>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"

namespace mpi {

namespace {

/// How long a member may stay silent (no contribution / no decision) in an
/// FT protocol step before the waiters convict it as dead.  Generous against
/// collective call skew (microseconds to low milliseconds) and above the
/// channel recovery watchdog (50 ms), so the transport always gets the
/// first say on a conviction.
constexpr sim::Tick kFtDeadline = sim::usec(100'000);

std::string dead_key(int world) { return "ft:dead:" + std::to_string(world); }

/// Agreement flags are ints whose value bits may include the sign bit; a
/// word carries them sign-extended.
std::uint64_t flag_word(int flag) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(flag));
}
int word_flag(std::uint64_t word) {
  return static_cast<int>(static_cast<std::int64_t>(word));
}

}  // namespace

void Communicator::ft_check() const {
  if (!ft_on()) return;
  const pmi::Kvs& kvs = *eng_->ctx().kvs;
  if (kvs.mail_count("rvk") != 0 &&
      kvs.has("rvk:" + std::to_string(context_))) {
    throw RevokedError(context_, "communicator (context " +
                                     std::to_string(context_) + ") is revoked");
  }
  if (kvs.obit_version() == 0) return;
  for (const int w : group_) {
    if (kvs.is_dead(w)) {
      throw ProcFailedError(
          w, "collective on a communicator whose rank (world " +
                 std::to_string(w) + ") has a published obituary");
    }
  }
}

void Communicator::ft_check_peer(int r) const {
  if (!ft_on() || r == kProcNull) return;
  if (r == kAnySource) {
    ft_check();
    return;
  }
  const pmi::Kvs& kvs = *eng_->ctx().kvs;
  if (kvs.mail_count("rvk") != 0 &&
      kvs.has("rvk:" + std::to_string(context_))) {
    throw RevokedError(context_, "communicator (context " +
                                     std::to_string(context_) + ") is revoked");
  }
  const int w = world_rank(r);
  if (kvs.obit_version() != 0 && kvs.is_dead(w)) {
    throw ProcFailedError(w, "point-to-point with dead rank (world " +
                                 std::to_string(w) + ")");
  }
}

void Communicator::revoke() {
  if (!ft_on()) return;
  pmi::Kvs& kvs = *eng_->ctx().kvs;
  const std::string key = "rvk:" + std::to_string(context_);
  if (kvs.has(key)) return;  // idempotent: first revocation wins
  kvs.put(key, {});
  kvs.put("rvk:" + std::to_string(coll_context()), {});
  // One mailbox entry per revocation: the engine sweeps and the entry
  // checks use the mailbox size as a cheap change-generation.
  kvs.append("rvk", {context_});
  pmi::wake_all_ranks(eng_->ctx());
}

bool Communicator::revoked() const {
  if (!ft_on()) return false;
  return eng_->ctx().kvs->has("rvk:" + std::to_string(context_));
}

std::vector<int> Communicator::failed_ranks() const {
  std::vector<int> out;
  if (!ft_on()) return out;
  const pmi::Kvs& kvs = *eng_->ctx().kvs;
  for (int r = 0; r < size(); ++r) {
    if (kvs.is_dead(world_rank(r))) out.push_back(r);
  }
  return out;
}

sim::Task<const pmi::Record*> Communicator::ft_decide(std::string base,
                                                      FtDecision kind) {
  pmi::Kvs& kvs = *eng_->ctx().kvs;
  const std::string key = base + ":d";
  for (;;) {
    int leader = -1;
    for (int r = 0; r < size(); ++r) {
      if (!kvs.is_dead(world_rank(r))) {
        leader = r;
        break;
      }
    }
    if (leader < 0) {
      throw MpiError("ft_decide: every member (including this one) has a "
                     "published obituary");
    }
    if (leader == my_rank_ && !kvs.has(key)) {
      kvs.put(key, kind == FtDecision::kAgree ? decide_agree(base)
                                              : decide_shrink(base));
      pmi::wake_all_ranks(eng_->ctx());
    }
    const int leader_world = world_rank(leader);
    const auto got = co_await kvs.get_unless_before(
        key, dead_key(leader_world), eng_->ctx().sim().now() + kFtDeadline);
    if (got != nullptr) co_return got;
    if (const pmi::Record* v = kvs.find(key)) co_return v;
    // No decision: either the leader's obituary aborted the wait (next live
    // member takes over on the next pass) or the leader went silent past
    // the deadline -- convict it so the protocol can move on.
    if (!kvs.is_dead(leader_world) && kvs.post_obit(leader_world)) {
      pmi::wake_all_ranks(eng_->ctx());
    }
  }
}

sim::Task<int> Communicator::agree(int flag) {
  if (!ft_on()) {
    // No failure detector: plain fault-intolerant AND-reduction.
    int out = 0;
    co_await allreduce(&flag, &out, 1, Datatype::kInt, Op::kBand);
    co_return out;
  }
  pmi::Kvs& kvs = *eng_->ctx().kvs;
  const std::uint64_t seq = ++agree_seq_;
  const std::string base =
      "agr:" + std::to_string(context_) + ":" + std::to_string(seq);
  kvs.put(base + ":c:" + std::to_string(my_rank_),
          {flag_word(flag & ~kAgreeFlagDead)});

  // Gather: wait for each member's contribution, or learn (possibly by
  // convicting it) that the member is dead.  After this loop, every member
  // has either contributed or has a published obituary -- the decision
  // below is computed over a settled board.
  for (int r = 0; r < size(); ++r) {
    if (r == my_rank_) continue;
    const int w = world_rank(r);
    if (kvs.is_dead(w)) continue;
    const std::string ckey = base + ":c:" + std::to_string(r);
    const auto got = co_await kvs.get_unless_before(
        ckey, dead_key(w), eng_->ctx().sim().now() + kFtDeadline);
    if (got != nullptr || kvs.has(ckey) || kvs.is_dead(w)) continue;
    if (kvs.post_obit(w)) pmi::wake_all_ranks(eng_->ctx());
  }

  const pmi::Record* decided = co_await ft_decide(base, FtDecision::kAgree);
  co_return word_flag((*decided)[0]);
}

/// Decision: {AND of the contributed flags, kAgreeFlagDead if any member is
/// dead}.
pmi::Record Communicator::decide_agree(const std::string& base) const {
  const pmi::Kvs& kvs = *eng_->ctx().kvs;
  int v = ~kAgreeFlagDead;  // AND identity over the value bits
  bool any_dead = false;
  for (int r = 0; r < size(); ++r) {
    if (const pmi::Record* c = kvs.find(base + ":c:" + std::to_string(r))) {
      v &= word_flag((*c)[0]);
    } else {
      any_dead = true;  // settled board: missing means dead
    }
    if (kvs.is_dead(world_rank(r))) any_dead = true;
  }
  if (any_dead) v |= kAgreeFlagDead;
  return {flag_word(v)};
}

sim::Task<Communicator*> Communicator::shrink() {
  if (!ft_on()) {
    // No failure detector: nobody can be dead, so "shrink" is a plain
    // order-preserving duplicate.
    co_return co_await split(0, my_rank_);
  }
  pmi::Kvs& kvs = *eng_->ctx().kvs;
  const std::uint64_t seq = ++shrink_seq_;
  const std::string base =
      "shr:" + std::to_string(context_) + ":" + std::to_string(seq);
  // Contribution: this member's next-context watermark.  Members can
  // legitimately disagree (uneven split histories); the decision takes the
  // max, which is fresh for everyone.
  kvs.put(base + ":c:" + std::to_string(my_rank_),
          {rt_->peek_next_context()});

  for (int r = 0; r < size(); ++r) {
    if (r == my_rank_) continue;
    const int w = world_rank(r);
    if (kvs.is_dead(w)) continue;
    const std::string ckey = base + ":c:" + std::to_string(r);
    const auto got = co_await kvs.get_unless_before(
        ckey, dead_key(w), eng_->ctx().sim().now() + kFtDeadline);
    if (got != nullptr || kvs.has(ckey) || kvs.is_dead(w)) continue;
    if (kvs.post_obit(w)) pmi::wake_all_ranks(eng_->ctx());
  }

  const pmi::Record& decided =
      *co_await ft_decide(base, FtDecision::kShrink);

  const std::uint64_t new_ctx = decided[0];
  rt_->bump_next_context(new_ctx + 2);
  std::vector<int> group;
  int my_new_rank = -1;
  for (std::size_t i = 1; i < decided.size(); ++i) {
    const int w = static_cast<int>(decided[i]);
    if (w == eng_->world_rank()) my_new_rank = static_cast<int>(group.size());
    group.push_back(w);
  }
  if (my_new_rank < 0) co_return nullptr;  // convicted while shrinking
  co_return &rt_->adopt_comm(std::move(group), my_new_rank, new_ctx);
}

/// Decision: {new context, world rank, world rank, ...} -- survivors in old
/// relative order, re-ranked densely.
pmi::Record Communicator::decide_shrink(const std::string& base) const {
  const pmi::Kvs& kvs = *eng_->ctx().kvs;
  pmi::Record decision{0};
  for (int r = 0; r < size(); ++r) {
    const int w = world_rank(r);
    const pmi::Record* c = kvs.find(base + ":c:" + std::to_string(r));
    if (c == nullptr || kvs.is_dead(w)) continue;
    decision[0] = std::max(decision[0], (*c)[0]);
    decision.push_back(static_cast<std::uint64_t>(w));
  }
  return decision;
}

}  // namespace mpi
