// Simulated process-management interface.
//
// Real MPICH2 jobs bootstrap through a process manager (mpd) and its PMI
// key-value space: every rank publishes its QP numbers / buffer addresses /
// rkeys, synchronizes, and reads its peers' entries.  This module provides
// the same three primitives -- put, barrier-then-get, and a launcher that
// starts one process per node -- against the simulated cluster.  Values are
// word records (pmi::Record), never decimal strings.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ib/fabric.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace pmi {

/// A KVS value: a record of 64-bit words -- QP numbers, buffer addresses,
/// rkeys, counters -- in a layout fixed by the publisher and its readers.
/// Publishers never format numbers as text, readers never parse: a record
/// lands whole, so a reader that finds it can use every word at once.
using Record = std::vector<std::uint64_t>;

/// Job-wide key-value space.  get() blocks until the key has been
/// published, so `put(...); co_await get(peer_key)` is a safe exchange
/// without an explicit barrier.  Records are never erased, so the pointers
/// get() and find() return stay valid for the job's lifetime.
class Kvs {
 public:
  explicit Kvs(sim::Simulator& sim) : published_(sim) {}

  void put(const std::string& key, Record value) {
    entries_[key] = std::move(value);
    published_.fire();
  }

  sim::Task<const Record*> get(std::string key) {
    co_await sim::wait_until(published_,
                             [this, &key] { return entries_.count(key) > 0; });
    co_return &entries_.at(key);
  }

  /// Blocks until `key` is published (returns its record) or `abort_key`
  /// appears first (returns nullptr).  Recovery handshakes use this so a
  /// rank waiting for its peer's half of an exchange is released when the
  /// peer instead publishes a failure marker.
  sim::Task<const Record*> get_unless(std::string key, std::string abort_key) {
    co_await sim::wait_until(published_, [this, &key, &abort_key] {
      return entries_.count(key) > 0 || entries_.count(abort_key) > 0;
    });
    co_return find(key);
  }

  /// get_unless with a virtual-time deadline: additionally returns (with
  /// nullptr) once `deadline` passes with neither key published.  The
  /// channel recovery watchdog bounds its handshake waits with this --
  /// disambiguate timeout from abort by probing has(abort_key) afterwards.
  /// `deadline` must be in the future.
  sim::Task<const Record*> get_unless_before(std::string key,
                                             std::string abort_key,
                                             sim::Tick deadline) {
    sim::Simulator& sim = published_.simulator();
    // The trigger only re-evaluates predicates when fired; fire it at the
    // deadline so the time clause below is actually observed.
    sim.call_at(deadline, [this] { published_.fire(); });
    co_await sim::wait_until(published_, [this, &key, &abort_key, deadline,
                                          &sim] {
      return entries_.count(key) > 0 || entries_.count(abort_key) > 0 ||
             sim.now() >= deadline;
    });
    co_return find(key);
  }

  /// Non-blocking probe (PMI_KVS_Get with an immediate-failure return):
  /// recovery paths use it to check for a peer's "dead" marker without
  /// committing to wait for it.
  bool has(const std::string& key) const { return entries_.count(key) > 0; }

  /// Non-blocking lookup: the record if published, nullptr otherwise.  Lazy
  /// connection joins poll a peer's endpoint record with this.
  const Record* find(const std::string& key) const {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  /// Append-only mailbox: records accumulate per key in publish order and
  /// are never overwritten.  Lazy connection establishment uses one mailbox
  /// per rank ("lzm:<rank>") for connect/evict requests; consumers keep a
  /// cursor into the list.  Fires the same trigger as put().
  void append(const std::string& key, Record value) {
    mailboxes_[key].push_back(std::move(value));
    published_.fire();
  }

  /// The mailbox list for `key` (possibly empty).  The reference is stable
  /// across further append() calls.
  const std::vector<Record>& mail(const std::string& key) {
    return mailboxes_[key];
  }

  /// Entries in `key`'s mailbox without materializing it (const-safe): a
  /// cheap monotone version for consumers that only need "did it move".
  std::size_t mail_count(const std::string& key) const {
    auto it = mailboxes_.find(key);
    return it == mailboxes_.end() ? 0 : it->second.size();
  }

  /// Published keys (one per record; mailboxes not counted).
  std::size_t size() const noexcept { return entries_.size(); }

  /// Publishes a connection-recovery key: a channel's dead marker or one
  /// half of an epoch re-handshake.  recovery_version() counts these
  /// publications, so fault polls skip their key lookups while it is 0 --
  /// the whole fault-free run.
  void put_recovery(const std::string& key, Record value) {
    ++recovery_version_;
    put(key, std::move(value));
  }

  std::uint64_t recovery_version() const noexcept { return recovery_version_; }

  /// Obituary board.  A rank that convicts a peer as permanently dead posts
  /// an obituary here; every other rank consults the board before burning
  /// its own retry budget against the corpse.  post_obit is idempotent (the
  /// first conviction wins) and mirrors the obituary into the regular KVS as
  /// "ft:dead:<rank>" so key-based waiters (get_unless family) can use it as
  /// an abort key.  obit_version() is a cheap monotonic cursor: consumers
  /// cache it and rescan the board only when it moves.
  bool post_obit(int rank) {
    if (!dead_ranks_.insert(rank).second) return false;
    obit_list_.push_back(rank);
    put("ft:dead:" + std::to_string(rank), {});
    return true;
  }

  bool is_dead(int rank) const { return dead_ranks_.count(rank) > 0; }

  /// Ranks obituaried so far, in conviction order.  Stable reference.
  const std::vector<int>& obits() const noexcept { return obit_list_; }

  std::uint64_t obit_version() const noexcept { return obit_list_.size(); }

 private:
  std::map<std::string, Record> entries_;
  std::map<std::string, std::vector<Record>> mailboxes_;
  std::set<int> dead_ranks_;
  std::vector<int> obit_list_;
  std::uint64_t recovery_version_ = 0;
  sim::Trigger published_;
};

/// Job-wide barrier (PMI_Barrier): generation-counted so it is reusable.
class Barrier {
 public:
  Barrier(sim::Simulator& sim, int participants)
      : released_(sim), participants_(participants) {}

  sim::Task<void> arrive() {
    const std::uint64_t token = arrive_split();
    co_await sim::wait_until(released_,
                             [this, token] { return done(token); });
  }

  /// Split-phase arrival: registers this rank now and returns a token for
  /// done().  Lets a rank keep servicing out-of-band work (e.g. connection
  /// recovery handshakes during channel finalize) while slower ranks catch
  /// up, instead of going deaf inside a blocking arrive().
  std::uint64_t arrive_split() {
    const std::uint64_t my_gen = generation_;
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      released_.fire();
    }
    return my_gen;
  }

  bool done(std::uint64_t token) const noexcept { return generation_ > token; }

  /// Removes a permanently dead rank from the participant set: a corpse can
  /// never arrive, so leaving it counted wedges every subsequent job-wide
  /// barrier (finalize).  Idempotent per rank -- any number of survivors may
  /// report the same obituary.  If the remaining participants have all
  /// already arrived, the barrier releases immediately.
  void abandon(int rank) {
    if (!abandoned_.insert(rank).second) return;
    --participants_;
    if (participants_ > 0 && arrived_ >= participants_) {
      arrived_ = 0;
      ++generation_;
      released_.fire();
    }
  }

 private:
  sim::Trigger released_;
  int participants_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::set<int> abandoned_;
};

/// Per-rank execution context handed to every rank program.
struct Context {
  int rank = 0;
  int size = 0;
  /// Job layout: consecutive ranks per node, so peer rank r lives on fabric
  /// node r / ranks_per_node (lazy connects wake that node's progress loop
  /// without a QP in hand).
  int ranks_per_node = 1;
  ib::Node* node = nullptr;
  Kvs* kvs = nullptr;
  Barrier* barrier = nullptr;

  sim::Simulator& sim() const { return node->fabric().sim(); }
  ib::Fabric& fabric() const { return node->fabric(); }
};

/// Fires every fabric node's DMA-arrival trigger one wire latency from now.
/// Progress loops park on those triggers (not on the KVS), so a control-plane
/// event that must interrupt blocked ranks everywhere -- an obituary posting,
/// a communicator revocation -- follows its KVS write with this broadcast
/// wake-up.  Idempotent and cheap: woken ranks that find nothing to do just
/// park again.
inline void wake_all_ranks(Context& ctx) {
  sim::Simulator& sim = ctx.sim();
  ib::Fabric& fabric = ctx.fabric();
  const sim::Tick at = sim.now() + fabric.cfg().wire_latency;
  for (std::size_t i = 0; i < fabric.node_count(); ++i) {
    ib::Node* n = &fabric.node(i);
    sim.call_at(at, [n] { n->dma_arrival().fire(); });
  }
}

/// Launches an `n`-rank job on the fabric: adds one node per rank (if the
/// fabric does not already have enough), builds the contexts, and spawns
/// `main` once per rank.  Call sim.run() afterwards.
class Job {
 public:
  using RankMain = std::function<sim::Task<void>(Context&)>;

  /// `ranks_per_node` > 1 co-locates consecutive ranks on one node (SMP
  /// cluster), which the multi-method channel exploits: shared memory
  /// within a node, InfiniBand across nodes.
  explicit Job(ib::Fabric& fabric, int n, int ranks_per_node = 1);

  /// Spawns `main(ctx)` for every rank.  The callable is kept alive for the
  /// job's lifetime: if it is a coroutine lambda, its closure must outlive
  /// the spawned coroutines.
  void launch(RankMain main);

  Context& context(int rank) { return contexts_.at(static_cast<std::size_t>(rank)); }
  Kvs& kvs() noexcept { return kvs_; }
  int size() const noexcept { return n_; }

 private:
  ib::Fabric* fabric_;
  int n_;
  Kvs kvs_;
  Barrier barrier_;
  std::vector<Context> contexts_;
  // Keeps coroutine-lambda closures alive; deque: stable addresses across
  // repeated launches.
  std::deque<RankMain> mains_;
};

}  // namespace pmi
