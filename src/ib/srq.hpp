// SRQ-style shared receive pool.
//
// The paper's CH3 designs give every rank pair a dedicated eager receive
// ring, so a rank's receive memory grows O(ranks).  Real MPI-over-IB stacks
// moved to shared receive queues (SRQ) to break exactly that: receive
// buffers are pooled per rank and leased to whichever peers are actively
// talking.  We model the memory/credit side of SRQ at ring granularity: a
// SharedRecvPool owns `rings * ring_bytes` of receive memory, registered
// once (one rkey covers every lease), and hands out ring-sized leases to
// connections as they are wired.  Exhaustion is a backpressure condition --
// the requester stays cold and retries, surfacing through the channel's
// credit_stalls counter -- never a deadlock.
//
// The pool knows nothing of what a ring holds and writes none of it: a
// lease comes back with whatever bytes its previous tenant (or the
// allocator) left.  The channel that leases a ring readies it before
// exposing it to a peer (rdmach::VerbsChannelBase::ready_recv_ring zeroes
// each slot's flag words), so a new tenant cannot replay an old tenant's
// polling flags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/buffer.hpp"

namespace ib {

class SharedRecvPool {
 public:
  /// An unleased pool (rings == 0) is valid and always exhausted; channels
  /// use that as the "dedicated rings" degenerate mode.
  SharedRecvPool() = default;

  /// Allocates the storage without zero-filling it.
  void reset(std::size_t rings, std::size_t ring_bytes) {
    ring_bytes_ = ring_bytes;
    storage_.resize(rings * ring_bytes);
    // Intrusive LIFO free list: the most recently released (cache-warm)
    // lease is reused first, and lease 0 goes out first.
    next_.resize(rings);
    for (std::size_t i = 0; i < rings; ++i) next_[i] = i + 1;
    free_head_ = 0;
    leased_ = 0;
    high_water_ = 0;
  }

  bool configured() const noexcept { return !next_.empty(); }

  /// Leases one ring; returns its base pointer, or nullptr when the pool is
  /// exhausted (caller backpressures).  Writes nothing: the extent holds the
  /// previous tenant's bytes, and the caller readies it before any peer
  /// may write to it or any reader polls it.
  std::byte* acquire() {
    if (free_head_ >= next_.size()) return nullptr;
    const std::size_t idx = free_head_;
    free_head_ = next_[idx];
    next_[idx] = kLeased;
    ++leased_;
    if (leased_ > high_water_) high_water_ = leased_;
    return storage_.data() + idx * ring_bytes_;
  }

  /// Returns a lease to the pool.  Throws std::logic_error for a pointer
  /// that is not a ring base of this pool, or for a ring that is not leased
  /// (a double release would hand one ring to two connections).
  void release(std::byte* base) {
    const auto addr = reinterpret_cast<std::uintptr_t>(base);
    const auto first = reinterpret_cast<std::uintptr_t>(storage_.data());
    if (base == nullptr || addr < first || addr - first >= storage_.size() ||
        (addr - first) % ring_bytes_ != 0) {
      throw std::logic_error("SharedRecvPool: release of a foreign pointer");
    }
    const std::size_t idx = (addr - first) / ring_bytes_;
    if (next_[idx] != kLeased) {
      throw std::logic_error("SharedRecvPool: release of an unleased ring");
    }
    next_[idx] = free_head_;
    free_head_ = idx;
    --leased_;
  }

  std::byte* base() noexcept { return storage_.data(); }
  std::size_t free_rings() const noexcept { return next_.size() - leased_; }
  std::size_t bytes() const noexcept { return storage_.size(); }
  std::size_t leased() const noexcept { return leased_; }
  std::size_t high_water() const noexcept { return high_water_; }

 private:
  /// next_ entry of a leased ring; a free ring holds the index of the next
  /// free ring (next_.size() ends the list).
  static constexpr std::size_t kLeased =
      std::numeric_limits<std::size_t>::max();

  std::size_t ring_bytes_ = 0;
  sim::UninitBytes storage_;
  std::vector<std::size_t> next_;
  std::size_t free_head_ = 0;
  std::size_t leased_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace ib
