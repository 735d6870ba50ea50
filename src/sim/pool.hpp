// Free-list buffer pool for the DES hot path.
//
// At 256-1024 simulated ranks the dominant allocator traffic is the HCA
// engines' per-WQE staging buffers (the gathered payload of every RDMA write
// and send; read responses land in their destination unstaged).  BufferPool
// recycles those vectors: an acquire() reuses a previously released buffer's
// storage when one is available and only falls back to the allocator on a
// miss.  Storage is UninitBytes, so neither a miss nor a grown hit writes
// the bytes.  Buffers are handed out as shared_ptrs whose deleter returns
// the storage to the pool, so a buffer captured by a delivery event queued
// behind the pool's owner still dies safely: the free list is held alive by
// the deleter itself.
//
// Not thread-safe (the simulation is single-threaded by construction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/buffer.hpp"

namespace sim {

class BufferPool {
 public:
  using Buffer = std::shared_ptr<UninitBytes>;

  /// A buffer of exactly `n` bytes (contents unspecified and not written
  /// here -- every user overwrites the full extent before reading).
  /// Returns pooled storage when available, allocating only on a miss.
  Buffer acquire(std::size_t n) {
    UninitBytes* v = nullptr;
    if (!state_->free.empty()) {
      v = state_->free.back().release();
      state_->free.pop_back();
      ++state_->hits;
    } else {
      v = new UninitBytes();
      ++state_->misses;
    }
    v->resize(n);
    // The deleter owns a reference to the shared free-list state, not to
    // the pool object: buffers may outlive the BufferPool's owner.
    auto st = state_;
    return Buffer(v, [st](UninitBytes* p) {
      if (st->free.size() < kMaxFree) {
        st->free.emplace_back(p);
      } else {
        delete p;
      }
    });
  }

  std::uint64_t hits() const noexcept { return state_->hits; }
  std::uint64_t misses() const noexcept { return state_->misses; }

 private:
  /// Free-list cap: beyond this the storage is simply freed, bounding the
  /// pool's resident memory under bursty fan-out.
  static constexpr std::size_t kMaxFree = 4096;

  struct State {
    std::vector<std::unique_ptr<UninitBytes>> free;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

}  // namespace sim
