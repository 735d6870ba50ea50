// Byte buffers that are allocated without being zero-filled.
//
// Rings, staging buffers and pool storage are memory the model hands out by
// the hundreds of KiB.  A std::vector<std::byte> writes every byte on
// resize, which touches every page of memory no reader may ever look at.
// UninitBytes allocates the same bytes and leaves them as the allocator
// returned them; whoever hands them to a reader writes first what that
// reader may look at.  A staging buffer is written whole before it is
// posted; a receive ring gets only its slot flag words zeroed
// (rdmach::VerbsChannelBase::ready_recv_ring), because its reader looks at
// nothing else before the peer's write has landed there.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace sim {

/// std::allocator whose value-initialisation is default-initialisation, so
/// resize() allocates without writing.  Construction with arguments (e.g.
/// assign(n, value)) still writes.
template <class T>
struct UninitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <class U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}

  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

using UninitBytes = std::vector<std::byte, UninitAllocator<std::byte>>;

}  // namespace sim
