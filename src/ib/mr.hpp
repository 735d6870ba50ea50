// Protection domains and memory regions.
//
// InfiniBand requires every communication buffer to be registered; the
// registration pins the pages and yields a local key (lkey, used in SGEs)
// and a remote key (rkey, presented by RDMA initiators and validated by the
// target HCA).  Registration and deregistration are modelled as expensive
// CPU-side operations (FabricConfig::reg_cost), which is exactly what makes
// the paper's registration cache worthwhile.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ib/types.hpp"
#include "sim/task.hpp"

namespace ib {

class Hca;
class ProtectionDomain;

class MemoryRegion {
 public:
  MemoryRegion(ProtectionDomain& pd, std::byte* addr, std::size_t length,
               std::uint32_t access, std::uint32_t lkey, std::uint32_t rkey)
      : pd_(&pd),
        addr_(addr),
        length_(length),
        access_(access),
        lkey_(lkey),
        rkey_(rkey) {}

  std::byte* addr() const noexcept { return addr_; }
  std::size_t length() const noexcept { return length_; }
  std::uint32_t access() const noexcept { return access_; }
  std::uint32_t lkey() const noexcept { return lkey_; }
  std::uint32_t rkey() const noexcept { return rkey_; }
  ProtectionDomain& pd() const noexcept { return *pd_; }
  bool valid() const noexcept { return valid_; }

  bool contains(const std::byte* p, std::size_t n) const noexcept {
    return valid_ && p >= addr_ && p + n <= addr_ + length_;
  }
  bool contains(std::uint64_t va, std::size_t n) const noexcept {
    return contains(reinterpret_cast<const std::byte*>(va), n);
  }

 private:
  friend class ProtectionDomain;
  ProtectionDomain* pd_;
  std::byte* addr_;
  std::size_t length_;
  std::uint32_t access_;
  std::uint32_t lkey_;
  std::uint32_t rkey_;
  bool valid_ = true;
};

class ProtectionDomain {
 public:
  explicit ProtectionDomain(Hca& hca, std::uint32_t id)
      : hca_(&hca), id_(id) {}
  ProtectionDomain(const ProtectionDomain&) = delete;
  ProtectionDomain& operator=(const ProtectionDomain&) = delete;
  ~ProtectionDomain();

  /// Names the one pointer that refers to this PD from an owner that may
  /// outlive it (a Window in a coroutine frame that the simulator destroys
  /// after the fabric): the destructor sets `*holder` to nullptr.  nullptr
  /// detaches.
  void set_holder(ProtectionDomain** holder) noexcept { holder_ = holder; }

  /// Registers [addr, addr+length) with the given access rights.  Charges
  /// the calling process the modelled registration cost.
  sim::Task<MemoryRegion*> register_memory(void* addr, std::size_t length,
                                           std::uint32_t access = kAllAccess);

  /// Deregisters a region: charges the modelled cost, then invalidate()s
  /// it.
  sim::Task<void> deregister(MemoryRegion* mr);

  /// Invalidates a region's keys at once, charging nothing; for owners
  /// that release the memory without a process to charge (a destructor).
  /// Remote accesses fail with kRemoteAccessError from now on, including
  /// an RDMA write that validated earlier and has not landed yet.
  void invalidate(MemoryRegion* mr);

  /// Validates an SGE against this PD (lkey exists, covers the range, and
  /// grants local access).
  bool check_sge(const Sge& sge) const;

  /// rkey lookup for incoming RDMA validation.
  const MemoryRegion* find_rkey(std::uint32_t rkey) const {
    auto it = by_rkey_.find(rkey);
    return it == by_rkey_.end() ? nullptr : it->second;
  }

  Hca& hca() const noexcept { return *hca_; }
  std::uint32_t id() const noexcept { return id_; }
  std::size_t region_count() const noexcept { return by_rkey_.size(); }
  std::int64_t registered_bytes() const noexcept { return registered_bytes_; }

 private:
  Hca* hca_;
  std::uint32_t id_;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
  std::unordered_map<std::uint32_t, MemoryRegion*> by_rkey_;
  std::unordered_map<std::uint32_t, MemoryRegion*> by_lkey_;
  std::int64_t registered_bytes_ = 0;
  ProtectionDomain** holder_ = nullptr;
};

}  // namespace ib
