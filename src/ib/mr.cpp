#include "ib/mr.hpp"

#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "ib/node.hpp"

namespace ib {

ProtectionDomain::~ProtectionDomain() {
  if (holder_ != nullptr) *holder_ = nullptr;
}

sim::Task<MemoryRegion*> ProtectionDomain::register_memory(
    void* addr, std::size_t length, std::uint32_t access) {
  if (addr == nullptr || length == 0) {
    throw VerbsError("register_memory: empty region");
  }
  Fabric& fabric = hca_->fabric();
  if (sim::FaultSchedule* faults = fabric.faults(); faults != nullptr) {
    // Scope "<node>.reg": injected pin-down exhaustion.  Surfaces like the
    // real limit below -- before any pinning work is charged -- so callers
    // exercise the same RegistrationError degradation path.
    if (faults->check(hca_->node().name() + ".reg")) {
      fabric.tracer().record(fabric.sim().now(), hca_->node().name(),
                             "fault_reg", static_cast<std::int64_t>(length),
                             0);
      throw RegistrationError(
          "register_memory: injected registration failure (resource "
          "exhaustion)");
    }
  }
  const std::int64_t limit = fabric.cfg().max_registered_bytes;
  if (limit > 0 &&
      registered_bytes_ + static_cast<std::int64_t>(length) > limit) {
    // Fail fast, before pinning work is charged (the hardware rejects the
    // request at translation-table allocation time).
    throw RegistrationError("register_memory: pin-down limit exceeded (" +
                            std::to_string(registered_bytes_) + " + " +
                            std::to_string(length) + " > " +
                            std::to_string(limit) + " bytes)");
  }
  co_await hca_->node().compute(
      fabric.cfg().reg_cost(static_cast<std::int64_t>(length)));
  const std::uint32_t lkey = fabric.next_key();
  const std::uint32_t rkey = fabric.next_key();
  auto mr = std::make_unique<MemoryRegion>(
      *this, static_cast<std::byte*>(addr), length, access, lkey, rkey);
  MemoryRegion* raw = mr.get();
  by_rkey_.emplace(rkey, raw);
  by_lkey_.emplace(lkey, raw);
  registered_bytes_ += static_cast<std::int64_t>(length);
  regions_.push_back(std::move(mr));
  fabric.tracer().record(fabric.sim().now(), hca_->node().name(), "reg_mr",
                         static_cast<std::int64_t>(length), rkey);
  co_return raw;
}

sim::Task<void> ProtectionDomain::deregister(MemoryRegion* mr) {
  if (mr == nullptr || !mr->valid() || &mr->pd() != this) {
    throw VerbsError("deregister: region not registered with this PD");
  }
  Fabric& fabric = hca_->fabric();
  co_await hca_->node().compute(
      fabric.cfg().dereg_cost(static_cast<std::int64_t>(mr->length())));
  fabric.tracer().record(fabric.sim().now(), hca_->node().name(), "dereg_mr",
                         static_cast<std::int64_t>(mr->length()), mr->rkey());
  invalidate(mr);
}

void ProtectionDomain::invalidate(MemoryRegion* mr) {
  if (mr == nullptr || !mr->valid() || &mr->pd() != this) {
    throw VerbsError("invalidate: region not registered with this PD");
  }
  by_rkey_.erase(mr->rkey());
  by_lkey_.erase(mr->lkey());
  registered_bytes_ -= static_cast<std::int64_t>(mr->length());
  mr->valid_ = false;
  // The MemoryRegion object stays alive (invalidated) so dangling handles
  // fail validation instead of dereferencing freed memory.
}

bool ProtectionDomain::check_sge(const Sge& sge) const {
  auto it = by_lkey_.find(sge.lkey);
  if (it == by_lkey_.end()) return false;
  return it->second->contains(sge.addr, sge.length);
}

}  // namespace ib
