// Verbs-level value types: work requests, scatter/gather entries, and
// completions.  These mirror the InfiniBand transport-layer consumer
// interface (descriptors posted to work queues, completions reported
// through completion queues).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace ib {

enum class Opcode : std::uint8_t {
  kSend,       // channel semantics: consumes a posted receive at the target
  kRdmaWrite,  // memory semantics: one-sided write, transparent to target SW
  kRdmaRead,   // memory semantics: one-sided read ("pull")
  // 64-bit remote atomics (the "atomic operations in InfiniBand" of the
  // paper's future-work section).  Both return the prior value into the
  // 8-byte local SGE and share the outstanding-read context limit.
  kFetchAdd,
  kCompareSwap,
};

enum class WcStatus : std::uint8_t {
  kSuccess,
  kLocalProtectionError,   // bad lkey / SGE outside registered region
  kRemoteAccessError,      // bad rkey / bounds / missing remote permission
  kTransportError,         // injected transport failure
  kFlushError,             // QP moved to error state before execution
};

/// Status name for diagnostics ("remote-access-error", ...).
const char* to_string(WcStatus s);

/// Memory-region access rights (a registration must name every right it
/// grants; RDMA operations are validated against them).
enum Access : std::uint32_t {
  kLocalWrite = 1u << 0,
  kRemoteWrite = 1u << 1,
  kRemoteRead = 1u << 2,
  kRemoteAtomic = 1u << 3,
  kAllAccess = kLocalWrite | kRemoteWrite | kRemoteRead | kRemoteAtomic,
};

/// Scatter/gather element of a work request.
struct Sge {
  std::byte* addr = nullptr;
  std::size_t length = 0;
  std::uint32_t lkey = 0;
};

/// Send-queue work request (a "descriptor" in the paper's terminology).
struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  std::vector<Sge> sgl;
  /// RDMA only: remote virtual address and the rkey obtained at
  /// registration time on the remote side.
  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;
  /// Unsignaled requests produce no CQE on success (errors always do).
  bool signaled = true;
  /// kFetchAdd: the addend.  kCompareSwap: the expected value.
  std::uint64_t atomic_arg = 0;
  /// kCompareSwap: the value stored if the comparison succeeds.
  std::uint64_t atomic_swap = 0;

  std::size_t total_length() const {
    std::size_t n = 0;
    for (const auto& s : sgl) n += s.length;
    return n;
  }
};

/// Receive-queue work request.
struct RecvWr {
  std::uint64_t wr_id = 0;
  std::vector<Sge> sgl;

  std::size_t total_length() const {
    std::size_t n = 0;
    for (const auto& s : sgl) n += s.length;
    return n;
  }
};

/// Completion-queue entry.
struct Wc {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  Opcode opcode = Opcode::kSend;
  std::size_t byte_len = 0;
  std::uint32_t qp_num = 0;
  bool is_recv = false;
};

/// Thrown for API misuse (posting to an unconnected QP, bad arguments).
/// Runtime data-path failures are reported through Wc::status instead.
class VerbsError : public std::logic_error {
  using std::logic_error::logic_error;
};

/// Thrown when register_memory cannot pin more memory (the per-PD
/// FabricConfig::max_registered_bytes limit).  A runtime condition, not a
/// programming error: callers such as the registration cache respond by
/// evicting and retrying.
class RegistrationError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace ib
