// The CH3 interface.
//
// MPICH2's CH3 is "a layer that implements the ADI3 functions and provides
// an interface consisting of only a dozen functions"; a channel implements
// it (paper section 3.1).  This module defines our CH3 contract between
// the MPI engine (the ADI3 role) and a channel:
//
//   engine -> channel : init / finalize / start_send / rndv_recv_ready /
//                       progress_once / activity waiting
//   channel -> engine : on_eager (sink request), on_eager_complete,
//                       on_rts, on_rndv_complete
//
// Two implementations exist:
//   * AdapterChannel  -- CH3 over the five-function RDMA Channel interface
//                        (the paper's main design): messages are serialized
//                        as [header|payload] byte streams through put/get;
//                        large-message handling (pipelining, zero-copy) is
//                        entirely the RDMA channel's business, which is why
//                        "get is always called after put for large
//                        messages".
//   * IbDirectChannel -- CH3 implemented directly over the verbs layer
//                        (paper section 6): eager messages use the slot
//                        ring, large messages a CH3-level RTS/CTS/FIN
//                        handshake with RDMA *write* (Figure 12).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "ch3/packet.hpp"
#include "rdmach/channel.hpp"
#include "sim/task.hpp"

namespace ch3 {

/// Fatal failure of one virtual connection: the underlying channel
/// declared the peer unreachable (recovery budget exhausted).  Recoverable
/// transport errors never surface at CH3 -- the channel heals them
/// internally; what reaches here is final, and names the peer so the
/// engine (or the application) can fence it off.
class VcError : public std::runtime_error {
 public:
  VcError(int peer, const std::string& what)
      : std::runtime_error(what), peer_(peer) {}
  int peer() const noexcept { return peer_; }

 private:
  int peer_;
};

/// Where an eager payload must be placed (matched user buffer or an
/// engine-owned temporary), plus an engine cookie identifying the message.
struct Sink {
  std::byte* dst = nullptr;
  std::uint64_t cookie = 0;
};

/// Send-request state shared between engine and channel.
struct SendReq {
  bool done = false;
};

/// Engine-side upcalls (implemented by mpi::Engine).
class EngineHooks {
 public:
  virtual ~EngineHooks() = default;

  /// An eager header arrived from `src`; the engine returns the sink the
  /// payload bytes must be delivered to.
  virtual Sink on_eager(int src, const MatchHeader& hdr) = 0;
  /// All `hdr.length` payload bytes have been placed into the sink.
  virtual void on_eager_complete(const Sink& sink, const MatchHeader& hdr) = 0;

  /// A rendezvous RTS arrived; the engine answers -- immediately or after a
  /// matching receive is posted -- by calling rndv_recv_ready(src, token,..).
  virtual void on_rts(int src, const MatchHeader& hdr, std::uint64_t token) = 0;
  /// A rendezvous receive finished (FIN processed; data is in place).
  virtual void on_rndv_complete(std::uint64_t cookie) = 0;
};

class Ch3Channel {
 public:
  virtual ~Ch3Channel() = default;

  virtual sim::Task<void> init(EngineHooks& hooks) = 0;
  virtual sim::Task<void> finalize() = 0;

  /// Starts a (nonblocking) message send; `req->done` flips once the user
  /// buffer may be reused.  Sends on one VC complete in start order.
  virtual void start_send(int dst, const MatchHeader& hdr, const void* payload,
                          SendReq* req) = 0;

  /// Engine response to on_rts: the matching receive's buffer.  `cookie` is
  /// handed back through on_rndv_complete.
  virtual void rndv_recv_ready(int src, std::uint64_t token, void* dst,
                               std::size_t len, std::uint64_t cookie) = 0;

  /// Advances sends and receives on all VCs; returns true if anything moved.
  virtual sim::Task<bool> progress_once() = 0;

  /// Blocking wait for possible new activity (paired with activity_count()).
  virtual sim::Task<void> wait_for_activity() = 0;
  virtual std::uint64_t activity_count() const = 0;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Protocol/traffic counters of the transport underneath (empty when the
  /// implementation keeps none).
  virtual rdmach::ChannelStats channel_stats() const {
    return rdmach::ChannelStats{};
  }

  /// Zeroes the counters behind channel_stats() (see Channel::reset_stats)
  /// so a harness can measure one workload phase exactly, bootstrap
  /// traffic excluded.  No-op when the implementation keeps none.
  virtual void reset_channel_stats() {}
};

/// Which CH3 implementation an MPI job runs on.
enum class Stack { kRdmaChannel, kCh3Direct };

const char* to_string(Stack s);

struct StackConfig {
  Stack stack = Stack::kRdmaChannel;
  rdmach::ChannelConfig channel;
  /// CH3-direct only: messages >= this go rendezvous (RDMA write).
  std::size_t rndv_threshold = 32 * 1024;
};

std::unique_ptr<Ch3Channel> make_channel(pmi::Context& ctx,
                                         const StackConfig& cfg);

}  // namespace ch3
