// Packet framing over the RDMA Channel byte pipes.
//
// Both CH3 channel implementations move (at least their eager and control)
// traffic as a per-VC byte stream of [PktHeader | payload] frames through
// rdmach put/get.  StreamMux owns the per-VC framing state machines:
// send-side queueing and partial-put retry, receive-side header
// reassembly and payload delivery into handler-provided sinks.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "ch3/ch3.hpp"
#include "ch3/packet.hpp"
#include "rdmach/channel.hpp"

namespace ch3 {

/// Packet-level callbacks (one level below EngineHooks).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  /// A full header arrived from `src`.  For payload-bearing packets return
  /// the destination; for pure control packets handle it and return a null
  /// sink.
  virtual Sink on_packet(int src, const PktHeader& hdr) = 0;
  /// The payload announced by `hdr` is fully placed in `sink`.
  virtual void on_payload_done(int src, const PktHeader& hdr,
                               const Sink& sink) = 0;
};

class StreamMux {
 public:
  StreamMux(rdmach::Channel& ch, PacketHandler& handler)
      : ch_(&ch), handler_(&handler), vcs_(static_cast<std::size_t>(ch.size())) {}

  /// Queues a frame; `on_streamed` (optional) fires when the last byte has
  /// been accepted by the channel.
  void enqueue(int dst, const PktHeader& hdr, const void* payload,
               std::size_t len, std::function<void()> on_streamed = {});

  /// Pushes queued sends and drains incoming frames on every VC.
  /// Returns true if any byte moved or any packet completed.
  sim::Task<bool> progress();

 private:
  struct OutMsg {
    PktHeader hdr;
    const std::byte* payload = nullptr;
    std::size_t len = 0;
    std::size_t sent = 0;  // of sizeof(PktHeader) + len
    std::function<void()> on_streamed;
  };

  /// A fully accepted frame whose bytes the channel still holds on loan
  /// (put_pinned): `on_streamed` fires once the release watermark passes
  /// `mark`.  Channels without loaned rendezvous release on accept, so the
  /// callback fires in the same progress pass as before.
  struct PendingRelease {
    std::uint64_t mark = 0;
    std::function<void()> on_streamed;
  };

  /// A frame read *past* an in-flight rendezvous via the channel's
  /// lookahead interface (rndv_lookahead() > 0).  Its header and any eager
  /// payload bytes are drained out of the pipe behind the current frame;
  /// a rendezvous payload is handed to the channel with attach_rndv() so
  /// its data leg overlaps the current frame's.  When the current frame
  /// completes, the oldest ahead frame is promoted in its place --
  /// completion callbacks stay in stream order.
  struct AheadFrame {
    alignas(8) std::byte hdr_buf[sizeof(PktHeader)];
    std::size_t hdr_got = 0;
    bool have_hdr = false;
    PktHeader hdr;
    Sink sink;
    std::size_t got = 0;    // payload bytes drained ahead (eager frames)
    bool attached = false;  // rendezvous sink handed to the channel
  };

  struct Vc {
    std::deque<OutMsg> sendq;
    std::deque<PendingRelease> await_release;
    // receive framing
    alignas(8) std::byte hdr_buf[sizeof(PktHeader)];
    std::size_t hdr_got = 0;
    bool in_payload = false;
    PktHeader rhdr;
    Sink sink;
    std::size_t payload_got = 0;
    std::deque<AheadFrame> ahead;  // frames beyond the current payload
  };

  /// Failure-detector piggyback (channel config ft_detector): outgoing
  /// frames carry one obituaried rank (+1; 0 = none) in the header's
  /// reserved word, and every parsed header feeds the local board -- a
  /// death known anywhere spreads along all existing traffic without
  /// extra packets.  With the detector off both are no-ops and the wire
  /// bytes stay bit-identical (reserved stays 0).
  void stamp_obit(PktHeader& hdr);
  void note_obit(const PktHeader& hdr);
  /// True (and all VC state dropped) when `peer` has a published obituary:
  /// the VC is fenced off and progress passes skip it entirely.
  bool fence_dead(int peer, Vc& vc);

  sim::Task<bool> progress_send(int peer, Vc& vc);
  sim::Task<bool> progress_recv(int peer, Vc& vc);
  /// Reads frames behind an in-flight rendezvous payload (see AheadFrame).
  sim::Task<bool> progress_lookahead(int peer, Vc& vc);
  /// Fires on_streamed callbacks whose loaned bytes the channel released.
  /// Called from both progress directions: the release-advancing ack can
  /// be consumed by either, and the waiting sender must learn of it before
  /// the next inbound frame is parsed.
  bool drain_releases(int peer, Vc& vc);

  rdmach::Channel* ch_;
  PacketHandler* handler_;
  std::vector<Vc> vcs_;
  /// Sparse iteration (lazy-connect channels): peers with queued or loaned
  /// sends, sorted unique.  The union of this and the channel's active set
  /// is everything a progress pass can move; all other VCs are provably
  /// idle.  Unused (empty) when the channel reports no active set.
  std::vector<int> work_;
  std::vector<int> scratch_;  // per-pass snapshot of the union
  /// Round-robin index into the obituary board for stamp_obit.
  std::size_t obit_cursor_ = 0;
};

}  // namespace ch3
