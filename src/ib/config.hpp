// Timing model of the paper's testbed.
//
// The calibration targets are the raw numbers the paper reports for its
// InfiniBand platform (Mellanox InfiniHost MT23108 on PCI-X 133, InfiniScale
// switch, dual 2.4 GHz Xeon, 512 KB L2):
//
//   * verbs-level RDMA write latency (small)   : 5.9 us
//   * verbs-level RDMA write peak bandwidth    : 870 MB/s   (MB = 1e6 B)
//   * verbs-level RDMA read  latency (small)   : ~11 us (fig 15 shape)
//   * standalone memcpy bandwidth (large)      : < 800 MB/s (section 4.4)
//
// Decomposition for a small RDMA write:
//   wqe_overhead (0.8) + wire_latency (4.1) + rx_overhead (1.0)  = 5.9 us
// A small RDMA read adds the request round trip and responder turnaround:
//   wqe (0.8) + wire (4.1) + responder_overhead (1.5) + wire (4.1) + rx (1.0)
//   = 11.5 us.
//
// The memory bus is modelled as a per-node FIFO bandwidth server of
// 1600 MB/s raw.  A CPU copy of n bytes consumes 2n bus-bytes while the
// working set fits in L2 (read + write traffic) and 3n beyond it
// (write-allocate plus dirty eviction), giving 800 / 533 MB/s standalone
// copy bandwidth -- the effect behind both the pipelining design's plateau
// (~bus/3) and its large-message droop (~bus/4), per Figures 8, 9, 11.
// DMA consumes n bus-bytes on each end.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace ib {

struct FabricConfig {
  // -- link / wire ---------------------------------------------------------
  /// Effective point-to-point data rate of HCA + PCI-X + 4X link (MB/s).
  double link_mbps = 870.0;
  /// HCAs per node and ports per HCA.  A (hca, port) pair is one *rail*:
  /// its own link bandwidth servers, its own failure domain.  Rails are
  /// flat-indexed r = hca * ports_per_hca + port; rail 0 is the legacy
  /// single-port fabric, and with the 1x1 default every timing is
  /// bit-identical to the pre-multirail model.  Paper-era clusters shipped
  /// dual-port InfiniHosts; the shared PCI-X memory bus (bus_mbps) still
  /// caps the aggregate, exactly as it did on real hardware.
  int num_hcas = 1;
  int ports_per_hca = 1;
  /// Optional per-rail link rate override (asymmetric fabrics: a fast and a
  /// slow rail).  Rails beyond the vector, or entries <= 0, use link_mbps.
  std::vector<double> rail_link_mbps;
  /// One-way propagation including switch traversal and MAC framing.
  sim::Tick wire_latency = sim::usec(4.1);
  /// RC acknowledgement propagation (sender-side CQE lags delivery by this).
  sim::Tick ack_latency = sim::usec(4.1);

  // -- HCA processing ------------------------------------------------------
  /// Per-WQE fetch/processing at the initiator.
  sim::Tick wqe_overhead = sim::usec(0.8);
  /// Receive-side processing charged once per incoming message.
  sim::Tick rx_overhead = sim::usec(1.0);
  /// Responder-side turnaround for an RDMA read request.
  sim::Tick read_responder_overhead = sim::usec(1.5);
  /// Maximum RDMA reads a QP may have in flight (the InfiniHost-era
  /// outstanding-read context limit).  This -- the per-read request round
  /// trip it forces -- is what depresses mid-size RDMA read bandwidth
  /// relative to RDMA write (Figure 15).
  int max_outstanding_reads = 1;

  // -- host memory system --------------------------------------------------
  /// Raw memory-bus rate (MB/s); memcpy sees bus/2 or bus/3 of this.
  double bus_mbps = 1600.0;
  /// Working sets larger than this copy at 3 bus-bytes/byte instead of 2.
  std::int64_t cache_bytes = 256 * 1024;
  double copy_factor_cached = 2.0;
  double copy_factor_uncached = 3.0;

  // -- memory registration (section 5: "expensive operations") --------------
  sim::Tick reg_base = sim::usec(10.0);
  sim::Tick reg_per_page = sim::nsec(250.0);
  sim::Tick dereg_base = sim::usec(5.0);
  sim::Tick dereg_per_page = sim::nsec(50.0);
  std::int64_t page_bytes = 4096;

  // -- modelling knobs ------------------------------------------------------
  /// Stage-interleaving granularity for the DMA data path (link stages).
  std::int64_t dma_chunk_bytes = 8192;
  /// Interleaving granularity for CPU copies on the memory bus; finer than
  /// the DMA chunk so copies can slot into the gaps between DMA bookings.
  std::int64_t bus_chunk_bytes = 2048;
  /// Probability that one transmission attempt of a work request fails --
  /// 0 in all benchmarks; used by failure-injection tests.  The RC service
  /// retransmits transparently (as real HCAs do): after a failed initial
  /// attempt the HCA retries up to `retry_count` times (one "retransmit"
  /// trace record and one `retry_delay` each), and the WQE completes with
  /// kTransportError only when all retry_count + 1 consecutive attempts
  /// fail.  With retry_count = 0 every attempt failure surfaces directly.
  /// Exhaustion is an RC error like any other: the QP enters the error
  /// state and everything posted behind the victim flushes.  The error CQE
  /// lags the final attempt by the NAK round trip (2 * wire_latency).
  /// Pinned by Inject.RetryStormTimingMatchesDoc.
  double inject_error_rate = 0.0;
  std::uint64_t inject_seed = 1;
  int retry_count = 7;
  sim::Tick retry_delay = sim::usec(10.0);
  /// HCA pin-down limit: total bytes register_memory may have outstanding
  /// per protection domain before it fails with RegistrationError (real
  /// HCAs run out of translation/pinning resources).  0 = unlimited.
  std::int64_t max_registered_bytes = 0;

  sim::Tick reg_cost(std::int64_t bytes) const {
    const std::int64_t pages = (bytes + page_bytes - 1) / page_bytes;
    return reg_base + pages * reg_per_page;
  }
  sim::Tick dereg_cost(std::int64_t bytes) const {
    const std::int64_t pages = (bytes + page_bytes - 1) / page_bytes;
    return dereg_base + pages * dereg_per_page;
  }
  double copy_factor(std::int64_t working_set) const {
    return working_set > cache_bytes ? copy_factor_uncached
                                     : copy_factor_cached;
  }
  int num_rails() const noexcept { return num_hcas * ports_per_hca; }
  double rail_mbps(int rail) const {
    if (rail >= 0 && rail < static_cast<int>(rail_link_mbps.size()) &&
        rail_link_mbps[static_cast<std::size_t>(rail)] > 0.0) {
      return rail_link_mbps[static_cast<std::size_t>(rail)];
    }
    return link_mbps;
  }
};

}  // namespace ib
