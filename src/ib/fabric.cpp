#include "ib/fabric.hpp"

#include "ib/hca.hpp"

namespace ib {

Fabric::Fabric(sim::Simulator& sim, FabricConfig cfg)
    : sim_(&sim), cfg_(cfg), rng_(cfg.inject_seed) {}

Fabric::~Fabric() = default;

Node& Fabric::add_node(std::string name) {
  const int id = static_cast<int>(nodes_.size());
  if (name.empty()) name = "node" + std::to_string(id);
  nodes_.push_back(std::make_unique<Node>(*this, id, std::move(name)));
  return *nodes_.back();
}

sim::Task<sim::Tick> Fabric::book_path(Port& src, Port& dst, std::int64_t n,
                                       sim::FaultSchedule::DegradeSpec deg) {
  // Even a zero-byte operation moves a transport header.
  if (n <= 0) n = 16;
  sim::Simulator& s = *sim_;
  Node& src_node = src.hca().node();
  Node& dst_node = dst.hca().node();
  const std::int64_t chunk_max = cfg_.dma_chunk_bytes;
  // Bound how far the engine may book the TX link ahead of real time: deep
  // enough that consecutive chunks/WQEs keep the wire saturated, shallow
  // enough that later small descriptors (pointer updates) are not starved.
  const sim::Tick backlog_bound =
      4 * sim::transfer_time(chunk_max, src.mbps());

  // Gray-failure shaping: a degraded link serializes chunks slower
  // (service-time multiplier on the TX stage) and adds/stretches wire
  // latency.  tmult == 1.0 and the untouched `wire` below are the exact
  // fault-free arithmetic, so armed-but-clean traces stay bit-identical.
  double tmult = 1.0;
  sim::Tick wire = cfg_.wire_latency;
  if (deg.active()) {
    if (deg.bandwidth_mult > 0.0) tmult = 1.0 / deg.bandwidth_mult;
    wire = deg.latency_add +
           static_cast<sim::Tick>(deg.latency_mult *
                                  static_cast<double>(cfg_.wire_latency));
  }

  bool first = true;
  sim::Tick delivered = s.now();
  std::int64_t remaining = n;
  while (remaining > 0) {
    const std::int64_t chunk = remaining < chunk_max ? remaining : chunk_max;
    remaining -= chunk;
    // Source DMA read; the engine paces itself on this stage so that CPU
    // copies contend with DMA at chunk granularity.  The bus is shared by
    // every rail of the node -- the aggregate cap multirail cannot exceed.
    const sim::Tick s_done = src_node.bus().reserve(chunk);
    co_await s.delay_until(s_done);
    // Wire serialization (FIFO across all QPs bound to this port).
    const sim::Tick l_done =
        src.tx_link().reserve_from(s.now(), chunk, tmult);
    sim::Tick arrive = l_done + wire;
    if (first) {
      arrive += cfg_.rx_overhead;
      first = false;
    }
    // Destination-side stages are booked ahead of their start time; the
    // FIFO gap this can leave is bounded by one wire latency (DESIGN.md).
    const sim::Tick r_done = dst.rx_link().reserve_from(arrive, chunk);
    delivered = dst_node.bus().reserve_from(r_done, chunk);
    if (l_done > s.now() + backlog_bound) {
      co_await s.delay_until(l_done - backlog_bound);
    }
  }
  src.hca().bytes_tx += n;
  co_return delivered;
}

}  // namespace ib
