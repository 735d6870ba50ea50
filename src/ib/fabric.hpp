// The switched fabric: owns the nodes, the timing configuration, key/QP
// number allocation, and the staged data-path booking shared by all
// transfer types.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ib/config.hpp"
#include "ib/node.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace ib {

class Port;
class QueuePair;

class Fabric {
 public:
  explicit Fabric(sim::Simulator& sim, FabricConfig cfg = {});
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric();

  /// Adds a processing node (host + HCA) to the fabric.
  Node& add_node(std::string name = {});

  Node& node(std::size_t i) const { return *nodes_.at(i); }
  std::size_t node_count() const noexcept { return nodes_.size(); }

  sim::Simulator& sim() const noexcept { return *sim_; }
  const FabricConfig& cfg() const noexcept { return cfg_; }
  sim::Rng& rng() noexcept { return rng_; }

  void attach_tracer(sim::TraceSink* sink) { tracer_.attach(sink); }
  const sim::Tracer& tracer() const noexcept { return tracer_; }

  /// Deterministic fault injection (like the tracer: nullable, test-owned).
  /// QP send engines consult the schedule once per processed WQE, scoped by
  /// the initiating node's name.
  void attach_faults(sim::FaultSchedule* faults) { faults_ = faults; }
  sim::FaultSchedule* faults() const noexcept { return faults_; }

  std::uint32_t next_key() noexcept { return ++key_counter_; }
  std::uint32_t next_qpn() noexcept { return ++qpn_counter_; }

  /// QP-number directory, the moral equivalent of the subnet manager's
  /// path records: lets bootstrap code connect QPs after exchanging bare
  /// QP numbers through the process manager's KVS.
  void register_qp(std::uint32_t qpn, QueuePair* qp) { qp_dir_[qpn] = qp; }
  QueuePair* find_qp(std::uint32_t qpn) const {
    auto it = qp_dir_.find(qpn);
    return it == qp_dir_.end() ? nullptr : it->second;
  }

  /// Books the chunked data path for `n` bytes from port `src` to port
  /// `dst` (src bus -> src tx link -> wire -> dst rx link -> dst bus; a
  /// QP's traffic rides its bound rail) and returns the absolute delivery
  /// time of the last chunk.  Resumes the caller once the *source-side*
  /// stages are fully booked so the caller can pipeline its next
  /// descriptor behind this one.  `deg` carries a
  /// gray-failure degrade for this transfer (extra wire latency, scaled
  /// link service time); the default inactive spec takes the exact
  /// fault-free arithmetic path, keeping clean traces bit-identical.
  /// Passed by value: coroutine parameters are copied into the frame, so
  /// no reference can dangle across suspension.
  sim::Task<sim::Tick> book_path(Port& src, Port& dst, std::int64_t n,
                                 sim::FaultSchedule::DegradeSpec deg = {});

 private:
  friend class QueuePair;

  sim::Simulator* sim_;
  FabricConfig cfg_;
  sim::Tracer tracer_;
  sim::FaultSchedule* faults_ = nullptr;
  sim::Rng rng_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::uint32_t, QueuePair*> qp_dir_;
  /// (QP number, wr_id) of signaled RDMA writes NAKed at delivery whose
  /// success CQE is still queued: QueuePair turns that CQE into
  /// kRemoteAccessError when it fires.  Empty unless a target invalidated
  /// a region under an in-flight write.  Kept here rather than in each
  /// QueuePair so a QP's size does not pay for the rare case.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> late_naks_;
  std::uint32_t key_counter_ = 100;
  std::uint32_t qpn_counter_ = 0;
};

}  // namespace ib
