#include "rdmach/multi_method_channel.hpp"

#include "rdmach/shm_channel.hpp"
#include "rdmach/zerocopy_channel.hpp"

namespace rdmach {

MultiMethodChannel::MultiMethodChannel(pmi::Context& ctx,
                                       const ChannelConfig& cfg)
    : Channel(ctx, cfg),
      activity_(std::make_unique<sim::Trigger>(ctx.sim())) {
  ChannelConfig shm_cfg = cfg;
  shm_cfg.design = Design::kShm;
  shm_ = std::make_unique<ShmChannel>(ctx, shm_cfg);
  ChannelConfig net_cfg = cfg;
  net_cfg.design = Design::kZeroCopy;
  net_ = std::make_unique<ZeroCopyChannel>(ctx, net_cfg);
}

MultiMethodChannel::~MultiMethodChannel() = default;

bool MultiMethodChannel::is_local(int peer) const {
  const auto& c = conns_.at(static_cast<std::size_t>(peer));
  return c != nullptr && c->via == shm_.get();
}

sim::Task<void> MultiMethodChannel::init() {
  // Publish my node id so every peer can route by locality.
  ctx_->kvs->put("mm:node:" + std::to_string(rank()),
                 {static_cast<std::uint64_t>(ctx_->node->id())});
  co_await shm_->init();
  co_await net_->init();

  conns_.resize(static_cast<std::size_t>(size()));
  for (int p = 0; p < size(); ++p) {
    if (p == rank()) continue;
    const pmi::Record& peer_node =
        *co_await ctx_->kvs->get("mm:node:" + std::to_string(p));
    auto routed = std::make_unique<Routed>();
    routed->peer = p;
    const bool local =
        peer_node[0] == static_cast<std::uint64_t>(ctx_->node->id());
    routed->via = local ? shm_.get() : net_.get();
    routed->inner = &routed->via->connection(p);
    conns_[static_cast<std::size_t>(p)] = std::move(routed);
  }

  // Relay both sub-channels' wakeups into one trigger so progress loops
  // have a single thing to sleep on.
  sim::Simulator& sim = ctx_->sim();
  sim.spawn_daemon(
      [](Channel* ch, sim::Trigger* t) -> sim::Task<void> {
        for (;;) {
          co_await ch->wait_for_activity();
          t->fire();
        }
      }(shm_.get(), activity_.get()),
      "mm-shm-relay");
  sim.spawn_daemon(
      [](Channel* ch, sim::Trigger* t) -> sim::Task<void> {
        for (;;) {
          co_await ch->wait_for_activity();
          t->fire();
        }
      }(net_.get(), activity_.get()),
      "mm-net-relay");
}

sim::Task<void> MultiMethodChannel::finalize() {
  // Verbs first: its recovery-aware drain must replay a rank's last lost
  // write before the shm barrier parks that rank for good.
  co_await net_->finalize();
  co_await shm_->finalize();
}

Connection& MultiMethodChannel::connection(int peer) {
  auto& c = conns_.at(static_cast<std::size_t>(peer));
  if (!c) throw std::logic_error("no connection to self");
  return *c;
}

sim::Task<std::size_t> MultiMethodChannel::put(Connection& conn,
                                               std::span<const ConstIov> iovs) {
  auto& r = static_cast<Routed&>(conn);
  co_return co_await r.via->put(*r.inner, iovs);
}

sim::Task<std::size_t> MultiMethodChannel::get(Connection& conn,
                                               std::span<const Iov> iovs) {
  auto& r = static_cast<Routed&>(conn);
  co_return co_await r.via->get(*r.inner, iovs);
}

sim::Task<void> MultiMethodChannel::wait_for_activity() {
  co_await activity_->wait();
}

std::uint64_t MultiMethodChannel::activity_count() const {
  return shm_->activity_count() + net_->activity_count();
}

}  // namespace rdmach
