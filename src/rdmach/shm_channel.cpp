#include "rdmach/shm_channel.hpp"

#include <algorithm>

namespace rdmach {

sim::Task<void> ShmChannel::init() {
  pmi::Kvs& kvs = *ctx_->kvs;
  auto key = [](int from, int to) {
    return "shm:" + std::to_string(from) + ":" + std::to_string(to);
  };
  // One record per pair: {my inbound ring from the peer, this channel}.
  conns_.resize(static_cast<std::size_t>(size()));
  for (int p = 0; p < size(); ++p) {
    if (p == rank()) continue;
    auto conn = std::make_unique<ShmConnection>();
    conn->peer = p;
    conn->in = std::make_unique<Ring>();
    conn->in->buf.assign(kRingBytes, std::byte{0});
    kvs.put(key(rank(), p), {reinterpret_cast<std::uint64_t>(conn->in.get()),
                             reinterpret_cast<std::uint64_t>(this)});
    conns_[static_cast<std::size_t>(p)] = std::move(conn);
  }
  for (int p = 0; p < size(); ++p) {
    if (p == rank()) continue;
    ShmConnection& c = *conns_[static_cast<std::size_t>(p)];
    const pmi::Record& peer = *co_await kvs.get(key(p, rank()));
    c.out = reinterpret_cast<Ring*>(peer[0]);
    c.peer_chan = reinterpret_cast<ShmChannel*>(peer[1]);
  }
  co_await ctx_->barrier->arrive();
}

sim::Task<void> ShmChannel::finalize() { co_await ctx_->barrier->arrive(); }

Connection& ShmChannel::connection(int peer) {
  auto& c = conns_.at(static_cast<std::size_t>(peer));
  if (!c) throw std::logic_error("no connection to self");
  return *c;
}

sim::Task<std::size_t> ShmChannel::put(Connection& conn,
                                       std::span<const ConstIov> iovs) {
  auto& c = static_cast<ShmConnection&>(conn);
  co_await ctx_->node->compute(kPerCallOverhead);
  Ring& r = *c.out;
  const std::size_t R = r.buf.size();
  const std::size_t total = total_length(iovs);
  std::size_t n = std::min(total, R - static_cast<std::size_t>(r.head - r.tail));
  if (n == 0) co_return 0;
  const std::size_t accepted = n;
  std::size_t iov_idx = 0, in_iov = 0;
  std::uint64_t pos = r.head;
  while (n > 0) {
    const std::size_t off = static_cast<std::size_t>(pos % R);
    const std::size_t piece =
        std::min({n, iovs[iov_idx].len - in_iov, R - off});
    co_await ctx_->node->copy(r.buf.data() + off, iovs[iov_idx].base + in_iov,
                              piece, total);
    pos += piece;
    in_iov += piece;
    n -= piece;
    if (in_iov == iovs[iov_idx].len) {
      ++iov_idx;
      in_iov = 0;
    }
  }
  r.head += accepted;
  c.peer_chan->activity_.fire();
  note(eager_track_, accepted);
  co_return accepted;
}

sim::Task<std::size_t> ShmChannel::get(Connection& conn,
                                       std::span<const Iov> iovs) {
  auto& c = static_cast<ShmConnection&>(conn);
  co_await ctx_->node->compute(kPerCallOverhead);
  Ring& r = *c.in;
  const std::size_t R = r.buf.size();
  const std::size_t want = total_length(iovs);
  std::size_t n =
      std::min(want, static_cast<std::size_t>(r.head - r.tail));
  if (n == 0) co_return 0;
  const std::size_t delivered = n;
  std::size_t iov_idx = 0, in_iov = 0;
  std::uint64_t pos = r.tail;
  while (n > 0) {
    const std::size_t off = static_cast<std::size_t>(pos % R);
    const std::size_t piece =
        std::min({n, iovs[iov_idx].len - in_iov, R - off});
    co_await ctx_->node->copy(iovs[iov_idx].base + in_iov, r.buf.data() + off,
                              piece, want);
    pos += piece;
    in_iov += piece;
    n -= piece;
    if (in_iov == iovs[iov_idx].len) {
      ++iov_idx;
      in_iov = 0;
    }
  }
  r.tail += delivered;
  c.peer_chan->activity_.fire();
  activity_.fire();  // a blocked local put may now have space
  co_return delivered;
}

sim::Task<void> ShmChannel::wait_for_activity() { co_await activity_.wait(); }

std::uint64_t ShmChannel::activity_count() const {
  return activity_.fire_count();
}

}  // namespace rdmach
