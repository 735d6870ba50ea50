// IS -- integer sort.
//
// Bucket sort of uniformly distributed integer keys: each rank generates
// its slice of the key stream, histograms it into one bucket range per
// rank, exchanges bucket sizes with an alltoall and the keys themselves
// with an alltoallv (the benchmark's dominant communication), then
// counting-sorts its received range.  Verification checks global
// sortedness across rank boundaries and conservation of the key count.
// Scaled sizes (keys / max key): S 2^16/2^11, W 2^18/2^13, A 2^20/2^15,
// B 2^21/2^16 (official A is 2^23/2^19).
#include <algorithm>
#include <numeric>
#include <vector>

#include "nas/is.hpp"
#include "nas/nas.hpp"
#include "nas/nas_random.hpp"

namespace nas {

IsConfig is_config(Class c) {
  switch (c) {
    case Class::S:
      return {1 << 16, 1 << 11, 5};
    case Class::W:
      return {1 << 18, 1 << 13, 5};
    case Class::A:
      return {1 << 20, 1 << 15, 10};
    case Class::B:
      return {1 << 21, 1 << 16, 10};
  }
  return {1 << 16, 1 << 11, 5};
}

namespace {

/// Writes counts[i] copies of lo + i, for every i, to out.  A plain function
/// rather than a loop in `is`: the loop's locals would enlarge the
/// coroutine's frame.
void fill_sorted(const std::vector<int>& counts, int lo, int* out) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out = std::fill_n(out, counts[i], lo + static_cast<int>(i));
  }
}

}  // namespace

sim::Task<Result> is(mpi::Communicator& world, pmi::Context& ctx, Class cls) {
  const IsConfig cfg = is_config(cls);
  const int p = world.size();
  const int rank = world.rank();
  const std::int64_t per = cfg.total_keys / p;

  // Generate this rank's keys from its slice of the NAS stream.
  std::vector<int> keys(static_cast<std::size_t>(per));
  {
    double seed = advance_seed(314159265.0, kDefaultA, per * rank);
    for (auto& k : keys) {
      k = static_cast<int>(randlc(&seed, kDefaultA) * cfg.max_key);
    }
  }
  co_await charge(ctx, static_cast<double>(per) * 12.0);

  const int keys_per_rank = cfg.max_key / p;  // bucket range per rank
  const BucketOwner owner(cfg.max_key, p);

  co_await world.barrier();
  const double t0 = world.wtime();

  std::vector<int> sorted;  // my received range, sorted (last iteration)
  for (int iter = 0; iter < cfg.iterations; ++iter) {
    notify_phase(world, "is.iter", iter);
    // 1. Histogram into per-destination buckets.
    std::vector<int> scounts(static_cast<std::size_t>(p), 0);
    for (int k : keys) ++scounts[static_cast<std::size_t>(owner(k))];
    co_await charge(ctx, static_cast<double>(per) * 5.0);

    // 2. Exchange counts.
    std::vector<int> rcounts(static_cast<std::size_t>(p), 0);
    co_await world.alltoall(scounts.data(), 1, rcounts.data(),
                            mpi::Datatype::kInt);

    // 3. Pack keys by destination.
    std::vector<int> sdispls(static_cast<std::size_t>(p), 0),
        rdispls(static_cast<std::size_t>(p), 0);
    for (int i = 1; i < p; ++i) {
      sdispls[static_cast<std::size_t>(i)] =
          sdispls[static_cast<std::size_t>(i - 1)] +
          scounts[static_cast<std::size_t>(i - 1)];
      rdispls[static_cast<std::size_t>(i)] =
          rdispls[static_cast<std::size_t>(i - 1)] +
          rcounts[static_cast<std::size_t>(i - 1)];
    }
    std::vector<int> packed(keys.size());
    std::vector<int> cursor = sdispls;
    for (int k : keys) {
      packed[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(owner(k))]++)] = k;
    }
    co_await charge(ctx, static_cast<double>(per) * 7.0);

    // 4. The all-to-all key exchange (the benchmark's heart).
    const int total_recv = rdispls[static_cast<std::size_t>(p - 1)] +
                           rcounts[static_cast<std::size_t>(p - 1)];
    std::vector<int> mine(static_cast<std::size_t>(total_recv));
    co_await world.alltoallv(packed.data(), scounts, sdispls, mine.data(),
                             rcounts, rdispls, mpi::Datatype::kInt);

    // 5. Local counting sort of my key range.
    const int lo = rank * keys_per_rank;
    const int hi = rank == p - 1 ? cfg.max_key : lo + keys_per_rank;
    std::vector<int> counts(static_cast<std::size_t>(hi - lo), 0);
    for (int k : mine) ++counts[static_cast<std::size_t>(k - lo)];
    // clear() first: growing from size 0 allocates exactly mine.size(),
    // with no slack that would shift later allocations (IS's virtual time
    // follows heap layout through the registration cache).
    sorted.clear();
    sorted.resize(mine.size());
    fill_sorted(counts, lo, sorted.data());
    co_await charge(ctx, static_cast<double>(total_recv) * 10.0 +
                             static_cast<double>(hi - lo));
  }
  const double elapsed = world.wtime() - t0;

  // Verification: local sortedness, boundary order with the neighbour
  // ranks, and conservation of the global key count.
  bool ok = std::is_sorted(sorted.begin(), sorted.end());
  const int my_first = sorted.empty() ? (rank * keys_per_rank) : sorted.front();
  const int my_last =
      sorted.empty() ? (rank * keys_per_rank) : sorted.back();
  int prev_last = 0;
  co_await world.sendrecv(&my_last, 1, mpi::Datatype::kInt,
                          rank + 1 < p ? rank + 1 : mpi::kProcNull, 77,
                          &prev_last, 1, mpi::Datatype::kInt,
                          rank > 0 ? rank - 1 : mpi::kProcNull, 77);
  if (rank > 0) ok = ok && prev_last <= my_first;
  long my_count = static_cast<long>(sorted.size());
  long total = 0;
  co_await world.allreduce(&my_count, &total, 1, mpi::Datatype::kLong,
                           mpi::Op::kSum);
  ok = ok && total == cfg.total_keys;
  int ok_all = 0;
  const int ok_int = ok ? 1 : 0;
  co_await world.allreduce(&ok_int, &ok_all, 1, mpi::Datatype::kInt,
                           mpi::Op::kMin);

  Result r;
  r.name = "IS";
  r.cls = cls;
  r.nprocs = p;
  r.verified = ok_all == 1;
  r.time_sec = elapsed;
  r.mops = static_cast<double>(cfg.total_keys) * cfg.iterations / elapsed /
           1e6;
  r.detail = "keys=" + std::to_string(total);
  co_return r;
}

}  // namespace nas
