#include "nas/is.hpp"

#include <algorithm>
#include <stdexcept>

#include "mvx/block_pool.hpp"
#include "sim/host_pool.hpp"
#include "sim/rng.hpp"

namespace ib12x::nas {

using mvx::Communicator;
using mvx::INT32;
using mvx::INT64;
using mvx::Op;
using mvx::PoolVector;

namespace {

sim::Time key_cost(double ns_per_key, std::int64_t keys) {
  return static_cast<sim::Time>(ns_per_key * static_cast<double>(keys) *
                                static_cast<double>(sim::kNanosecond));
}

}  // namespace

IsResult run_is(Communicator& comm, NasClass cls) { return run_is(comm, is_params(cls)); }

IsResult run_is(Communicator& comm, const IsParams& P) {
  const int p = comm.size();
  const int r = comm.rank();
  if (P.total_keys % p != 0) throw std::invalid_argument("run_is: ranks must divide total keys");
  if (P.max_key <= 0 || (P.max_key & (P.max_key - 1)) != 0) {
    throw std::invalid_argument("run_is: max_key must be a power of two");
  }
  const std::int64_t n_local = P.total_keys / p;
  // Key range owned by rank d: [d*range, (d+1)*range).
  const std::int64_t range = (P.max_key + p - 1) / p;
  // Owner rank of a key: k / range, by multiply (keys and range fit 32 bits).
  const KeyDivider owner(static_cast<std::uint32_t>(range));

  // Deterministic key generation hashed from the *global* key index, so the
  // key multiset is identical for every process count and policy — results
  // can be compared bit-for-bit across configurations.
  // max_key is a power of two, so z % max_key is a mask.
  const auto key_mask = static_cast<std::uint64_t>(P.max_key - 1);
  auto hashed_key = [key_mask](std::uint64_t global_index) {
    std::uint64_t z = global_index + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<std::int32_t>(z & key_mask);
  };
  // The key arrays come from the process's BlockPool (mvx/block_pool.hpp):
  // every rank maps and faults them in once per process, not once per call.
  // The keys are hashed by a host job that overlaps the opening barrier
  // (DESIGN.md §4a): it writes only `keys`, which the barrier never sees.
  PoolVector<std::int32_t> keys(static_cast<std::size_t>(n_local));
  auto generate = [&] {
    for (std::int64_t i = 0; i < n_local; ++i) {
      keys[static_cast<std::size_t>(i)] =
          hashed_key(static_cast<std::uint64_t>(r) * static_cast<std::uint64_t>(n_local) +
                     static_cast<std::uint64_t>(i));
    }
  };
  sim::HostJob keygen(generate);

  IsResult result;
  comm.barrier();
  keygen.join();
  const sim::Time t0 = comm.now();

  std::vector<std::int64_t> send_counts(static_cast<std::size_t>(p));
  std::vector<std::int64_t> send_displs(static_cast<std::size_t>(p));
  std::vector<std::int64_t> recv_counts(static_cast<std::size_t>(p));
  std::vector<std::int64_t> recv_displs(static_cast<std::size_t>(p));
  PoolVector<std::int32_t> send_keys(static_cast<std::size_t>(n_local));
  PoolVector<std::int32_t> recv_keys;
  PoolVector<std::int32_t> local_counts(static_cast<std::size_t>(range));
  std::vector<std::int64_t> cursor(static_cast<std::size_t>(p));

  for (int iter = 0; iter < P.iterations; ++iter) {
    // NPB perturbs one key per iteration so the work cannot be cached.
    keys[static_cast<std::size_t>(iter) % keys.size()] =
        static_cast<std::int32_t>((keys[static_cast<std::size_t>(iter) % keys.size()] + iter) %
                                  P.max_key);

    // 1. Classify keys by destination rank.
    comm.compute(key_cost(P.hist_ns_per_key, n_local), [&] {
      std::fill(send_counts.begin(), send_counts.end(), 0);
      for (std::int32_t k : keys) ++send_counts[owner(static_cast<std::uint32_t>(k))];
    });

    // 2. Exchange counts.
    std::fill(send_displs.begin(), send_displs.end(), 0);
    for (int d = 1; d < p; ++d) {
      send_displs[static_cast<std::size_t>(d)] =
          send_displs[static_cast<std::size_t>(d - 1)] + send_counts[static_cast<std::size_t>(d - 1)];
    }
    comm.alltoall(send_counts.data(), recv_counts.data(), 1, INT64);

    // 3. Pack keys per destination.
    comm.compute(key_cost(P.move_ns_per_key, n_local), [&] {
      std::copy(send_displs.begin(), send_displs.end(), cursor.begin());
      for (std::int32_t k : keys) {
        send_keys[static_cast<std::size_t>(cursor[owner(static_cast<std::uint32_t>(k))]++)] = k;
      }
    });

    // 4. Redistribute keys.
    std::int64_t total_recv = 0;
    for (int d = 0; d < p; ++d) {
      recv_displs[static_cast<std::size_t>(d)] = total_recv;
      total_recv += recv_counts[static_cast<std::size_t>(d)];
    }
    recv_keys.resize(static_cast<std::size_t>(total_recv));
    comm.alltoallv(send_keys.data(), send_counts, send_displs, recv_keys.data(), recv_counts,
                   recv_displs, INT32);
    result.keys_moved += n_local;

    // 5. Local ranking (counting sort over this rank's key range).  A
    //    misrouted key stops the count and is reported after the join: an
    //    exception thrown by the job would carry a message block the job
    //    allocated and the rank frees, which the job contract rules out.
    bool misrouted = false;
    comm.compute(key_cost(P.rank_ns_per_key, total_recv), [&] {
      std::fill(local_counts.begin(), local_counts.end(), 0);
      const std::int32_t base = static_cast<std::int32_t>(r) * static_cast<std::int32_t>(range);
      for (std::int32_t k : recv_keys) {
        const std::int64_t off = k - base;
        if (off < 0 || off >= range) {
          misrouted = true;
          return;
        }
        ++local_counts[static_cast<std::size_t>(off)];
      }
    });
    if (misrouted) throw std::runtime_error("run_is: misrouted key");
  }

  result.seconds = sim::to_s(comm.now() - t0);

  // ---- verification (outside the timed region, like NPB's full check) ----
  // (a) key conservation.
  std::int64_t got = static_cast<std::int64_t>(recv_keys.size()), total = 0;
  comm.allreduce(&got, &total, 1, INT64, Op::Sum);
  bool ok = total == P.total_keys;
  // (b) the counting sort gives a globally sorted sequence: my largest key
  //     must be <= right neighbour's smallest.  Keys are already range-
  //     partitioned, so it suffices that every key is in-range (checked
  //     above) — assert the prefix structure via a digest instead.
  std::uint64_t digest = 1469598103934665603ull;
  for (std::size_t i = 0; i < local_counts.size(); ++i) {
    digest ^= static_cast<std::uint64_t>(local_counts[i]) + i;
    digest *= 1099511628211ull;
  }
  // Fold all ranks' digests into a stable global checksum.
  std::int64_t digest_lo = static_cast<std::int64_t>(digest & 0x7fffffffffffffffull), sum = 0;
  comm.allreduce(&digest_lo, &sum, 1, INT64, Op::Sum);
  result.checksum = static_cast<std::uint64_t>(sum);
  result.verified = ok;
  return result;
}

}  // namespace ib12x::nas
