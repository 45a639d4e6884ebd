#include "mvx/coll/builders.hpp"

#include <algorithm>
#include <cstring>

#include "mvx/coll/select.hpp"
#include "mvx/config.hpp"
#include "sim/time.hpp"

namespace ib12x::mvx::coll {

namespace {

bool is_pow2(int x) { return x > 0 && (x & (x - 1)) == 0; }

const std::byte* bytes_of(const void* p) { return static_cast<const std::byte*>(p); }
std::byte* bytes_of(void* p) { return static_cast<std::byte*>(p); }

// ---- composable sub-builders -------------------------------------------
//
// Each appends its rounds after round `after` (-1 = a DAG root) and returns
// the index of its last round (`after` unchanged if it appended nothing),
// so composite algorithms — reduce+bcast, Rabenseifner, the multi-lane
// decompositions — chain phases and lanes from the same primitives.

int append_bcast_binomial(CollSchedule& s, const BuildCtx& c, std::byte* buf, std::size_t bytes,
                          int root, int tag, int lane, int after) {
  int cur = after;
  const int vrank = (c.me - root + c.p) % c.p;
  // Binomial tree: receive from parent, forward to children one at a time
  // (the blocking code waited out each child send — one round per child).
  if (vrank != 0) {
    int parent = 0;
    for (int mask = 1; mask < c.p; mask <<= 1) {
      if (vrank & mask) {
        parent = vrank ^ mask;
        break;
      }
    }
    cur = s.chain_round(cur);
    s.irecv(cur, c.wr((parent + root) % c.p), tag, buf, static_cast<std::int64_t>(bytes), lane);
  }
  int low = 1;
  while (low < c.p && (vrank & low) == 0) low <<= 1;  // first set bit bounds children
  for (int mask = low >> 1; mask >= 1; mask >>= 1) {
    const int child = vrank | mask;
    if (child < c.p && child != vrank) {
      cur = s.chain_round(cur);
      s.isend(cur, c.wr((child + root) % c.p), tag, buf, static_cast<std::int64_t>(bytes), lane);
    }
  }
  return cur;
}

int append_reduce_binomial(CollSchedule& s, const BuildCtx& c, const void* sendbuf, void* recvbuf,
                           std::size_t count, Datatype dt, Op op, int root, int tag, int lane,
                           int after) {
  const std::size_t bytes = count * dt.size;
  std::byte* acc = s.scratch(bytes);
  std::byte* tmp = s.scratch(bytes);
  std::memcpy(acc, sendbuf, bytes);  // seeded at build time, like the blocking code
  int cur = after;
  const int vrank = (c.me - root + c.p) % c.p;
  // Binomial reduction towards vrank 0.  A completed child receive is folded
  // in at the start of the next round, before that round's post.
  bool fold = false;
  for (int mask = 1; mask < c.p; mask <<= 1) {
    if (vrank & mask) {
      cur = s.chain_round(cur);
      if (fold) s.reduce_local(cur, op, dt, acc, tmp, count);
      fold = false;
      s.isend(cur, c.wr(((vrank ^ mask) + root) % c.p), tag, acc,
              static_cast<std::int64_t>(bytes), lane);
      break;
    }
    const int child = vrank | mask;
    if (child < c.p) {
      cur = s.chain_round(cur);
      if (fold) s.reduce_local(cur, op, dt, acc, tmp, count);
      s.irecv(cur, c.wr((child + root) % c.p), tag, tmp, static_cast<std::int64_t>(bytes), lane);
      fold = true;
    }
  }
  if (vrank == 0) {
    cur = s.chain_round(cur);
    if (fold) s.reduce_local(cur, op, dt, acc, tmp, count);
    s.copy(cur, recvbuf, acc, static_cast<std::int64_t>(bytes));
  }
  return cur;
}

int append_allreduce_rd(CollSchedule& s, const BuildCtx& c, void* recvbuf, std::size_t count,
                        Datatype dt, Op op, int tag, int lane, int after) {
  // Recursive doubling (p must be a power of two); recvbuf is pre-seeded
  // with this rank's contribution.
  const std::size_t bytes = count * dt.size;
  std::byte* tmp = s.scratch(bytes);
  int cur = after;
  bool fold = false;
  for (int mask = 1; mask < c.p; mask <<= 1) {
    const int partner = c.wr(c.me ^ mask);
    cur = s.chain_round(cur);
    if (fold) s.reduce_local(cur, op, dt, recvbuf, tmp, count);
    s.irecv(cur, partner, tag, tmp, static_cast<std::int64_t>(bytes), lane);
    s.isend(cur, partner, tag, recvbuf, static_cast<std::int64_t>(bytes), lane);
    fold = true;
  }
  cur = s.chain_round(cur);
  s.reduce_local(cur, op, dt, recvbuf, tmp, count);
  return cur;
}

int append_reduce_scatter_block(CollSchedule& s, const BuildCtx& c, const void* sendbuf,
                                void* recvbuf, std::size_t count, Datatype dt, Op op, int tag,
                                int lane, int after) {
  // Pairwise-exchange reduce-scatter: accumulate my block from everyone.
  const std::size_t block = count * dt.size;
  const auto* in = bytes_of(sendbuf);
  std::byte* acc = s.scratch(block);
  std::byte* tmp = s.scratch(block);
  std::memcpy(acc, in + static_cast<std::size_t>(c.me) * block, block);
  int cur = after;
  bool fold = false;
  for (int st = 1; st < c.p; ++st) {
    const int to = (c.me + st) % c.p;
    const int from = (c.me - st + c.p) % c.p;
    cur = s.chain_round(cur);
    if (fold) s.reduce_local(cur, op, dt, acc, tmp, count);
    s.irecv(cur, c.wr(from), tag, tmp, static_cast<std::int64_t>(block), lane);
    s.isend(cur, c.wr(to), tag, in + static_cast<std::size_t>(to) * block,
            static_cast<std::int64_t>(block), lane);
    fold = true;
  }
  cur = s.chain_round(cur);
  s.reduce_local(cur, op, dt, acc, tmp, count);
  s.copy(cur, recvbuf, acc, static_cast<std::int64_t>(block));
  return cur;
}

int append_allgatherv_ring(CollSchedule& s, const BuildCtx& c, std::byte* out,
                           const std::vector<std::int64_t>& counts,
                           const std::vector<std::int64_t>& displs, std::size_t es, int tag,
                           int lane, int after, const void* seed_src) {
  // Ring with (possibly) variable block sizes: in step st we forward the
  // block that originated st hops upstream.  `seed_src`, when given, is
  // copied into my block at the start of the first round — needed when the
  // seed is produced by an earlier phase of the same schedule (Rabenseifner)
  // rather than being available at build time.
  const int right = c.wr((c.me + 1) % c.p);
  const int left = c.wr((c.me - 1 + c.p) % c.p);
  int cur = after;
  for (int st = 0; st < c.p - 1; ++st) {
    const int sb = (c.me - st + c.p) % c.p;
    const int rb = (c.me - st - 1 + c.p) % c.p;
    cur = s.chain_round(cur);
    if (st == 0 && seed_src != nullptr) {
      s.copy(cur, out + static_cast<std::size_t>(displs[static_cast<std::size_t>(c.me)]) * es,
             seed_src,
             static_cast<std::int64_t>(static_cast<std::size_t>(
                                           counts[static_cast<std::size_t>(c.me)]) * es));
    }
    s.irecv(cur, left, tag, out + static_cast<std::size_t>(displs[static_cast<std::size_t>(rb)]) * es,
            static_cast<std::int64_t>(static_cast<std::size_t>(counts[static_cast<std::size_t>(rb)]) * es),
            lane);
    s.isend(cur, right, tag,
            out + static_cast<std::size_t>(displs[static_cast<std::size_t>(sb)]) * es,
            static_cast<std::int64_t>(static_cast<std::size_t>(counts[static_cast<std::size_t>(sb)]) * es),
            lane);
  }
  return cur;
}

/// Lane widths for splitting `total` units across the resolved lane count:
/// lane l gets total/L rounded up for the first total%L lanes.
std::vector<std::size_t> lane_split(std::size_t total, int lanes) {
  const auto L = static_cast<std::size_t>(lanes);
  std::vector<std::size_t> out(L, total / L);
  for (std::size_t l = 0; l < total % L; ++l) ++out[l];
  return out;
}

}  // namespace

// ---- registered builders ------------------------------------------------

void build_barrier_dissemination(CollSchedule& s, const BuildCtx& c) {
  const int tag = c.fresh_tag();
  std::byte* dummy = s.scratch(1);
  // Dissemination barrier: ceil(log2 p) rounds of zero-byte sendrecv.
  int cur = -1;
  for (int k = 1; k < c.p; k <<= 1) {
    const int to = (c.me + k) % c.p;
    const int from = (c.me - k + c.p) % c.p;
    cur = s.chain_round(cur);
    s.irecv(cur, c.wr(from), tag, dummy, 0);
    s.isend(cur, c.wr(to), tag, dummy, 0);
  }
}

void build_bcast_binomial(CollSchedule& s, const BuildCtx& c) {
  append_bcast_binomial(s, c, bytes_of(c.recvbuf), c.count * c.dt.size, c.root, c.fresh_tag(), -1,
                        -1);
}

void build_bcast_multilane(CollSchedule& s, const BuildCtx& c) {
  const std::size_t bytes = c.count * c.dt.size;
  const int L = std::max(1, std::min<int>(lane_width(c.cfg->coll, c.nrails),
                                          static_cast<int>(std::max<std::size_t>(bytes, 1))));
  const auto widths = lane_split(bytes, L);
  std::byte* buf = bytes_of(c.recvbuf);
  std::size_t off = 0;
  // One independent binomial tree per lane, pinned to rail (lane % nrails):
  // the lanes pipeline through the tree concurrently.
  for (int l = 0; l < L; ++l) {
    append_bcast_binomial(s, c, buf + off, widths[static_cast<std::size_t>(l)], c.root,
                          c.fresh_tag(), l, -1);
    off += widths[static_cast<std::size_t>(l)];
  }
}

void build_reduce_binomial(CollSchedule& s, const BuildCtx& c) {
  append_reduce_binomial(s, c, c.sendbuf, c.recvbuf, c.count, c.dt, c.redop, c.root, c.fresh_tag(),
                         -1, -1);
}

void build_allreduce_recursive_doubling(CollSchedule& s, const BuildCtx& c) {
  append_allreduce_rd(s, c, c.recvbuf, c.count, c.dt, c.redop, c.fresh_tag(), -1, -1);
}

void build_allreduce_reduce_bcast(CollSchedule& s, const BuildCtx& c) {
  // reduce to comm rank 0, then broadcast — the non-power-of-two fallback.
  const int tag_reduce = c.fresh_tag();
  const int tag_bcast = c.fresh_tag();
  int tail = append_reduce_binomial(s, c, c.recvbuf, c.recvbuf, c.count, c.dt, c.redop, 0,
                                    tag_reduce, -1, -1);
  append_bcast_binomial(s, c, bytes_of(c.recvbuf), c.count * c.dt.size, 0, tag_bcast, -1, tail);
}

void build_allreduce_rabenseifner(CollSchedule& s, const BuildCtx& c) {
  // Reduce-scatter over padded equal blocks, then allgatherv of the unpadded
  // pieces.  Moves 2·(p-1)/p of the vector instead of log p full copies.
  const std::size_t bytes = c.count * c.dt.size;
  const auto p = static_cast<std::size_t>(c.p);
  const std::size_t per = (c.count + p - 1) / p;
  std::byte* padded = s.scratch(per * p * c.dt.size);  // scratch is zero-filled
  std::memcpy(padded, c.recvbuf, bytes);
  std::byte* mine = s.scratch(per * c.dt.size);

  const int tag_rs = c.fresh_tag();
  const int tag_ag = c.fresh_tag();
  int tail = append_reduce_scatter_block(s, c, padded, mine, per, c.dt, c.redop, tag_rs, -1, -1);

  std::vector<std::int64_t> counts(p), displs(p);
  for (int r = 0; r < c.p; ++r) {
    const std::size_t lo = std::min(c.count, static_cast<std::size_t>(r) * per);
    const std::size_t hi = std::min(c.count, (static_cast<std::size_t>(r) + 1) * per);
    counts[static_cast<std::size_t>(r)] = static_cast<std::int64_t>(hi - lo);
    displs[static_cast<std::size_t>(r)] = static_cast<std::int64_t>(lo);
  }
  // `mine` is produced by the reduce-scatter rounds, so the allgatherv seeds
  // it into place as a round op rather than at build time.
  append_allgatherv_ring(s, c, bytes_of(c.recvbuf), counts, displs, c.dt.size, tag_ag, -1, tail,
                         mine);
}

void build_allreduce_multilane(CollSchedule& s, const BuildCtx& c) {
  // Element-aligned lane decomposition: each lane allreduces its slice with
  // the base algorithm on its own tag, pinned to rail (lane % nrails).
  const int L = std::max(1, std::min<int>(lane_width(c.cfg->coll, c.nrails),
                                          static_cast<int>(std::max<std::size_t>(c.count, 1))));
  const auto widths = lane_split(c.count, L);
  std::byte* buf = bytes_of(c.recvbuf);
  std::size_t elem_off = 0;
  for (int l = 0; l < L; ++l) {
    const std::size_t n = widths[static_cast<std::size_t>(l)];
    std::byte* slice = buf + elem_off * c.dt.size;
    if (is_pow2(c.p)) {
      append_allreduce_rd(s, c, slice, n, c.dt, c.redop, c.fresh_tag(), l, -1);
    } else {
      const int tag_reduce = c.fresh_tag();
      const int tag_bcast = c.fresh_tag();
      int tail = append_reduce_binomial(s, c, slice, slice, n, c.dt, c.redop, 0, tag_reduce, l, -1);
      append_bcast_binomial(s, c, slice, n * c.dt.size, 0, tag_bcast, l, tail);
    }
    elem_off += n;
  }
}

void build_gather_linear(CollSchedule& s, const BuildCtx& c) {
  const std::size_t bytes = c.count * c.dt.size;
  const int tag = c.fresh_tag();
  const int r0 = s.add_round();
  if (c.me == c.root) {
    auto* out = bytes_of(c.recvbuf);
    for (int r = 0; r < c.p; ++r) {
      if (r == c.me) {
        s.copy(r0, out + static_cast<std::size_t>(r) * bytes, c.sendbuf,
               static_cast<std::int64_t>(bytes));
      } else {
        s.irecv(r0, c.wr(r), tag, out + static_cast<std::size_t>(r) * bytes,
                static_cast<std::int64_t>(bytes));
      }
    }
  } else {
    s.isend(r0, c.wr(c.root), tag, c.sendbuf, static_cast<std::int64_t>(bytes));
  }
}

void build_gatherv_linear(CollSchedule& s, const BuildCtx& c) {
  const int tag = c.fresh_tag();
  const int r0 = s.add_round();
  if (c.me == c.root) {
    const auto& counts = *c.rcounts;
    const auto& displs = *c.rdispls;
    auto* out = bytes_of(c.recvbuf);
    for (int r = 0; r < c.p; ++r) {
      const std::size_t bytes = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]) * c.dt.size;
      std::byte* dst = out + static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]) * c.dt.size;
      if (r == c.me) {
        s.copy(r0, dst, c.sendbuf, static_cast<std::int64_t>(bytes));
      } else {
        s.irecv(r0, c.wr(r), tag, dst, static_cast<std::int64_t>(bytes));
      }
    }
  } else {
    s.isend(r0, c.wr(c.root), tag, c.sendbuf,
            static_cast<std::int64_t>(c.count * c.dt.size));
  }
}

void build_scatter_linear(CollSchedule& s, const BuildCtx& c) {
  const std::size_t bytes = c.count * c.dt.size;
  const int tag = c.fresh_tag();
  const int r0 = s.add_round();
  if (c.me == c.root) {
    const auto* in = bytes_of(c.sendbuf);
    for (int r = 0; r < c.p; ++r) {
      if (r == c.me) {
        s.copy(r0, c.recvbuf, in + static_cast<std::size_t>(r) * bytes,
               static_cast<std::int64_t>(bytes));
      } else {
        s.isend(r0, c.wr(r), tag, in + static_cast<std::size_t>(r) * bytes,
                static_cast<std::int64_t>(bytes));
      }
    }
  } else {
    s.irecv(r0, c.wr(c.root), tag, c.recvbuf, static_cast<std::int64_t>(bytes));
  }
}

void build_allgather_ring(CollSchedule& s, const BuildCtx& c) {
  const auto n = static_cast<std::int64_t>(c.count);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(c.p), n);
  std::vector<std::int64_t> displs(static_cast<std::size_t>(c.p));
  for (int r = 0; r < c.p; ++r) displs[static_cast<std::size_t>(r)] = n * r;
  append_allgatherv_ring(s, c, bytes_of(c.recvbuf), counts, displs, c.dt.size, c.fresh_tag(), -1,
                         -1, nullptr);
}

void build_allgatherv_ring(CollSchedule& s, const BuildCtx& c) {
  append_allgatherv_ring(s, c, bytes_of(c.recvbuf), *c.rcounts, *c.rdispls, c.dt.size,
                         c.fresh_tag(), -1, -1, nullptr);
}

void build_alltoall_pairwise(CollSchedule& s, const BuildCtx& c) {
  // Pairwise exchange (MPI_Sendrecv per step): XOR partners when p is a
  // power of two, ring offsets otherwise.
  const std::size_t bytes = c.count * c.dt.size;
  const auto* in = bytes_of(c.sendbuf);
  auto* out = bytes_of(c.recvbuf);
  const int tag = c.fresh_tag();
  int cur = -1;
  for (int st = 1; st < c.p; ++st) {
    int to, from;
    if (is_pow2(c.p)) {
      to = from = c.me ^ st;
    } else {
      to = (c.me + st) % c.p;
      from = (c.me - st + c.p) % c.p;
    }
    cur = s.chain_round(cur);
    s.irecv(cur, c.wr(from), tag, out + static_cast<std::size_t>(from) * bytes,
            static_cast<std::int64_t>(bytes));
    s.isend(cur, c.wr(to), tag, in + static_cast<std::size_t>(to) * bytes,
            static_cast<std::int64_t>(bytes));
  }
}

void build_alltoall_bruck(CollSchedule& s, const BuildCtx& c) {
  const std::size_t bytes = c.count * c.dt.size;
  const auto* in = bytes_of(c.sendbuf);
  auto* out = bytes_of(c.recvbuf);
  const auto p = static_cast<std::size_t>(c.p);
  const double gbps = c.cfg->memcpy_gbps;

  // Phase 1 (build time, like the blocking code's synchronous rotation):
  // slot i holds the block for rank (me + i) mod p.
  std::byte* work = s.scratch(bytes * p);
  for (int i = 0; i < c.p; ++i) {
    std::memcpy(work + static_cast<std::size_t>(i) * bytes,
                in + static_cast<std::size_t>((c.me + i) % c.p) * bytes, bytes);
  }

  // Phase 2: for each bit k, ship every block whose slot index has bit k.
  // Pack/unpack copies are billed at the host memcpy rate, exactly like the
  // blocking implementation; the unpack of round k opens round k+1.
  const int tag = c.fresh_tag();
  std::byte* sendpack = s.scratch(bytes * p);
  std::byte* recvpack = s.scratch(bytes * p);
  int cur = -1;
  std::vector<int> prev;  // indices shipped in the previous round
  auto unpack = [&](int round, const std::vector<int>& idx) {
    for (std::size_t j = 0; j < idx.size(); ++j) {
      s.copy(round, work + static_cast<std::size_t>(idx[j]) * bytes, recvpack + j * bytes,
             static_cast<std::int64_t>(bytes));
    }
    s.cpu(round, sim::transfer_time(static_cast<std::int64_t>(idx.size() * bytes), gbps));
  };
  for (int k = 1; k < c.p; k <<= 1) {
    std::vector<int> idx;
    for (int i = 1; i < c.p; ++i) {
      if (i & k) idx.push_back(i);
    }
    cur = s.chain_round(cur);
    if (!prev.empty()) unpack(cur, prev);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      s.copy(cur, sendpack + j * bytes, work + static_cast<std::size_t>(idx[j]) * bytes,
             static_cast<std::int64_t>(bytes));
    }
    s.cpu(cur, sim::transfer_time(static_cast<std::int64_t>(idx.size() * bytes), gbps));
    const int to = (c.me + k) % c.p;
    const int from = (c.me - k + c.p) % c.p;
    s.irecv(cur, c.wr(from), tag, recvpack, static_cast<std::int64_t>(idx.size() * bytes));
    s.isend(cur, c.wr(to), tag, sendpack, static_cast<std::int64_t>(idx.size() * bytes));
    prev = std::move(idx);
  }

  // Phase 3: slot i now holds the block FROM rank (me - i) mod p.
  cur = s.chain_round(cur);
  unpack(cur, prev);
  for (int i = 0; i < c.p; ++i) {
    s.copy(cur, out + static_cast<std::size_t>((c.me - i + c.p) % c.p) * bytes,
           work + static_cast<std::size_t>(i) * bytes, static_cast<std::int64_t>(bytes));
  }
}

void build_alltoallv_pairwise(CollSchedule& s, const BuildCtx& c) {
  const auto* in = bytes_of(c.sendbuf);
  auto* out = bytes_of(c.recvbuf);
  const std::size_t es = c.dt.size;
  const auto& sc = *c.scounts;
  const auto& sd = *c.sdispls;
  const auto& rc = *c.rcounts;
  const auto& rd = *c.rdispls;
  const int tag = c.fresh_tag();
  int cur = -1;
  for (int st = 1; st < c.p; ++st) {
    int to, from;
    if (is_pow2(c.p)) {
      to = from = c.me ^ st;
    } else {
      to = (c.me + st) % c.p;
      from = (c.me - st + c.p) % c.p;
    }
    cur = s.chain_round(cur);
    s.irecv(cur, c.wr(from), tag,
            out + static_cast<std::size_t>(rd[static_cast<std::size_t>(from)]) * es,
            static_cast<std::int64_t>(static_cast<std::size_t>(rc[static_cast<std::size_t>(from)]) * es));
    s.isend(cur, c.wr(to), tag,
            in + static_cast<std::size_t>(sd[static_cast<std::size_t>(to)]) * es,
            static_cast<std::int64_t>(static_cast<std::size_t>(sc[static_cast<std::size_t>(to)]) * es));
  }
}

void build_reduce_scatter_block_pairwise(CollSchedule& s, const BuildCtx& c) {
  append_reduce_scatter_block(s, c, c.sendbuf, c.recvbuf, c.count, c.dt, c.redop, c.fresh_tag(),
                              -1, -1);
}

void build_scan_hillis_steele(CollSchedule& s, const BuildCtx& c) {
  // Hillis–Steele inclusive scan: log2 p rounds; rank r folds in the value
  // from r - 2^k when it exists.  recvbuf is pre-seeded by the caller.
  const std::size_t bytes = c.count * c.dt.size;
  const int tag = c.fresh_tag();
  std::byte* carry = s.scratch(bytes);
  std::byte* tmp = s.scratch(bytes);
  std::memcpy(carry, c.recvbuf, bytes);
  int cur = -1;
  bool fold = false;
  auto fold_left = [&](int round) {
    // Prefix order matters for non-commutative ops: left value (tmp) first.
    s.reduce_local(round, c.redop, c.dt, tmp, carry, c.count);
    s.copy(round, carry, tmp, static_cast<std::int64_t>(bytes));
  };
  for (int k = 1; k < c.p; k <<= 1) {
    const bool has_left = c.me - k >= 0;
    const bool has_right = c.me + k < c.p;
    if (!has_left && !has_right) continue;
    cur = s.chain_round(cur);
    if (fold) fold_left(cur);
    fold = false;
    // Receives before sends, so the rendezvous chain cannot deadlock; the
    // send completes before the next round mutates carry.
    if (has_left) {
      s.irecv(cur, c.wr(c.me - k), tag, tmp, static_cast<std::int64_t>(bytes));
      fold = true;
    }
    if (has_right) s.isend(cur, c.wr(c.me + k), tag, carry, static_cast<std::int64_t>(bytes));
  }
  cur = s.chain_round(cur);
  if (fold) fold_left(cur);
  s.copy(cur, c.recvbuf, carry, static_cast<std::int64_t>(bytes));
}

}  // namespace ib12x::mvx::coll
