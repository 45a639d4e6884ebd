#include "harness/runner.hpp"

#include <algorithm>
#include <stdexcept>

namespace ib12x::harness {

using mvx::BYTE;
using mvx::Communicator;
using mvx::Request;

double Runner::latency_us(std::int64_t bytes) {
  double result = 0;
  const int iters = bp_.lat_iters, skip = bp_.lat_skip;
  world_.run([&](Communicator& c) {
    if (c.rank() > 1) return;
    std::vector<std::byte> buf(static_cast<std::size_t>(std::max<std::int64_t>(bytes, 1)));
    sim::Time t0 = 0;
    for (int i = 0; i < iters; ++i) {
      if (i == skip) t0 = c.now();
      if (c.rank() == 0) {
        c.send(buf.data(), static_cast<std::size_t>(bytes), BYTE, 1, 0);
        c.recv(buf.data(), static_cast<std::size_t>(bytes), BYTE, 1, 0);
      } else {
        c.recv(buf.data(), static_cast<std::size_t>(bytes), BYTE, 0, 0);
        c.send(buf.data(), static_cast<std::size_t>(bytes), BYTE, 0, 0);
      }
    }
    if (c.rank() == 0) result = sim::to_us(c.now() - t0) / (2.0 * (iters - skip));
  });
  return result;
}

double Runner::uni_bw_mbs(std::int64_t bytes) {
  double result = 0;
  const int window = bp_.bw_window, iters = bp_.bw_iters, skip = bp_.bw_skip;
  world_.run([&](Communicator& c) {
    if (c.rank() > 1) return;
    std::vector<std::byte> buf(static_cast<std::size_t>(std::max<std::int64_t>(bytes, 1)));
    sim::Time t0 = 0;
    for (int i = 0; i < iters; ++i) {
      if (i == skip) t0 = c.now();
      std::vector<Request> reqs;
      reqs.reserve(static_cast<std::size_t>(window));
      if (c.rank() == 0) {
        for (int m = 0; m < window; ++m) {
          reqs.push_back(c.isend(buf.data(), static_cast<std::size_t>(bytes), BYTE, 1, 0));
        }
        c.waitall(reqs);
        std::byte ack;
        c.recv(&ack, 1, BYTE, 1, 1);
      } else {
        for (int m = 0; m < window; ++m) {
          reqs.push_back(c.irecv(buf.data(), static_cast<std::size_t>(bytes), BYTE, 0, 0));
        }
        c.waitall(reqs);
        std::byte ack{};
        c.send(&ack, 1, BYTE, 0, 1);
      }
    }
    if (c.rank() == 0) {
      result = static_cast<double>(bytes) * window * (iters - skip) / sim::to_s(c.now() - t0) / 1e6;
    }
  });
  return result;
}

double Runner::bi_bw_mbs(std::int64_t bytes) {
  double result = 0;
  const int window = bp_.bw_window, iters = bp_.bw_iters, skip = bp_.bw_skip;
  world_.run([&](Communicator& c) {
    if (c.rank() > 1) return;
    const int peer = 1 - c.rank();
    std::vector<std::byte> sbuf(static_cast<std::size_t>(std::max<std::int64_t>(bytes, 1)));
    std::vector<std::byte> rbuf(static_cast<std::size_t>(std::max<std::int64_t>(bytes, 1)));
    sim::Time t0 = 0;
    for (int i = 0; i < iters; ++i) {
      if (i == skip) t0 = c.now();
      std::vector<Request> reqs;
      reqs.reserve(static_cast<std::size_t>(2 * window));
      for (int m = 0; m < window; ++m) {
        reqs.push_back(c.irecv(rbuf.data(), static_cast<std::size_t>(bytes), BYTE, peer, 0));
      }
      for (int m = 0; m < window; ++m) {
        reqs.push_back(c.isend(sbuf.data(), static_cast<std::size_t>(bytes), BYTE, peer, 0));
      }
      c.waitall(reqs);
    }
    if (c.rank() == 0) {
      // Sum of both directions, as the paper reports (5362 MB/s peak).
      result = 2.0 * static_cast<double>(bytes) * window * (iters - skip) /
               sim::to_s(c.now() - t0) / 1e6;
    }
  });
  return result;
}

double Runner::alltoall_us(std::int64_t bytes) {
  double result = 0;
  const int iters = bp_.a2a_iters, skip = bp_.a2a_skip;
  // Grow the per-rank buffers to this size; they are never shrunk.
  const auto ranks = static_cast<std::size_t>(world_.ranks());
  const std::size_t len = static_cast<std::size_t>(bytes) * ranks;
  a2a_send_.resize(ranks);
  a2a_recv_.resize(ranks);
  for (std::size_t r = 0; r < ranks; ++r) {
    if (a2a_send_[r].size() < len) a2a_send_[r].resize(len);
    if (a2a_recv_[r].size() < len) a2a_recv_[r].resize(len);
  }
  world_.run([&](Communicator& c) {
    const std::size_t per = static_cast<std::size_t>(bytes);
    std::byte* sendbuf = a2a_send_[static_cast<std::size_t>(c.rank())].data();
    std::byte* recvbuf = a2a_recv_[static_cast<std::size_t>(c.rank())].data();
    sim::Time t0 = 0;
    for (int i = 0; i < iters; ++i) {
      if (i == skip) {
        c.barrier();
        t0 = c.now();
      }
      c.alltoall(sendbuf, recvbuf, per, BYTE);
    }
    c.barrier();
    if (c.rank() == 0) result = sim::to_us(c.now() - t0) / (iters - skip);
  });
  return result;
}

std::vector<std::int64_t> pow2_sizes(std::int64_t from, std::int64_t to) {
  if (from <= 0 || from > to) throw std::invalid_argument("pow2_sizes: bad range");
  std::vector<std::int64_t> v;
  for (std::int64_t s = from; s <= to; s *= 2) v.push_back(s);
  return v;
}

Table telemetry_table(mvx::World& world, std::string title) {
  Table t(std::move(title), "metric");
  t.add_column("value");
  for (const auto& s : world.telemetry().snapshot()) {
    t.add_row(s.name, {s.value});
  }
  return t;
}

}  // namespace ib12x::harness
