#include "mvx/matcher.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace ib12x::mvx {

Matcher::Matcher(TelemetryRegistry& tel)
    : unexpected_ctr_(tel.counter("matcher.unexpected")),
      reorder_parked_ctr_(tel.counter("matcher.reorder_parked")),
      reorder_depth_peak_(tel.counter("matcher.reorder_depth_peak")),
      matched_ctr_(tel.counter("matcher.matched")),
      dup_dropped_(tel.counter("fault.dup_dropped")) {}

std::uint64_t Matcher::seq_key(int peer, int ctx, int vci) {
  if (peer < 0 || peer >= (1 << 24) || vci < 0 || vci > 0xff) {
    throw std::out_of_range("Matcher: sequence key out of range (peer " + std::to_string(peer) +
                            ", vci " + std::to_string(vci) + ")");
  }
  return static_cast<std::uint64_t>(peer) << 40 |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(ctx)) << 8 |
         static_cast<std::uint64_t>(vci);
}

std::uint32_t Matcher::next_send_seq(int peer, int ctx, int vci) {
  return send_seq_[seq_key(peer, ctx, vci)]++;
}

std::vector<Matcher::Inbound> Matcher::sequence(int peer, const MsgHeader& hdr,
                                                Payload payload) {
  std::vector<Inbound> ready;
  const int vci = hdr.vci;
  std::uint32_t& next = next_seq_[seq_key(peer, hdr.ctx, vci)];
  if (hdr.seq < next ||
      (hdr.seq != next && reorder_.count({peer, hdr.ctx, vci, hdr.seq}) != 0)) {
    // Duplicate delivery: a fault-injection replay of a message whose first
    // copy arrived but whose sender-side CQE reported an error.  Unreachable
    // without fault injection (every seq is delivered exactly once).
    dup_dropped_.inc();
    return ready;
  }
  if (hdr.seq != next) {
    // Arrived ahead of order (multi-rail round robin / striping race): park
    // until the gap closes.
    reorder_.emplace(std::make_tuple(peer, hdr.ctx, vci, hdr.seq),
                     Inbound{hdr, std::move(payload)});
    reorder_parked_ctr_.inc();
    reorder_depth_peak_.track_max(reorder_.size());
    return ready;
  }
  ++next;
  ready.push_back(Inbound{hdr, std::move(payload)});
  // Drain any now-contiguous parked messages.
  for (auto it = reorder_.find({peer, hdr.ctx, vci, next}); it != reorder_.end();
       it = reorder_.find({peer, hdr.ctx, vci, next})) {
    ready.push_back(std::move(it->second));
    reorder_.erase(it);
    ++next;
  }
  return ready;
}

bool Matcher::header_matches(const MsgHeader& hdr, int src, int tag, int ctx) {
  if (hdr.ctx != ctx) return false;
  if (src != -1 && hdr.src_rank != src) return false;
  if (tag != -1 && hdr.tag != tag) return false;
  return true;
}

Request Matcher::match_posted(const MsgHeader& hdr) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (!header_matches(hdr, it->src, it->tag, it->ctx)) continue;
    Request req = it->req;
    posted_.erase(it);
    matched_ctr_.inc();
    return req;
  }
  return nullptr;
}

void Matcher::store_unexpected(Inbound&& msg) {
  unexpected_ctr_.inc();
  unexpected_.push_back(std::move(msg));
}

std::optional<Matcher::Inbound> Matcher::claim_unexpected(int src, int tag, int ctx) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!header_matches(it->hdr, src, tag, ctx)) continue;
    Inbound msg = std::move(*it);
    unexpected_.erase(it);
    matched_ctr_.inc();
    return msg;
  }
  return std::nullopt;
}

void Matcher::post(Request req, int src, int tag, int ctx) {
  posted_.push_back(PostedRecv{std::move(req), src, tag, ctx});
}

bool Matcher::iprobe(int src, int tag, int ctx, Status* st) const {
  for (const Inbound& u : unexpected_) {
    if (!header_matches(u.hdr, src, tag, ctx)) continue;
    if (st != nullptr) {
      *st = {u.hdr.src_rank, u.hdr.tag, static_cast<std::int64_t>(u.hdr.size)};
    }
    return true;
  }
  return false;
}

}  // namespace ib12x::mvx
