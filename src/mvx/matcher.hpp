// MPI tag matching, decoupled from the endpoint (paper fig. 2's "tag
// matching" box plus the ordering restoration the multi-rail design needs).
//
// The matcher owns three data structures:
//   * per-(peer, ctx, vci) sequence counters — send-side allocation and
//     receive-side reordering, so MPI ordering survives round-robin and
//     striped schedules that race messages across rails.  Each VCI is an
//     independent sequence space: ordering (and the fault-replay dedup key)
//     is only promised within one VCI, never across VCIs;
//   * the posted-receive queue, scanned in post order with MPI wildcard
//     (ANY_SOURCE / ANY_TAG) semantics;
//   * the unexpected queue, scanned in arrival order by receives and probes.
//
// It is a pure data structure: no simulator, process, or channel types, so
// it is unit-testable in isolation.  The endpoint drives it from both
// process context (post / claim_unexpected / iprobe) and event context
// (sequence / match_posted / store_unexpected).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mvx/request.hpp"
#include "mvx/telemetry.hpp"
#include "mvx/wire.hpp"

namespace ib12x::mvx {

class Matcher {
 public:
  explicit Matcher(TelemetryRegistry& tel);

  /// A sequenced inbound message (Eager payload or Rts) awaiting matching.
  struct Inbound {
    MsgHeader hdr;
    std::vector<std::byte> payload;
  };

  // ---- sender side ----

  /// Allocates the next wire sequence number for (peer, ctx, vci).
  std::uint32_t next_send_seq(int peer, int ctx, int vci);

  // ---- receive side, step 1: per-(peer, ctx, vci) ordering ----

  /// Admits one arrival.  Returns the messages that are now deliverable in
  /// order: empty if `hdr.seq` is ahead of its turn (the message is parked
  /// until the gap closes), otherwise the message itself followed by any
  /// previously parked messages that became contiguous.
  std::vector<Inbound> sequence(int peer, const MsgHeader& hdr, std::vector<std::byte> payload);

  // ---- receive side, step 2: matching ----

  /// Matches an in-order arrival against the posted-receive queue; removes
  /// and returns the matching receive, or nullptr if none is posted.
  Request match_posted(const MsgHeader& hdr);

  /// Queues an arrival no posted receive matched.
  void store_unexpected(Inbound&& msg);

  // ---- process-context receive path ----

  /// Claims the first unexpected message matching (src, tag, ctx); wildcards
  /// use -1.  Returns nullopt when a receive should be posted instead.
  std::optional<Inbound> claim_unexpected(int src, int tag, int ctx);

  /// Appends to the posted-receive queue.
  void post(Request req, int src, int tag, int ctx);

  /// MPI_Iprobe semantics over the unexpected queue.
  bool iprobe(int src, int tag, int ctx, Status* st) const;

  [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }
  [[nodiscard]] std::size_t unexpected_count() const { return unexpected_.size(); }
  [[nodiscard]] std::size_t reorder_count() const { return reorder_.size(); }

 private:
  struct PostedRecv {
    Request req;
    int src;  // -1 = any
    int tag;  // -1 = any
    int ctx;
  };

  static bool header_matches(const MsgHeader& hdr, int src, int tag, int ctx);

  // Sequence counters and the reorder park are keyed by (peer, ctx, vci):
  // every VCI is its own ordered stream, so a replayed (peer, seq) pair from
  // one VCI can never alias a live message on another.  The counters, read
  // on every message, hash one packed key: peer in bits 40-63, ctx in 8-39,
  // vci in 0-7.  The reorder park is only touched on out-of-order and fault
  // paths.
  static std::uint64_t seq_key(int peer, int ctx, int vci);
  std::unordered_map<std::uint64_t, std::uint32_t> send_seq_;
  std::unordered_map<std::uint64_t, std::uint32_t> next_seq_;  // receive side
  std::map<std::tuple<int, int, int, std::uint32_t>, Inbound> reorder_;  // (peer, ctx, vci, seq)

  std::vector<PostedRecv> posted_;
  std::list<Inbound> unexpected_;

  Counter& unexpected_ctr_;
  Counter& reorder_parked_ctr_;
  Counter& reorder_depth_peak_;
  Counter& matched_ctr_;
  Counter& dup_dropped_;  ///< replayed eager/RTS duplicates discarded
};

}  // namespace ib12x::mvx
