// The rendezvous protocol module: RTS → CTS(rkeys) → striped RDMA writes →
// FIN (paper fig. 2's "rendezvous protocol" box plus the striping half of
// the communication scheduler).
//
// Three wire protocols share the module, selected by Config::rndv.protocol
// (the sender's choice rides in the RTS, so mixed configurations interop):
//
//  * WriteRtsCts (default): the four-step RTS / CTS / RDMA-write / FIN above;
//  * ReadRts: the RTS carries the sender's pinned-buffer rkeys, the receiver
//    pulls by striped RDMA Read and answers with a Done control message —
//    one control round-trip fewer on the critical path;
//  * WriteImm: like WriteRtsCts, but the FIN is elided — the last (or only)
//    write is posted with an immediate carrying {vci, receiver cookie}, and
//    the receiver completes straight off that CQE.
//
// With Config::rndv.adaptive the per-message choice moves to RndvPolicy, an
// epsilon-greedy bandit over protocol × stripe width per (peer, size class).
//
// The write protocols have one data path, the registration pipeline of Liu
// et al.: the receiver registers the target buffer in rndv_pipeline_chunk
// pieces and streams one CTS per chunk as its registration completes, and
// the sender registers each chunk behind its CTS, plans the chunk's stripes
// and posts each stripe as soon as it is built (Config::post_cpu() =
// wqe_build_cpu + doorbell_cpu per stripe).  The default chunk of 0 makes
// the whole message one chunk: one registration, one CTS, one set of
// stripes, the paper's one-shot rendezvous.
//
// Buffer pinning goes through the PinCache (interval lookup, LRU eviction).
// Every piece of protocol work runs on the message's VCI progress server.
// Data and control movement go through the NetChannel so rail credits and
// outstanding-byte accounting stay in one place.  The rndv.* counters of
// every protocol are registered whatever the configuration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "ib/verbs.hpp"
#include "mvx/channel.hpp"
#include "mvx/pin_cache.hpp"
#include "mvx/rndv_policy.hpp"
#include "mvx/telemetry.hpp"

namespace ib12x::mvx {

class NetChannel;

class Rendezvous {
 public:
  Rendezvous(ChannelHost& host, NetChannel& net);
  ~Rendezvous();

  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;

  /// Sender entry (process context): bytes >= rndv_threshold.
  void send_rts(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag, int ctx,
                const Request& req);

  /// Event-context twin of send_rts for flushing sends queued behind a lazy
  /// handshake: instead of blocking on a control credit it reports failure
  /// and leaves the send queued (claiming no sequence number or cookie).
  bool try_send_rts(int peer, CommKind kind, const void* buf, std::int64_t bytes, int tag,
                    int ctx, const Request& req);

  /// Receiver side of a matched RTS: dispatches on the RTS's protocol field.
  /// Write protocols register the buffer and reply CTS; ReadRts pulls the
  /// payload by RDMA Read using `read_rkeys`, the rkeys its RTS carried.
  void accept(const MsgHeader& rts, const Request& req, const CtsRkeys& read_rkeys = {});

  /// CTS arrival at the sender (event context, CPU already charged).
  void on_cts(const MsgHeader& hdr, const CtsRkeys& rkeys);
  /// FIN arrival at the receiver (event context).
  void on_fin(const MsgHeader& hdr);
  /// Done arrival at the sender (ReadRts; event context).
  void on_done(const MsgHeader& hdr);
  /// Write-with-imm landed on this receiving rank (WriteImm protocol): the
  /// imm word packs (vci << 28) | receiver_cookie and replaces the FIN.
  void on_imm(std::uint32_t imm_data);
  /// One stripe write completed on the wire (requester CQE, CPU charged).
  void on_write_done(int peer, std::uint64_t req_id);
  /// One stripe write failed (error CQE under fault injection): re-plan it
  /// over the surviving rails and re-post (event context, CPU charged).
  void on_write_failed(int peer, const RndvStripe& st);
  /// One rendezvous read completed / failed (ReadRts; receiver-side CQE).
  void on_read_done(int peer, std::uint64_t req_id);
  void on_read_failed(int peer, const RndvStripe& st);

  /// One planned RDMA-write stripe (the planning math lives in
  /// mvx::plan_stripes; the alias keeps Rendezvous::Stripe spelling valid
  /// for the stripe-planning tests).
  using Stripe = mvx::Stripe;

 private:
  /// Sender-side state of one rendezvous, keyed by sender cookie: created
  /// with the RTS, erased when the send completes.
  struct SendState {
    // Protocol choice, made at RTS time.
    RndvProto proto = RndvProto::WriteRtsCts;
    int arm = -1;    ///< RndvPolicy arm, -1 for static selection
    int width = 0;   ///< forced stripe width, 0 = policy default
    sim::Time start = 0;
    /// Sender pins: the whole buffer (ReadRts) or one per chunk (writes).
    std::vector<PinCache::Region*> pins;
    /// Write protocols: the stripes in flight per chunk, -1 until the
    /// chunk's CTS arrives.  A replayed CTS (a fault-injection retry of a
    /// control message that did arrive) finds its entry >= 0 and is dropped.
    /// Empty on the read path.
    std::vector<int> chunk_writes;
    std::uint32_t chunks_started = 0;  ///< chunks whose CTS has been processed
    std::uint32_t chunks_landed = 0;   ///< chunks whose writes all completed
    // WriteImm: the immediate that replaces the FIN, set once the CTS names
    // the receiver cookie.
    bool imm_armed = false;
    std::uint32_t imm = 0;    ///< (vci << 28) | receiver_cookie
    bool imm_folded = false;  ///< imm rides the single data write itself
    bool imm_posted = false;  ///< imm already on the wire (folded or trailing)
  };
  /// Receiver-side state of one rendezvous, keyed by receiver cookie.
  struct RecvState {
    std::vector<PinCache::Region*> pins;
    // ReadRts: this side pulls, then answers the sender with Done.
    int pending = 0;                  ///< read stripes still in flight
    std::uint64_t sender_cookie = 0;  ///< echoed in the Done control message
    int peer = -1;
    int vci = 0;
  };

  /// Splits `bytes` at message offset `base_off` into rail stripes following
  /// the configured policy (even/weighted/adaptive, multi-lane pinning) over
  /// candidate_rails.  Stripe lengths never fall below min_stripe and always
  /// sum to `bytes`; when fewer stripes than rails are cut, the base rail
  /// rotates through the peer's cursor so all rails see load.
  std::vector<Stripe> plan_stripes(int peer, const Request& req, std::int64_t base_off,
                                   std::int64_t bytes);
  /// Flat indices of the rails a transfer on `vci` may use: the VCI's slice,
  /// or its live subset under failover.  If an outage leaves none, the whole
  /// slice: the writes fail and the error path re-plans once one recovers.
  std::vector<int> candidate_rails(int peer, int vci);

  /// Sender side of one chunk's CTS: register the chunk, plan its stripes
  /// and post them.
  void start_chunk_writes(int peer, const Request& req, SendState& ss, const MsgHeader& cts,
                          const CtsRkeys& rkeys);
  /// Sends FIN (unless the protocol elided it) and completes the local send.
  void finish_send(int peer, std::uint64_t cookie, const Request& req);
  /// Releases the sender pins, feeds the adaptive policy the observed
  /// completion time and drops the send's state.
  void end_send(std::uint64_t cookie, const Request& req);
  /// The state of an in-flight send; throws for an unknown cookie.
  SendState& send_state(std::uint64_t cookie);
  /// Releases the receiver pins of a write-protocol receive and drops its
  /// state.
  void end_recv(std::uint64_t rcookie);
  /// Re-plans a failed stripe over the live rails and posts the pieces; if
  /// no rail is alive, parks itself until the recovery interval elapses.
  void repost_stripe(int peer, const RndvStripe& st);

  /// The flat rail an RTS to `peer` goes out on (round-robin over the VCI's
  /// slice).
  int rts_rail(int peer, CommKind kind, int vci);
  /// Fills the RTS of one outgoing rendezvous: claims its sequence number
  /// and sender cookie, opens its SendState and picks its protocol.  ReadRts
  /// pins the send buffer and fills `rkeys`; returns that pin cost (else 0).
  sim::Time open_send(int peer, CommKind kind, std::int64_t bytes, int tag, int ctx,
                      const Request& req, MsgHeader& hdr, CtsRkeys& rkeys);
  /// Picks the protocol (and forced width) for one outgoing rendezvous into
  /// `ss`; WriteRtsCts with everything off.
  void select_proto(int peer, std::int64_t bytes, const Request& req, SendState& ss);
  /// Pins the send buffer for a ReadRts RTS and fills raddr/width/rkeys.
  /// Returns the pin cost to charge.
  sim::Time prepare_read_rts(MsgHeader& hdr, const Request& req, std::int64_t bytes,
                             SendState& ss, CtsRkeys& rkeys);
  /// Receiver side of a ReadRts RTS: pin, plan read stripes, post the pulls.
  void accept_read(const MsgHeader& rts, const Request& req, const CtsRkeys& rkeys);
  /// Stripe planning over at most `width` candidate rails (0 = all of
  /// them), shared by reads and width-forced writes.
  std::vector<Stripe> plan_limited(int peer, int vci, std::int64_t base_off, std::int64_t bytes,
                                   int width);
  /// All read stripes landed: release pins, send Done, complete the receive.
  void finish_read(std::uint64_t rcookie);
  /// Re-plans a failed read stripe over the live rails (receiver side).
  void repost_read(int peer, const RndvStripe& st);
  /// Posts the zero-byte trailing write-with-imm once every data write of a
  /// multi-stripe WriteImm transfer has completed.
  void post_trailing_imm(int peer, std::uint64_t cookie, std::uint32_t imm);

  std::uint64_t new_cookie(const Request& req);
  Request take_cookie(std::uint64_t id);
  Request peek_cookie(std::uint64_t id);

  ChannelHost& host_;
  NetChannel& net_;

  std::unique_ptr<PinCache> pin_cache_;
  /// Every live cookie, sender and receiver side alike (one counter).
  std::map<std::uint64_t, Request> outstanding_;
  std::map<std::uint64_t, SendState> sends_;
  std::map<std::uint64_t, RecvState> recvs_;
  std::unique_ptr<RndvPolicy> policy_;  ///< only with Config::rndv.adaptive
  std::uint64_t next_cookie_ = 1;

  Counter& rts_sent_;
  Counter& bytes_sent_;
  Counter& stripes_posted_;
  Counter& reg_hits_;
  Counter& reg_misses_;
  Counter& reg_evictions_;
  Counter& cts_chunks_;
  Counter& pipeline_depth_;  ///< high-water mark of chunks in flight (track_max)
  Counter& dup_ctl_dropped_;  ///< replayed CTS/FIN duplicates discarded
  Counter& restriped_;        ///< failed stripes re-planned over live rails
  Counter& read_stripes_;
  Counter& imm_sent_;        ///< trailing imm posts
  Counter& imm_folded_;      ///< imm rode the data write
  Counter& done_sent_;
  Counter& policy_explore_;
  Counter& policy_exploit_;
};

}  // namespace ib12x::mvx
