// On-the-wire message formats of the MPI substrate.  Every eager payload and
// every control message starts with a MsgHeader; rendezvous data itself moves
// by RDMA write and carries no header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ib12x::mvx {

enum class MsgType : std::uint8_t {
  Eager,  ///< header + payload, matched like a normal message
  Rts,    ///< rendezvous request-to-send (matched like a message; ReadRts
          ///< variant carries the sender-side rkeys as payload)
  Cts,    ///< clear-to-send: receiver buffer {addr, rkey} (control, unordered)
  Fin,    ///< rendezvous finished (control, unordered)
  Done,   ///< read-rendezvous finished, receiver → sender (control, unordered)
};

/// Selectable rendezvous protocol (Config::rndv.protocol), carried in the RTS
/// so the receiver obeys the *sender's* choice (the two sides may be
/// configured differently).  Values are wire format.
enum class RndvProto : std::uint8_t {
  WriteRtsCts = 0,  ///< four-step RTS / CTS / RDMA-write / FIN (the paper's)
  ReadRts = 1,      ///< three-step: RTS carries rkeys, receiver RDMA-reads, Done
  WriteImm = 2,     ///< three-step: RTS / CTS / write-with-imm (FIN elided)
};

struct MsgHeader {
  MsgType type = MsgType::Eager;
  std::uint8_t kind = 0;         ///< CommKind recorded by the communication marker
  std::uint8_t vci = 0;          ///< virtual communication interface (seq-space slice)
  std::uint8_t proto = 0;        ///< Rts: RndvProto the sender chose (wire value)
  std::int32_t src_rank = -1;
  std::int32_t tag = 0;
  std::int32_t ctx = 0;          ///< communicator context id
  std::uint32_t seq = 0;         ///< per (pair, ctx, vci) ordering number (Eager/Rts only)
  std::uint64_t size = 0;        ///< payload bytes (Eager) / full message size (Rts)
                                 ///< / chunk bytes (Cts)
  std::uint64_t sender_cookie = 0;
  std::uint64_t receiver_cookie = 0;
  std::uint64_t raddr = 0;       ///< Cts: receiver address of the chunk
                                 ///< / ReadRts: sender buffer address
  std::uint32_t rkey = 0;        ///< Cts: receiver buffer rkey
  std::uint32_t chunk = 0;       ///< Cts: chunk index within the message
};

inline constexpr std::size_t kHeaderBytes = sizeof(MsgHeader);

// The chunk and vci fields must live in what used to be padding: growing the
// header would change eager slot sizes and memcpy charges, and with them
// every modelled message time.
static_assert(sizeof(MsgHeader) == 64, "MsgHeader grew: modelled wire timing would change");

/// Hard cap on HCAs per node the wire format supports (CTS carries one rkey
/// per HCA domain).
inline constexpr int kMaxHcas = 4;

/// CTS payload appended after MsgHeader: rkeys for every HCA domain of the
/// receiving node.
struct CtsRkeys {
  std::uint32_t rkey[kMaxHcas] = {0, 0, 0, 0};
};

inline void write_header(std::byte* dst, const MsgHeader& h) {
  std::memcpy(dst, &h, sizeof(h));
}

inline MsgHeader read_header(const std::byte* src) {
  MsgHeader h;
  std::memcpy(&h, src, sizeof(h));
  return h;
}

}  // namespace ib12x::mvx
