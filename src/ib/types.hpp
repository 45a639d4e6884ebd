// Work-request / completion types for the verbs-like model API.
//
// Shapes deliberately mirror OpenIB Gen2 (ibv_send_wr / ibv_recv_wr / ibv_wc)
// so the MPI substrate above reads like code written against real verbs.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace ib12x::ib {

using QpNum = std::uint32_t;
using LKey = std::uint32_t;
using RKey = std::uint32_t;

enum class Opcode : std::uint8_t {
  Send,              ///< channel semantics; consumes a receive WQE at the responder
  RdmaWrite,         ///< memory semantics; invisible to the responder
  RdmaWriteWithImm,  ///< RDMA write that additionally consumes a receive WQE
  RdmaRead,          ///< memory semantics; responder HCA streams data back
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::Send;
  const std::byte* src = nullptr;  ///< registered local buffer
  std::uint32_t length = 0;
  LKey lkey = 0;
  // RDMA only.  For RdmaRead, `src`/`lkey` name the *local destination*
  // buffer and `remote_addr`/`rkey` the remote source (ibv_send_wr uses the
  // same sg-list fields for both directions).
  std::uint64_t remote_addr = 0;
  RKey rkey = 0;
  // RdmaWriteWithImm only:
  std::uint32_t imm_data = 0;
  /// Unsignaled sends produce no completion (used for credit piggybacking).
  bool signaled = true;
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  std::byte* dst = nullptr;
  std::uint32_t length = 0;
  LKey lkey = 0;
};

enum class WcOpcode : std::uint8_t {
  SendComplete,       ///< Send WQE acknowledged by the responder
  RdmaWriteComplete,  ///< RDMA write acknowledged (remote memory updated)
  RdmaReadComplete,   ///< RDMA read response landed in local memory
  RecvComplete,       ///< inbound Send (or write-with-imm) landed
};

/// Completion status (mirrors ibv_wc_status).  Anything but Success means the
/// WQE's data did not (necessarily) reach the remote side: WrFlushErr marks
/// WQEs drained from a queue when its QP entered the error state, RetryExcErr
/// marks transport-level delivery failure (injected message faults, RNR retry
/// exhaustion while the responder has no receive posted).
enum class WcStatus : std::uint8_t {
  Success,
  WrFlushErr,
  RetryExcErr,
};

inline const char* to_string(WcStatus s) {
  switch (s) {
    case WcStatus::Success: return "success";
    case WcStatus::WrFlushErr: return "flush-err";
    case WcStatus::RetryExcErr: return "retry-exceeded";
  }
  return "?";
}

/// Wc::buf of a completion that names no SRQ buffer.
inline constexpr std::uint32_t kNoBuf = ~std::uint32_t{0};

/// Work completion.  40 bytes: the responder's receive-CQE event captures it
/// with its QP pointer in the kernel's 48-byte in-place event storage.
struct Wc {
  std::uint64_t wr_id = 0;
  WcOpcode opcode = WcOpcode::SendComplete;
  WcStatus status = WcStatus::Success;
  bool has_imm = false;
  std::uint32_t byte_len = 0;
  QpNum qp_num = 0;      ///< local QP this completion belongs to
  QpNum src_qp = 0;      ///< remote QP (receive completions)
  std::uint32_t imm_data = 0;
  /// SRQ buffer an inbound Send landed in (SharedReceiveQueue::buffer), or
  /// kNoBuf; the consumer releases it once it has read the message.
  std::uint32_t buf = kNoBuf;
  sim::Time timestamp = 0;
};

}  // namespace ib12x::ib
