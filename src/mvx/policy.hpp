// Multi-rail communication scheduling policies (§3.2 of the paper) and the
// communication-marker classification (§3.3).
//
// A *rail* is one queue pair: the cross product of HCAs × ports × QPs-per-
// port.  A policy maps (message kind, message size) to a schedule: either a
// single rail carries the whole message, or the message is striped across
// all rails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ib12x::mvx {

enum class Policy : std::uint8_t {
  Binding,          ///< every message on one fixed rail (the paper's "original" baseline uses this with 1 QP/port)
  RoundRobin,       ///< whole messages on successive rails, circularly
  EvenStriping,     ///< messages >= stripe threshold split equally over all rails
  EPC,              ///< Enhanced Point-to-point and Collective: marker-driven (the paper's contribution)
  WeightedStriping, ///< extension: striping proportional to configured rail weights
  Adaptive,         ///< extension: whole messages to the least-loaded rail
};

/// What the ADI-layer communication marker knows about a transfer.
enum class CommKind : std::uint8_t {
  Blocking,     ///< MPI_Send/MPI_Recv: one message outstanding per pair
  Nonblocking,  ///< MPI_Isend/MPI_Irecv windows
  Collective,   ///< issued from inside a collective algorithm step
};

/// The scheduling decision for one message.
struct Schedule {
  bool stripe = false;  ///< split across all rails
  int rail = 0;         ///< rail index when !stripe
};

/// Per-peer scheduling state (round-robin cursor, outstanding bytes for the
/// adaptive policy).
struct RailCursor {
  int next = 0;
};

const char* to_string(Policy p);
const char* to_string(CommKind k);

/// The communication marker + policy table: decides how `bytes` of kind
/// `kind` travel over `nrails` rails.  `stripe_threshold` is the paper's
/// 16 KiB cutoff (also the rendezvous threshold).
///
/// EPC resolution (paper §3.2–3.3):
///   blocking     → even striping   (exploit parallel engines on one message)
///   non-blocking → round robin     (avoid per-stripe posting/ACK overheads;
///                                   the window supplies engine parallelism)
///   collective   → even striping   (each algorithm step is synchronous, so
///                                   its non-blocking calls behave like
///                                   blocking traffic)
Schedule choose_schedule(Policy policy, CommKind kind, std::int64_t bytes,
                         int nrails, std::int64_t stripe_threshold, RailCursor& cursor);

/// The Adaptive policy's rail pick: the rail with the fewest outstanding
/// bytes (ties broken toward the lowest index).  `outstanding` is the
/// per-rail outstanding-byte gauge the channel maintains.
int least_loaded_rail(const std::vector<std::int64_t>& outstanding);

/// Masked overload for failover: only rails with up[i] != 0 are candidates.
/// Falls back to plain least-loaded when no rail is up (the caller's
/// recovery machinery will resurrect one).
int least_loaded_rail(const std::vector<std::int64_t>& outstanding,
                      const std::vector<std::uint8_t>& up);

/// One planned stripe of a striped transfer; `offset` is absolute within the
/// message.
struct Stripe {
  int rail;
  std::int64_t offset;
  std::int64_t len;
};

/// Splits `bytes` at message offset `base_off` into stripes over the listed
/// rails.  `rails` is the candidate list — every rail normally, the live
/// subset under failover — and stripes are assigned over list *positions*,
/// starting at a base that rotates through `cursor` whenever fewer stripes
/// than candidates are cut (so successive transfers spread over all rails).
/// Stripe lengths follow `weights` cyclically (empty = equal shares), never
/// fall below `min_stripe`, and always sum to `bytes`.  Returns an empty
/// vector for bytes <= 0 or an empty rail list.
std::vector<Stripe> plan_stripes(std::int64_t bytes, std::int64_t base_off,
                                 const std::vector<int>& rails, std::int64_t min_stripe,
                                 const std::vector<double>& weights, RailCursor& cursor);

}  // namespace ib12x::mvx
