#include "mvx/policy.hpp"

#include <algorithm>
#include <cstddef>

namespace ib12x::mvx {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::Binding: return "binding";
    case Policy::RoundRobin: return "round-robin";
    case Policy::EvenStriping: return "even-striping";
    case Policy::EPC: return "EPC";
    case Policy::WeightedStriping: return "weighted-striping";
    case Policy::Adaptive: return "adaptive";
  }
  return "?";
}

const char* to_string(CommKind k) {
  switch (k) {
    case CommKind::Blocking: return "blocking";
    case CommKind::Nonblocking: return "non-blocking";
    case CommKind::Collective: return "collective";
  }
  return "?";
}

namespace {

Schedule round_robin(int nrails, RailCursor& cursor) {
  Schedule s;
  s.rail = cursor.next;
  cursor.next = (cursor.next + 1) % nrails;
  return s;
}

Schedule striping(std::int64_t bytes, int nrails, std::int64_t threshold) {
  Schedule s;
  if (bytes >= threshold && nrails > 1) {
    s.stripe = true;
  } else {
    s.rail = 0;  // small messages ride a single QP (paper fig. 3)
  }
  return s;
}

}  // namespace

Schedule choose_schedule(Policy policy, CommKind kind, std::int64_t bytes,
                         int nrails, std::int64_t stripe_threshold, RailCursor& cursor) {
  if (nrails <= 1) return Schedule{};
  switch (policy) {
    case Policy::Binding:
      return Schedule{};  // rail 0
    case Policy::RoundRobin:
      return round_robin(nrails, cursor);
    case Policy::EvenStriping:
    case Policy::WeightedStriping:  // weights applied at stripe-split time
      return striping(bytes, nrails, stripe_threshold);
    case Policy::Adaptive:
      // Resolved by the rail manager, which knows per-rail load; default to
      // round robin here so a bare choose_schedule call stays sensible.
      return round_robin(nrails, cursor);
    case Policy::EPC:
      switch (kind) {
        case CommKind::Nonblocking:
          return round_robin(nrails, cursor);
        case CommKind::Blocking:
          return striping(bytes, nrails, stripe_threshold);
        case CommKind::Collective:
          // Stripe at/above the threshold; below it the collective's many
          // small steps still benefit from engine parallelism via RR.
          if (bytes >= stripe_threshold) return striping(bytes, nrails, stripe_threshold);
          return round_robin(nrails, cursor);
      }
  }
  return Schedule{};
}

int least_loaded_rail(const std::vector<std::int64_t>& outstanding) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(outstanding.size()); ++i) {
    if (outstanding[static_cast<std::size_t>(i)] < outstanding[static_cast<std::size_t>(best)]) {
      best = i;
    }
  }
  return best;
}

int least_loaded_rail(const std::vector<std::int64_t>& outstanding,
                      const std::vector<std::uint8_t>& up) {
  int best = -1;
  for (int i = 0; i < static_cast<int>(outstanding.size()); ++i) {
    if (i < static_cast<int>(up.size()) && up[static_cast<std::size_t>(i)] == 0) continue;
    if (best < 0 ||
        outstanding[static_cast<std::size_t>(i)] < outstanding[static_cast<std::size_t>(best)]) {
      best = i;
    }
  }
  return best >= 0 ? best : least_loaded_rail(outstanding);
}

std::vector<Stripe> plan_stripes(std::int64_t bytes, std::int64_t base_off,
                                 const std::vector<int>& rails, std::int64_t min_stripe,
                                 const std::vector<double>& weights, RailCursor& cursor) {
  std::vector<Stripe> stripes;
  const int nrails = static_cast<int>(rails.size());
  if (nrails == 0 || bytes <= 0) return stripes;

  const int n = static_cast<int>(
      std::min<std::int64_t>(nrails, std::max<std::int64_t>(1, bytes / min_stripe)));
  std::vector<double> w(static_cast<std::size_t>(n), 1.0);
  if (!weights.empty()) {
    for (int i = 0; i < n; ++i) {
      w[static_cast<std::size_t>(i)] = weights[static_cast<std::size_t>(i) % weights.size()];
    }
  }
  double wsum = 0;
  for (double x : w) wsum += x;

  // When the message cuts into fewer stripes than candidate rails, rotate
  // the base position through the shared cursor so successive transfers
  // spread over all rails instead of always hammering positions 0..n-1.
  int base = 0;
  if (n < nrails) {
    base = cursor.next % nrails;
    cursor.next = (base + n) % nrails;
  }

  std::int64_t off = 0;
  for (int i = 0; i < n; ++i) {
    const std::int64_t remaining = bytes - off;
    const int left = n - i;
    std::int64_t len;
    if (i + 1 == n) {
      len = remaining;
    } else {
      len = static_cast<std::int64_t>(static_cast<double>(bytes) *
                                      w[static_cast<std::size_t>(i)] / wsum);
      // Weight rounding must not produce sub-min_stripe (or zero/negative)
      // cuts: clamp up to min_stripe and down so every remaining stripe can
      // still get its minimum.  bytes >= n * min_stripe by the choice of n,
      // so both bounds are always satisfiable.
      len = std::max(len, min_stripe);
      len = std::min(len, remaining - min_stripe * (left - 1));
    }
    stripes.push_back({rails[static_cast<std::size_t>((base + i) % nrails)], base_off + off,
                       len});
    off += len;
  }
  return stripes;
}

}  // namespace ib12x::mvx
