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
      return striping(bytes, nrails, stripe_threshold);
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

std::vector<Stripe> plan_stripes(std::int64_t bytes, std::int64_t base_off,
                                 const std::vector<int>& rails, std::int64_t min_stripe,
                                 RailCursor& cursor) {
  std::vector<Stripe> stripes;
  const int nrails = static_cast<int>(rails.size());
  if (nrails == 0 || bytes <= 0) return stripes;

  const int n = static_cast<int>(
      std::min<std::int64_t>(nrails, std::max<std::int64_t>(1, bytes / min_stripe)));

  // When the message cuts into fewer stripes than candidate rails, rotate
  // the base position through the shared cursor so successive transfers
  // spread over all rails instead of always hammering positions 0..n-1.
  int base = 0;
  if (n < nrails) {
    base = cursor.next % nrails;
    cursor.next = (base + n) % nrails;
  }

  const std::int64_t share = bytes / n;
  for (int i = 0; i < n; ++i) {
    const std::int64_t off = share * i;
    stripes.push_back({rails[static_cast<std::size_t>((base + i) % nrails)], base_off + off,
                       i + 1 == n ? bytes - off : share});
  }
  return stripes;
}

}  // namespace ib12x::mvx
