#include "fault/fault.h"

#include <algorithm>
#include <stdexcept>

namespace rpol::fault {

const char* byzantine_name(Byzantine behavior) {
  switch (behavior) {
    case Byzantine::kNone: return "none";
    case Byzantine::kStaleCommitmentReplay: return "stale_commitment_replay";
    case Byzantine::kForgedCheckpointState: return "forged_checkpoint_state";
    case Byzantine::kProofWithholding: return "proof_withholding";
    case Byzantine::kOversizedPayload: return "oversized_payload";
  }
  return "unknown";
}

FaultPlan FaultPlan::transport(const FaultProfile& profile,
                               std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.profiles.fill(profile);
  return plan;
}

FaultPlan FaultPlan::adversary(Byzantine behavior, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.byzantine = behavior;
  return plan;
}

std::int64_t backoff_ticks(const RetryPolicy& policy, int retry) {
  if (retry < 0) retry = 0;
  // Saturating base << retry. Two overflow holes the naive loop has that
  // soak-scale budgets (max_attempts in the thousands, caps near INT64_MAX)
  // actually hit: (a) doubling can pass the cap by overflowing first when
  // the cap exceeds INT64_MAX/2, which is signed-overflow UB, and (b) a
  // negative base doubles toward -INT64_MAX and overflows the other way.
  // Clamp both inputs to [0, cap] and stop doubling the moment the next
  // double would exceed the cap.
  const std::int64_t cap = std::max<std::int64_t>(policy.backoff_cap_ticks, 0);
  std::int64_t ticks =
      std::min(std::max<std::int64_t>(policy.backoff_base_ticks, 0), cap);
  for (int i = 0; i < retry && ticks < cap; ++i) {
    if (ticks > cap - ticks) {  // ticks * 2 > cap, computed without overflow
      ticks = cap;
      break;
    }
    ticks *= 2;
  }
  return ticks;
}

double expected_transmissions(double failure_probability, int max_attempts) {
  const double p = std::clamp(failure_probability, 0.0, 1.0);
  if (max_attempts < 1) return 0.0;
  if (p >= 1.0) return static_cast<double>(max_attempts);
  // Geometric series: the i-th transmission happens iff the first i failed.
  double sum = 0.0;
  double term = 1.0;
  for (int i = 0; i < max_attempts; ++i) {
    sum += term;
    term *= p;
  }
  return sum;
}

std::uint64_t FaultStats::total_faults() const {
  std::uint64_t total = 0;
  for (int t = 0; t < kMaxMessageTypes; ++t) {
    const auto i = static_cast<std::size_t>(t);
    total += drops[i] + delays[i] + truncations[i] + corruptions[i] +
             duplicates[i];
  }
  return total;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t stream)
    : plan_(plan), rng_(derive_seed(plan.seed, stream)) {}

Delivery FaultInjector::decide(int type) {
  if (type < 0 || type >= kMaxMessageTypes) {
    throw std::out_of_range("message type outside fault plan range");
  }
  const auto i = static_cast<std::size_t>(type);
  ++stats_.attempts[i];
  const FaultProfile& profile = plan_.profiles[i];

  // Always consume exactly five uniforms per attempt so the decision
  // stream is independent of which probabilities happen to be zero —
  // editing one knob of a plan must not reshuffle every later draw.
  const double u_drop = rng_.next_double();
  const double u_delay = rng_.next_double();
  const double u_truncate = rng_.next_double();
  const double u_corrupt = rng_.next_double();
  const double u_duplicate = rng_.next_double();

  Delivery delivery;
  last_mangle_ = Mangle::kNone;
  if (u_drop < profile.drop) {
    delivery.status = DeliveryStatus::kDropped;
    ++stats_.drops[i];
  } else if (u_delay < profile.delay) {
    delivery.status = DeliveryStatus::kDelayed;
    ++stats_.delays[i];
  } else if (u_truncate < profile.truncate) {
    delivery.corrupted = true;
    last_mangle_ = Mangle::kTruncate;
    ++stats_.truncations[i];
  } else if (u_corrupt < profile.corrupt) {
    delivery.corrupted = true;
    last_mangle_ = Mangle::kCorrupt;
    ++stats_.corruptions[i];
  } else if (u_duplicate < profile.duplicate) {
    delivery.duplicated = true;
    ++stats_.duplicates[i];
  }
  return delivery;
}

Delivery FaultInjector::attempt(int type) { return decide(type); }

Delivery FaultInjector::transmit(int type, const Bytes& message) {
  Delivery delivery = decide(type);
  // Lost, delayed and clean attempts carry no bytes: a clean delivery is
  // the sender's own buffer (Delivery::received).
  if (delivery.status != DeliveryStatus::kDelivered || !delivery.corrupted) {
    return delivery;
  }

  if (last_mangle_ == Mangle::kTruncate) {
    const std::size_t keep = message.empty()
                                 ? 0
                                 : static_cast<std::size_t>(rng_.next_below(
                                       static_cast<std::uint64_t>(message.size())));
    delivery.mangled.assign(message.begin(),
                            message.begin() + static_cast<std::ptrdiff_t>(keep));
  } else {
    delivery.mangled = message;
    if (!delivery.mangled.empty()) {
      const int flips = 1 + static_cast<int>(rng_.next_below(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t pos = static_cast<std::size_t>(rng_.next_below(
            static_cast<std::uint64_t>(delivery.mangled.size())));
        delivery.mangled[pos] ^=
            static_cast<std::uint8_t>(1 + rng_.next_below(255));
      }
    }
  }
  return delivery;
}

}  // namespace rpol::fault
