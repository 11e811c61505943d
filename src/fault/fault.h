// Deterministic fault injection for the RPoL transport and protocol layers.
//
// The protocol's security argument (PAPER.md Sec. IV-V) only holds if the
// manager reaches a correct accept/reject verdict when pool workers are
// unreliable or actively hostile. This module provides the adversarial
// environment to prove that against:
//
//   * FaultPlan    — per-message-type transport fault probabilities (drop,
//                    corrupt, truncate, duplicate, delay) driven by the
//                    repo's deterministic RNG, plus one scripted byzantine
//                    behavior (stale-commitment replay, forged checkpoint
//                    states, proof withholding, oversized payloads).
//   * FaultInjector — draws per-attempt fault decisions and mangles payload
//                    bytes; same seed => bitwise-identical fault sequence.
//                    Only a mangled attempt gets bytes of its own.
//   * FaultyChannel — wraps a size-counting channel (core::CountingChannel)
//                    WITHOUT disturbing its accounting: every transmission
//                    attempt, retries and duplicates included, is counted
//                    by the inner channel, so per-type byte counters reflect
//                    exactly what the sender put on the wire. Dropped,
//                    delayed, and mangled messages still count their full
//                    transmitted size; truncation and corruption happen
//                    in flight. The inner channel sees sizes only, and a
//                    clean delivery is the sender's own buffer: a message
//                    is never copied unless transit mangles it.
//   * RetryPolicy  — the bounded timeout/retry/backoff parameters protocol
//                    sessions and pools use to survive the plan.
//
// Layering: this library sits between tensor (RNG, Bytes) and core; it is
// keyed by plain message-type indices so it carries no protocol taxonomy of
// its own (core::MessageType casts in, bounds-checked against
// kMaxMessageTypes). With no plan installed every wrapper below is a strict
// pass-through — no RNG is constructed and no extra work runs — which is
// what keeps fault-free traced/untraced runs bitwise identical
// (tests/runtime_determinism_test.cpp).

#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "tensor/rng.h"
#include "tensor/serialize.h"

namespace rpol::fault {

// Upper bound on distinct message-type indices a plan can profile; the
// protocol currently uses core::kNumMessageTypes == 6 of them.
inline constexpr int kMaxMessageTypes = 8;

// Per-message-type transport fault probabilities, each in [0, 1]. At most
// one fault fires per transmission attempt; they are tested in the fixed
// order drop > delay > truncate > corrupt > duplicate so a plan's draw
// sequence is stable regardless of which probabilities are zero.
struct FaultProfile {
  double drop = 0.0;       // lost in transit, never arrives
  double delay = 0.0;      // arrives after the receiver's timeout (= lost)
  double truncate = 0.0;   // arrives with a random-length suffix cut off
  double corrupt = 0.0;    // arrives with 1-4 random bytes flipped
  double duplicate = 0.0;  // transmitted twice (both counted), one delivered

  bool any() const {
    return drop > 0.0 || delay > 0.0 || truncate > 0.0 || corrupt > 0.0 ||
           duplicate > 0.0;
  }
};

// Scripted protocol-level misbehaviors a worker can follow. Unlike
// transport faults these persist across retries (the peer is hostile, not
// unlucky), so the session must *reject or evict*, never accept.
enum class Byzantine : int {
  kNone = 0,
  kStaleCommitmentReplay,   // commits to a stale checkpoint sequence whose
                            // C_0 no longer matches the distributed state
  kForgedCheckpointState,   // proof responses carry states that do not hash
                            // to the commitment
  kProofWithholding,        // never answers proof requests
  kOversizedPayload,        // uploads a junk payload of absurd size
};

const char* byzantine_name(Byzantine behavior);

struct FaultPlan {
  std::uint64_t seed = 1;  // root of every fault decision this plan makes
  std::array<FaultProfile, kMaxMessageTypes> profiles{};
  Byzantine byzantine = Byzantine::kNone;
  // Payload size a kOversizedPayload worker uploads in place of its
  // commitment; pair with RetryPolicy::max_message_bytes below it to prove
  // the receiver rejects before parsing.
  std::uint64_t oversized_payload_bytes = 4ull << 20;

  FaultProfile& profile(int type) {
    return profiles[static_cast<std::size_t>(type)];
  }
  const FaultProfile& profile(int type) const {
    return profiles[static_cast<std::size_t>(type)];
  }

  bool has_transport_faults() const {
    for (const auto& p : profiles) {
      if (p.any()) return true;
    }
    return false;
  }

  // Uniform transport plan: the same profile on every message type.
  static FaultPlan transport(const FaultProfile& profile, std::uint64_t seed);
  // Pure byzantine plan: perfect transport, scripted misbehavior.
  static FaultPlan adversary(Byzantine behavior, std::uint64_t seed);
};

// Bounded timeout/retry/backoff parameters for one protocol exchange.
struct RetryPolicy {
  int max_attempts = 5;                  // transmissions per message (>= 1)
  std::int64_t backoff_base_ticks = 1;   // retry i waits base << i ticks
  std::int64_t backoff_cap_ticks = 64;   // exponential backoff ceiling
  // Receiver-side size cap, enforced BEFORE decoding: payloads above it are
  // rejected unparsed, bounding the memory a hostile peer can force.
  std::uint64_t max_message_bytes = 1ull << 28;
};

// Simulated ticks the sender waits after failed attempt `retry` (0-based):
// base << retry, clamped to the cap. Deterministic, no wall clock. Saturates
// instead of overflowing: arbitrarily large retry indices, caps up to
// INT64_MAX, and non-positive bases/caps (clamped to 0) are all safe —
// soak-scale retry budgets exercise exactly these corners.
std::int64_t backoff_ticks(const RetryPolicy& policy, int retry);

// Expected transmissions per message under per-attempt failure probability
// p and a budget of `max_attempts`: sum_{i=0}^{a-1} p^i = (1 - p^a)/(1 - p).
// Used by the analytic cost model to price communication under faults.
double expected_transmissions(double failure_probability, int max_attempts);

enum class DeliveryStatus : int {
  kDelivered = 0,  // payload arrived (possibly mangled; check `corrupted`)
  kDropped,        // lost in transit
  kDelayed,        // arrived after the receiver's timeout; discarded
};

// One transmission attempt. A clean delivery carries no bytes: what the
// receiver reads is the sender's own buffer. Only a truncated or corrupted
// attempt owns a copy, the mangled bytes that arrived.
struct Delivery {
  DeliveryStatus status = DeliveryStatus::kDelivered;
  bool corrupted = false;   // what arrived differs from what was sent
  bool duplicated = false;  // transmitted twice on the wire
  Bytes mangled;            // arrived bytes when corrupted, else empty

  // The bytes this attempt of `sent` hands the receiver: `sent` itself when
  // it arrived clean, else the mangled copy (empty if nothing arrived).
  const Bytes& received(const Bytes& sent) const {
    return status == DeliveryStatus::kDelivered && !corrupted ? sent : mangled;
  }
};

// Per-message-type fault occurrence counts, filled by FaultInjector.
struct FaultStats {
  std::array<std::uint64_t, kMaxMessageTypes> attempts{};
  std::array<std::uint64_t, kMaxMessageTypes> drops{};
  std::array<std::uint64_t, kMaxMessageTypes> delays{};
  std::array<std::uint64_t, kMaxMessageTypes> truncations{};
  std::array<std::uint64_t, kMaxMessageTypes> corruptions{};
  std::array<std::uint64_t, kMaxMessageTypes> duplicates{};

  std::uint64_t total_faults() const;

  bool operator==(const FaultStats& other) const = default;
};

// Draws fault decisions for successive transmission attempts. One injector
// per independent fault stream: `stream` sub-seeds the plan's root seed so
// e.g. each (epoch, worker) pair in a pool gets statistically independent
// but individually reproducible faults.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan, std::uint64_t stream = 0);

  // Applies the plan to one transmission attempt of `message` on `type`:
  // decides the fault and, if truncate or corrupt fired, copies what
  // arrives into Delivery::mangled (a truncation copies only the kept
  // prefix). Every other attempt allocates nothing.
  Delivery transmit(int type, const Bytes& message);

  // Byte-free variant for orchestration layers that model traffic
  // analytically (core::MiningPool's phases, which core::ShardedPool
  // drives, and core::AsyncMiningPool): same decision stream, no payload
  // to mangle. A truncated or corrupted attempt reports kDelivered +
  // corrupted=true, which retry loops treat as a failure.
  Delivery attempt(int type);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }

 private:
  enum class Mangle { kNone, kTruncate, kCorrupt };

  Delivery decide(int type);

  FaultPlan plan_;
  Rng rng_;
  FaultStats stats_;
  Mangle last_mangle_ = Mangle::kNone;
};

// Wraps a size-counting channel (any type exposing
// `count_to_worker(MessageTypeT, std::uint64_t bytes)` / `count_to_manager`,
// e.g. core::CountingChannel) with fault injection that never disturbs the
// inner accounting: the ORIGINAL message's size is counted once per
// transmission (twice when duplicated), so retransmitted bytes are counted
// under their message type exactly like first sends. The inner channel
// never sees the bytes, and the returned Delivery holds only a mangled
// copy: a clean delivery is `message` itself (Delivery::received), so the
// sender keeps `message` alive until the receiver has decoded it. With a
// null plan no fault is drawn and every delivery is clean — zero added
// state.
template <typename Channel>
class FaultyChannel {
 public:
  FaultyChannel(Channel& inner, const FaultPlan* plan,
                std::uint64_t stream = 0)
      : inner_(inner) {
    if (plan != nullptr) injector_.emplace(*plan, stream);
  }

  template <typename MessageTypeT>
  Delivery send_to_worker(MessageTypeT type, const Bytes& message) {
    return send(type, message, /*to_worker=*/true);
  }
  template <typename MessageTypeT>
  Delivery send_to_manager(MessageTypeT type, const Bytes& message) {
    return send(type, message, /*to_worker=*/false);
  }

  const FaultStats* stats() const {
    return injector_.has_value() ? &injector_->stats() : nullptr;
  }

 private:
  template <typename MessageTypeT>
  Delivery send(MessageTypeT type, const Bytes& message, bool to_worker) {
    Delivery delivery =
        injector_.has_value()
            ? injector_->transmit(static_cast<int>(type), message)
            : Delivery{};
    // Count what the sender transmitted (the original size), not what
    // survived transit; a duplicate is two full transmissions.
    const int copies = delivery.duplicated ? 2 : 1;
    for (int c = 0; c < copies; ++c) {
      if (to_worker) {
        inner_.count_to_worker(type, message.size());
      } else {
        inner_.count_to_manager(type, message.size());
      }
    }
    return delivery;
  }

  Channel& inner_;
  std::optional<FaultInjector> injector_;
};

}  // namespace rpol::fault
