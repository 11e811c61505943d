// Message-passing protocol session: one worker epoch executed purely over
// canonical wire messages (core/wire.h) through a byte-counting channel.
//
// The pool (ShardedPool driving MiningPool's phases, core/sharded_pool.h)
// orchestrates many workers with in-process structures and models traffic
// analytically; ProtocolSession is the ground-truth realization of ONE
// manager<->worker exchange where every protocol artifact crosses the
// channel as encoded bytes and is decoded (and validated) on the other
// side:
//
//   M -> W : TaskAnnouncement            (epoch, nonce, hp, state hash, LSH)
//   M -> W : global TrainState           (the model to train from)
//   W -> M : CommitmentMessage           (after local training)
//   W -> M : update TrainState           (the final model, paid for)
//   M -> W : ProofRequest                (post-commitment samples)
//   W -> M : ProofResponse               (requested checkpoint states)
//   M      : re-execution & decision
//
// Both TrainStates cross as digest-checked StateChunk frames (core/wire.h).
//
// Tests use it to assert that the analytic cost model's message structure
// matches what the protocol actually sends, and that a malicious worker
// cannot gain anything by sending malformed bytes (decode rejects them).
//
// Robustness: every exchange runs through a bounded timeout/retry/backoff
// state machine (SessionConfig::retry). An optional fault::FaultPlan drops,
// corrupts, truncates, duplicates, or delays messages deterministically, and
// scripts byzantine worker behaviors; the session must then either succeed
// (honest worker, transport faults within budget) or fail with a typed
// SessionStatus — never crash, never accept a byzantine peer.
// tests/fault_conformance_test.cpp sweeps this contract.

#pragma once

#include <array>
#include <limits>

#include "core/pool.h"
#include "core/wire.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace rpol::core {

// The protocol's message taxonomy: everything that crosses the channel is
// one of these. The same names form the `bytes.<type>` counter namespace in
// the metrics registry (docs/observability.md), so traffic accounting in
// traces, sessions, and the analytic cost model line up by construction.
enum class MessageType : int {
  kAnnouncement = 0,  // TaskAnnouncement (manager -> worker)
  kGlobalState,       // global TrainState download
  kCommitment,        // checkpoint commitment upload
  kUpdate,            // final model update upload
  kProofRequest,      // sampled transition indices
  kProofResponse,     // requested checkpoint states (incl. double-checks)
};
inline constexpr int kNumMessageTypes = 6;

const char* message_type_name(MessageType type);

// Byte-counting in-process transport with per-message-type accounting. It
// counts sizes only and never holds a message: the receiver decodes the
// sender's own buffer (fault::FaultyChannel, which wraps this channel).
class CountingChannel {
 public:
  // Counts one transmission of a `bytes`-byte message under both the
  // direction total and the message type (and mirrors the type counts into
  // the metrics registry when tracing is enabled).
  void count_to_worker(MessageType type, std::uint64_t bytes);
  void count_to_manager(MessageType type, std::uint64_t bytes);

  std::uint64_t bytes_to_worker() const { return to_worker_; }
  std::uint64_t bytes_to_manager() const { return to_manager_; }
  std::uint64_t total_bytes() const { return to_worker_ + to_manager_; }

  const std::array<std::uint64_t, kNumMessageTypes>& bytes_by_type() const {
    return by_type_;
  }

 private:
  std::uint64_t to_worker_ = 0;
  std::uint64_t to_manager_ = 0;
  std::array<std::uint64_t, kNumMessageTypes> by_type_{};
};

struct SessionConfig {
  Scheme scheme = Scheme::kRPoLv2;
  std::int64_t samples_q = 3;
  double beta = 1e-3;
  std::uint64_t sampling_seed = 77;
  std::optional<lsh::LshConfig> lsh;  // required for kRPoLv2
  // Fault environment: nullptr means perfect lossless transport and an
  // honest-transport worker — the exact pre-fault-layer behavior, with no
  // RNG constructed (fault injection is zero-cost when not installed).
  const fault::FaultPlan* fault_plan = nullptr;
  // Timeout/retry/backoff budget the session grants each message exchange.
  fault::RetryPolicy retry;
  // Payload bytes per state chunk. The global-state download and the update
  // upload always travel as kTagStateChunk frames carrying at most this
  // many payload bytes each; the default sends each state as one chunk, so
  // one frame per state. Every chunk is its own retried exchange under the
  // SAME MessageType (so per-type fault profiles and byte accounting apply
  // per chunk) with its own payload digest. With chunks smaller than the
  // state, neither endpoint materializes the full encoding: the sender
  // slices on demand, the receiver decodes incrementally. 0 is refused
  // (std::invalid_argument).
  // ProofResponse stays one frame: it carries all q requested input states
  // (and, for RPoLv1, their q output states), so its receiver does buffer
  // the whole encoding.
  std::size_t chunk_bytes = std::numeric_limits<std::size_t>::max();
  // Receiver-side cap on the announced total of a chunked state stream; a
  // stream claiming more is rejected before any buffering (the chunked
  // counterpart of RetryPolicy::max_message_bytes).
  std::uint64_t max_state_bytes = 256ULL * 1024 * 1024;
  // Causal parent the session's root span adopts (e.g. a pool epoch span),
  // so many sessions stitch into one epoch tree. Default: the session roots
  // its own trace. Observability only — never read by protocol logic.
  obs::TraceContext trace_parent{};
};

// SessionStatus — the typed outcome taxonomy sessions share with the pool
// admission layer — lives in core/pool.h (this header includes it).

struct SessionOutcome {
  bool accepted = false;
  SessionStatus status = SessionStatus::kVerdictRejected;
  std::vector<float> final_model;      // the worker's submitted update
  std::uint64_t bytes_to_worker = 0;   // announcement + global state + request
  std::uint64_t bytes_to_manager = 0;  // commitment + update + proofs
  // Per-message-type breakdown, indexed by MessageType; sums to
  // bytes_to_worker + bytes_to_manager (retransmissions and duplicates
  // included, counted under their type).
  std::array<std::uint64_t, kNumMessageTypes> bytes_by_type{};
  std::int64_t double_checks = 0;
  // Retry/backoff accounting (all zero on a lossless run).
  std::array<std::uint64_t, kNumMessageTypes> retries_by_type{};
  std::int64_t total_retries = 0;
  std::int64_t backoff_ticks = 0;      // simulated waiting, never wall clock
  fault::FaultStats faults;            // what the injector actually did
};

// Runs the complete epoch exchange. The worker side is driven by `policy`
// on `worker_device`; the manager re-executes on `manager_device`.
SessionOutcome run_protocol_session(
    const nn::ModelFactory& factory, const Hyperparams& hp,
    const SessionConfig& config, const TrainState& global_state,
    std::uint64_t nonce, const data::DatasetView& worker_data,
    WorkerPolicy& policy, const sim::DeviceProfile& worker_device,
    std::uint64_t worker_run_seed, const sim::DeviceProfile& manager_device,
    std::uint64_t manager_run_seed);

}  // namespace rpol::core
