// Commitment-based sampling verification (Sec. V-B) with the LSH
// optimization and double-check strategy (Sec. V-C).
//
// Verification of one worker epoch:
//   1. The worker's commitment arrives BEFORE sampling decisions exist
//      (commit-and-prove), so it cannot bias which transitions are checked.
//   2. The manager derives q sample indices from a PRF keyed by its secret
//      seed and the commitment root.
//   3. For each sampled transition j, in order, until one fails:
//        a. fetch proof_in = C_j; check SHA(C_j) against the commitment;
//        b. re-execute steps [s_j, s_{j+1}) from C_j on the manager's
//           device with the worker's deterministic batch selection;
//        c. RPoLv1: fetch C_{j+1} too (hash-checked) and accept iff
//           ||theta' - theta_{j+1}|| <= beta;
//           RPoLv2: accept iff LSH(theta') matches the committed LSH digest
//           of C_{j+1}; on mismatch run the DOUBLE-CHECK — fetch the raw
//           C_{j+1} (hash-checked) and fall back to the distance test.
//   4. Additionally C_0 must hash-match the state the manager distributed,
//      so a worker cannot train from a foreign starting point.
//
// The verifier also meters proof traffic and re-executed steps, feeding the
// cost accounting of Tables II/III.

#pragma once

#include <functional>
#include <optional>

#include "core/commitment.h"
#include "core/policy.h"
#include "obs/obs.h"

namespace rpol::core {

struct VerifierConfig {
  std::int64_t samples_q = 3;         // Sec. VII-A default
  double beta = 0.1;                  // distance threshold for dissimilarity
  // Borrowed LSH family: null => RPoLv1. A pool's family lives in its
  // EpochWorkspace; re-point the verifier before each epoch's verify_worker.
  const lsh::PStableLsh* lsh_family = nullptr;
  std::uint64_t sampling_seed = 42;   // manager secret entropy
};

// Why a verification rejected (kNone when accepted). The first failing
// condition wins; record_verdict bumps a `verify.reject.<reason>` counter
// for each rejection so traces can break verdicts down by cause.
enum class VerifyFailure : int {
  kNone = 0,        // accepted
  kMalformed,       // wrong shapes/boundaries/version — rejected unsampled
  kInitialBinding,  // C_0 does not hash-match the distributed state
  kHashMismatch,    // a fetched proof state failed its commitment hash check
  kDistance,        // re-execution distance above beta (v1 or double-check)
  kLshMismatch,     // LSH miss whose double-check also failed
  kNonFinite,       // a replayed or claimed trainable weight is NaN or Inf
};

const char* verify_failure_name(VerifyFailure failure);

struct TransitionCheck {
  std::int64_t transition = 0;
  bool lsh_matched = false;      // v2 only
  bool double_checked = false;   // v2 only
  double distance = 0.0;         // filled when a distance test ran
  bool passed = false;
  VerifyFailure failure = VerifyFailure::kNone;  // why it failed, if it did
};

struct VerifyResult {
  bool accepted = false;
  VerifyFailure failure = VerifyFailure::kNone;
  std::vector<TransitionCheck> checks;
  std::uint64_t proof_bytes = 0;        // states fetched from the worker
  std::int64_t reexecuted_steps = 0;    // manager compute
  std::int64_t double_checks = 0;       // RPoLv2 LSH misses re-judged raw
};

// Counts a reached verdict: `verify.accept` for kNone, else `verify.reject`
// and `verify.reject.<reason>`; write-only, so tracing cannot sway it.
void record_verdict(VerifyFailure failure);

// Deterministic post-commitment sampling: q indices in [0, transitions),
// drawn without replacement (q > transitions clamps; q < 1 throws).
std::vector<std::int64_t> sample_transitions(std::uint64_t seed,
                                             const Digest& commitment_root,
                                             std::int64_t transitions,
                                             std::int64_t q);

// Digest binding a compact commitment for post-commitment sampling.
Digest compact_commitment_binding(const CompactCommitment& compact);

// The commitment pre-check every verdict path runs before reading an index:
// the worker-chosen version must be the scheme's (v2 iff `use_lsh`) and the
// chain must hold one entry per checkpoint boundary of the agreed `hp`.
bool commitment_fits_task(CommitmentVersion version, std::int64_t checkpoints,
                          bool use_lsh, const Hyperparams& hp);

// Step 3c on the replayed state of transition j (Verifier::verify_samples
// runs step 3b). A missing replay (C_j of the wrong shape) fails as
// kMalformed. RPoLv2 (`committed_lsh` and `hasher` set) passes an LSH group
// match of the trainable weights, which must all be finite before hashing;
// otherwise `fetch_claimed` runs once for C_{j+1}, already hash-checked
// (nullopt if that check failed). A claimed model whose length differs
// from the replay's fails as kMalformed; otherwise both states' trainable
// weights must be finite and lie within `beta` of each other (over `mask`).
TransitionCheck judge_transition(
    std::int64_t j, const std::optional<TrainState>& replay,
    const lsh::LshDigest* committed_lsh, const lsh::PStableLsh* hasher,
    double beta, const std::vector<bool>& mask,
    const std::function<std::optional<TrainState>()>& fetch_claimed);

// How a verdict path serves sampled transition j: each state already
// checked against the commitment (nullopt if that check fails), handed over,
// not copied. `output` (C_{j+1}) is asked for by a distance test only, and
// `output_lsh` (C_{j+1}'s committed digest) by RPoLv2 only.
struct SampleProofs {
  std::function<std::optional<TrainState>(std::int64_t j)> input;  // C_j
  std::function<std::optional<TrainState>(std::int64_t j)> output;
  std::function<const lsh::LshDigest&(std::int64_t j)> output_lsh;
};

// Owns its re-execution executor only. Shard verifiers borrow the one LSH
// family of their pool's workspace (VerifierConfig::lsh_family), re-pointed
// before each epoch's verify_worker.
class Verifier {
 public:
  // `factory`/`hp` must match the task distributed to workers.
  Verifier(const nn::ModelFactory& factory, const Hyperparams& hp,
           VerifierConfig config);

  const VerifierConfig& config() const { return config_; }
  void set_beta(double beta) { config_.beta = beta; }
  void set_lsh_family(const lsh::PStableLsh* f) { config_.lsh_family = f; }

  // Verifies one worker epoch. `source` plays the worker-side proof store
  // the manager requests samples from — the in-memory EpochTrace or a
  // spill-backed core::CheckpointStore, bitwise the same verdicts (§6) —
  // and is fetched one checkpoint at a time, so the manager holds only the
  // sampled states it is re-executing; only the fetched checkpoints count
  // toward proof_bytes. `step_of` holds the checkpoint boundaries the
  // worker claims. `expected_initial_hash`, the hash of the state the
  // manager handed out at epoch start, binds C_0; of `context` only the
  // nonce and dataset are read. `trace_parent` (observability only) parents
  // the verifier's re-execution spans under the caller's verify span so they
  // join the epoch's causal tree; the default roots them standalone.
  VerifyResult verify(const Commitment& commitment,
                      const CheckpointSource& source,
                      const std::vector<std::int64_t>& step_of,
                      const EpochContext& context,
                      const Digest& expected_initial_hash,
                      sim::DeviceExecution& device,
                      const obs::TraceContext& trace_parent = {});
  // The in-memory trace as source, with its own step_of.
  VerifyResult verify(const Commitment& commitment, const EpochTrace& trace,
                      const EpochContext& context,
                      const Digest& expected_initial_hash,
                      sim::DeviceExecution& device,
                      const obs::TraceContext& trace_parent = {}) {
    return verify(commitment, trace, trace.step_of, context,
                  expected_initial_hash, device, trace_parent);
  }

  // Step 0 and the C_0 binding (§2.4) of a hash-list commitment to
  // `checkpoints` states at `step_of`; kNone when sampling may start.
  VerifyFailure precheck(const Commitment& commitment, std::int64_t checkpoints,
                         const std::vector<std::int64_t>& step_of,
                         const Digest& expected_initial_hash) const;

  // The one loop over sampled transitions, for every verdict path: per j,
  // re-executes C_j (released before theta' is saved) under a "reexecute"
  // span, judges it and tallies all but proof_bytes, which the caller
  // charges before its record_verdict. Each double-check bumps
  // `verify.double_check` as it runs, so one whose fetch fails counts too.
  // The first failed sample decides the verdict and ends the loop, so a
  // rejection's last check is its deciding one.
  VerifyResult verify_samples(const std::vector<std::int64_t>& samples,
                              const SampleProofs& proofs,
                              const std::vector<std::int64_t>& step_of,
                              const data::DatasetView& data,
                              std::uint64_t nonce,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent);

  // Compact-commitment variant (Sec. V-B's Merkle construction): the worker
  // uploaded only the O(1) CompactCommitment; sampled transitions arrive
  // with logarithmic membership proofs generated on demand from the
  // worker-side full commitment (`full` plays that role here, as `source`
  // plays the proof store). Leaf 0's membership proof binds C_0 to the
  // state the manager distributed.
  VerifyResult verify_compact(const CompactCommitment& compact,
                              const Commitment& full,
                              const CheckpointSource& source,
                              const std::vector<std::int64_t>& step_of,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent = {});
  VerifyResult verify_compact(const CompactCommitment& compact,
                              const Commitment& full, const EpochTrace& trace,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent = {}) {
    return verify_compact(compact, full, trace, trace.step_of, context,
                          expected_initial_hash, device, trace_parent);
  }

 private:
  Hyperparams hp_;
  VerifierConfig config_;
  StepExecutor executor_;
};

}  // namespace rpol::core
