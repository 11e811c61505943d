#include "core/verifier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace rpol::core {

namespace {

// Shared verdict accounting for both verification paths. The registry is
// write-only from here: nothing read back, so tracing cannot perturb the
// accept/reject decision.
void record_verdict(const VerifyResult& result) {
  obs::count(result.accepted ? "verify.accept" : "verify.reject", 1);
  if (!result.accepted) {
    obs::count(std::string("verify.reject.") +
                   verify_failure_name(result.failure),
               1);
  }
  if (result.lsh_mismatches > 0) {
    obs::count("verify.lsh_mismatch",
               static_cast<std::uint64_t>(result.lsh_mismatches));
  }
  if (result.double_checks > 0) {
    obs::count("verify.double_check",
               static_cast<std::uint64_t>(result.double_checks));
  }
}

// Records and returns a verdict rejected before any transition was sampled.
VerifyResult reject_unsampled(VerifyResult result, VerifyFailure failure) {
  result.failure = failure;
  record_verdict(result);
  return result;
}

}  // namespace

const char* verify_failure_name(VerifyFailure failure) {
  switch (failure) {
    case VerifyFailure::kNone: return "none";
    case VerifyFailure::kMalformed: return "malformed";
    case VerifyFailure::kInitialBinding: return "initial_binding";
    case VerifyFailure::kHashMismatch: return "hash_mismatch";
    case VerifyFailure::kDistance: return "distance";
    case VerifyFailure::kLshMismatch: return "lsh_mismatch";
    case VerifyFailure::kNonFinite: return "non_finite";
  }
  return "unknown";
}

std::vector<std::int64_t> sample_transitions(std::uint64_t seed,
                                             const Digest& commitment_root,
                                             std::int64_t transitions,
                                             std::int64_t q) {
  if (transitions <= 0) throw std::invalid_argument("no transitions to sample");
  q = std::min(q, transitions);
  // Key the PRF with both the manager's secret and the commitment root so
  // the worker cannot predict samples before committing.
  Bytes key;
  append_u64(key, seed);
  key.insert(key.end(), commitment_root.begin(), commitment_root.end());
  const Prf prf{key};

  // Fisher-Yates over [0, transitions) driven by the PRF, take the first q.
  std::vector<std::int64_t> pool(static_cast<std::size_t>(transitions));
  for (std::int64_t i = 0; i < transitions; ++i) pool[static_cast<std::size_t>(i)] = i;
  for (std::int64_t i = 0; i < q; ++i) {
    const std::uint64_t j =
        prf.eval_mod(static_cast<std::uint64_t>(i),
                     static_cast<std::uint64_t>(transitions - i)) +
        static_cast<std::uint64_t>(i);
    std::swap(pool[static_cast<std::size_t>(i)], pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(q));
  std::sort(pool.begin(), pool.end());
  return pool;
}

Verifier::Verifier(const nn::ModelFactory& factory, const Hyperparams& hp,
                   VerifierConfig config)
    : hp_(hp), config_(std::move(config)), executor_(factory, hp) {}

Digest compact_commitment_binding(const CompactCommitment& compact) {
  Bytes b;
  b.push_back(compact.version == CommitmentVersion::kV1 ? 1 : 2);
  append_i64(b, compact.num_checkpoints);
  b.insert(b.end(), compact.state_root.begin(), compact.state_root.end());
  b.insert(b.end(), compact.lsh_root.begin(), compact.lsh_root.end());
  return sha256(b);
}

bool commitment_fits_task(CommitmentVersion version, std::int64_t checkpoints,
                          bool use_lsh, const Hyperparams& hp) {
  return (version == CommitmentVersion::kV2) == use_lsh &&
         checkpoints ==
             static_cast<std::int64_t>(hp.checkpoint_boundaries().size());
}

std::optional<TrainState> reexecute_transition(
    StepExecutor& executor, TrainState input,
    const std::vector<std::int64_t>& step_of, std::int64_t j,
    const data::DatasetView& data, const DeterministicSelector& selector,
    sim::DeviceExecution& device, const obs::TraceContext& parent,
    std::int64_t worker) {
  if (!executor.fits(input)) return std::nullopt;
  const std::int64_t first = step_of[static_cast<std::size_t>(j)];
  const std::int64_t count = step_of[static_cast<std::size_t>(j + 1)] - first;
  obs::Span reexec("reexecute", parent, worker);
  reexec.attr("transition", j);
  reexec.attr("steps", count);
  executor.load_state(input);
  executor.run_steps(first, count, data, selector, &device);
  input = TrainState{};  // released before theta' is copied out
  return executor.save_state();
}

TransitionCheck judge_transition(
    std::int64_t j, const std::optional<TrainState>& replay,
    const lsh::LshDigest* committed_lsh, const lsh::PStableLsh* hasher,
    double beta, const std::vector<bool>& mask,
    const std::function<std::optional<TrainState>()>& fetch_claimed) {
  TransitionCheck check{.transition = j, .hash_ok = true};
  if (!replay.has_value()) {
    check.failure = VerifyFailure::kMalformed;
    return check;
  }
  if (committed_lsh != nullptr) {
    {  // the weight copy is gone before a double-check fetches C_{j+1}
      // A replay from a NaN C_j is NaN throughout; hashed, every bucket
      // would saturate to one value and match the worker's own NaN digests.
      const std::vector<float> weights = extract_trainable(replay->model, mask);
      if (!std::all_of(weights.begin(), weights.end(),
                       [](float w) { return std::isfinite(w); })) {
        check.failure = VerifyFailure::kNonFinite;
        return check;
      }
      check.lsh_matched = lsh::lsh_match(hasher->hash(weights), *committed_lsh);
    }
    check.passed = check.lsh_matched;
    if (check.passed) return check;
    check.double_checked = true;
  }
  const std::optional<TrainState> claimed = fetch_claimed();
  if (!claimed.has_value()) {
    check.hash_ok = false;
    check.failure = VerifyFailure::kHashMismatch;
    return check;
  }
  if (claimed->model.size() != replay->model.size()) {
    check.failure = VerifyFailure::kMalformed;
    return check;
  }
  // Squares of float-range weights cannot overflow the double sum, so a
  // non-finite distance means a NaN or Inf weight on either side.
  check.distance = trainable_distance(replay->model, claimed->model, mask);
  check.passed = check.distance <= beta;
  if (!std::isfinite(check.distance)) {
    check.failure = VerifyFailure::kNonFinite;
  } else if (!check.passed) {
    check.failure = check.double_checked ? VerifyFailure::kLshMismatch
                                         : VerifyFailure::kDistance;
  }
  return check;
}

namespace {

// The sampled loop of both Verifier entry points: judges every sample. `open`
// yields transition j's committed hashes and v2 LSH digest, or nullopt when
// the opening fails; it may charge proof bytes.
VerifyResult verify_samples(
    VerifyResult result, const VerifierConfig& config, StepExecutor& executor,
    const Digest& sampling_key, const CheckpointSource& source,
    const std::vector<std::int64_t>& step_of, const EpochContext& context,
    sim::DeviceExecution& device, const obs::TraceContext& trace_parent,
    const std::function<std::optional<TransitionProof>(std::int64_t,
                                                       VerifyResult&)>& open) {
  const auto samples =
      sample_transitions(config.sampling_seed, sampling_key,
                         source.num_checkpoints() - 1, config.samples_q);
  const DeterministicSelector selector(context.nonce);
  const std::vector<bool>& mask = executor.trainable_mask();

  bool all_passed = true;
  for (const std::int64_t j : samples) {
    TransitionCheck check{.transition = j,
                          .failure = VerifyFailure::kHashMismatch};
    const std::optional<TransitionProof> opened = open(j, result);
    bool bound = false;  // C_j hash-matched its opening
    std::optional<TrainState> replay;
    if (opened.has_value()) {
      // Fetch C_j and hash-check it against the opening. The fetch is a
      // copy (possibly reloaded from a spill file) that the replay
      // consumes, so at most one non-replay checkpoint is resident at once.
      TrainState proof_in = source.fetch(j);
      result.proof_bytes += proof_in.byte_size();
      bound = digest_equal(hash_state(proof_in), opened->in_hash);
      if (bound) {
        replay = reexecute_transition(executor, std::move(proof_in), step_of,
                                      j, *context.dataset, selector, device,
                                      trace_parent);
      }
      if (replay.has_value()) {
        result.reexecuted_steps += step_of[static_cast<std::size_t>(j + 1)] -
                                   step_of[static_cast<std::size_t>(j)];
      }
    }
    if (bound) {
      // The claimed C_{j+1} is fetched on demand only: always for RPoLv1,
      // on an LSH miss (the double-check) for RPoLv2.
      const lsh::PStableLsh* family = config.lsh_family;  // null for v1
      check = judge_transition(
          j, replay, family != nullptr ? &opened->out_lsh : nullptr, family,
          config.beta, mask, [&]() -> std::optional<TrainState> {
            TrainState claimed = source.fetch(j + 1);
            result.proof_bytes += claimed.byte_size();
            if (!digest_equal(hash_state(claimed), opened->out_hash)) {
              return std::nullopt;
            }
            return claimed;
          });
      if (check.double_checked) {
        ++result.lsh_mismatches;
        ++result.double_checks;
      }
    }
    if (!check.passed && result.failure == VerifyFailure::kNone) {
      result.failure = check.failure;  // the first failing sample wins
    }
    all_passed = all_passed && check.passed;
    result.checks.push_back(check);
  }
  result.accepted = all_passed;
  record_verdict(result);
  return result;
}

}  // namespace

VerifyResult Verifier::verify_compact(const CompactCommitment& compact,
                                      const Commitment& full,
                                      const CheckpointSource& source,
                                      const std::vector<std::int64_t>& step_of,
                                      const EpochContext& context,
                                      const Digest& expected_initial_hash,
                                      sim::DeviceExecution& device,
                                      const obs::TraceContext& trace_parent) {
  if (!commitment_fits_task(compact.version, compact.num_checkpoints,
                            config_.lsh_family != nullptr, hp_) ||
      compact.num_checkpoints != source.num_checkpoints() ||
      compact.version != full.version ||
      step_of != hp_.checkpoint_boundaries()) {
    return reject_unsampled({}, VerifyFailure::kMalformed);
  }

  // One memoized tree build covers the leaf-0 binding AND every sampled
  // transition below: proof generation drops from O(n) hashing per sample
  // to O(log n) lookups against these trees.
  const CommitmentIndex index(full);

  // Initial-state binding: the worker proves leaf 0 under state_root is the
  // distributed state's hash.
  VerifyResult result;
  const TransitionProof leaf0 = index.prove_transition(0);
  result.proof_bytes += leaf0.byte_size();
  if (!digest_equal(leaf0.in_hash, expected_initial_hash) ||
      leaf0.in_membership.path_index() != 0 ||
      !MerkleTree::verify(compact.state_root, leaf0.in_hash,
                          leaf0.in_membership)) {
    return reject_unsampled(std::move(result), VerifyFailure::kInitialBinding);
  }

  // Transition j opens through membership proofs generated worker-side.
  return verify_samples(
      std::move(result), config_, executor_,
      compact_commitment_binding(compact), source, step_of, context, device,
      trace_parent,
      [&](std::int64_t j, VerifyResult& r) -> std::optional<TransitionProof> {
        TransitionProof proof = index.prove_transition(j);
        r.proof_bytes += proof.byte_size();
        if (!verify_transition_proof(compact, proof)) return std::nullopt;
        return proof;
      });
}

VerifyResult Verifier::verify(const Commitment& commitment,
                              const CheckpointSource& source,
                              const std::vector<std::int64_t>& step_of,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent) {
  // The step boundaries are derived from the agreed hyper-parameters, never
  // trusted from the prover: malformed step_of vectors (zero-length
  // intervals, wrong counts) are rejected outright.
  const auto checkpoints =
      static_cast<std::int64_t>(commitment.state_hashes.size());
  if (!commitment_fits_task(commitment.version, checkpoints,
                            config_.lsh_family != nullptr, hp_) ||
      checkpoints != source.num_checkpoints() ||
      step_of != hp_.checkpoint_boundaries() ||
      !commitment_consistent(commitment)) {
    return reject_unsampled({}, VerifyFailure::kMalformed);
  }

  // The first checkpoint must be exactly the state the manager handed out.
  if (!digest_equal(commitment.state_hashes.front(), expected_initial_hash)) {
    return reject_unsampled({}, VerifyFailure::kInitialBinding);
  }

  // Transition j opens straight from the committed lists.
  return verify_samples(
      {}, config_, executor_, commitment.root, source, step_of, context,
      device, trace_parent,
      [&](std::int64_t j, VerifyResult&) -> std::optional<TransitionProof> {
        TransitionProof opened;
        opened.in_hash = commitment.state_hashes[static_cast<std::size_t>(j)];
        opened.out_hash =
            commitment.state_hashes[static_cast<std::size_t>(j + 1)];
        if (config_.lsh_family != nullptr) {
          opened.out_lsh =
              commitment.lsh_digests[static_cast<std::size_t>(j + 1)];
        }
        return opened;
      });
}

}  // namespace rpol::core
