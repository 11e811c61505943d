#include "core/verifier.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace rpol::core {

void record_verdict(VerifyFailure failure) {
  const bool accepted = failure == VerifyFailure::kNone;
  obs::count(accepted ? "verify.accept" : "verify.reject", 1);
  if (!accepted) {
    obs::count(std::string("verify.reject.") + verify_failure_name(failure), 1);
  }
}

namespace {

// Records and returns a verdict rejected before any transition was sampled.
VerifyResult reject_unsampled(VerifyFailure failure,
                              std::uint64_t proof_bytes = 0) {
  VerifyResult result;
  result.failure = failure;
  result.proof_bytes = proof_bytes;
  record_verdict(failure);
  return result;
}

// Fetches a copy of checkpoint `index` (maybe reloaded from a spill file)
// and charges it; returns it iff it hashes to `committed`.
std::optional<TrainState> fetch_committed(const CheckpointSource& source,
                                          std::int64_t index,
                                          const Digest& committed,
                                          std::uint64_t& proof_bytes) {
  TrainState state = source.fetch(index);
  proof_bytes += state.byte_size();
  if (!digest_equal(hash_state(state), committed)) return std::nullopt;
  return state;
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
  if (q < 1) throw std::invalid_argument("verification needs >= 1 sample");
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

TransitionCheck judge_transition(
    std::int64_t j, const std::optional<TrainState>& replay,
    const lsh::LshDigest* committed_lsh, const lsh::PStableLsh* hasher,
    double beta, const std::vector<bool>& mask,
    const std::function<std::optional<TrainState>()>& fetch_claimed) {
  TransitionCheck check{.transition = j};
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

VerifyResult Verifier::verify_samples(const std::vector<std::int64_t>& samples,
                                      const SampleProofs& proofs,
                                      const std::vector<std::int64_t>& step_of,
                                      const data::DatasetView& data,
                                      std::uint64_t nonce,
                                      sim::DeviceExecution& device,
                                      const obs::TraceContext& trace_parent) {
  const DeterministicSelector selector(nonce);
  const lsh::PStableLsh* family = config_.lsh_family;  // null for v1
  VerifyResult result;
  for (const std::int64_t j : samples) {
    TransitionCheck check{.transition = j,
                          .failure = VerifyFailure::kHashMismatch};
    if (std::optional<TrainState> input = proofs.input(j)) {
      std::optional<TrainState> replay;
      if (executor_.fits(*input)) {
        const std::int64_t first = step_of[static_cast<std::size_t>(j)];
        const std::int64_t count =
            step_of[static_cast<std::size_t>(j + 1)] - first;
        obs::Span reexec("reexecute", trace_parent);
        reexec.attr("transition", j);
        reexec.attr("steps", count);
        executor_.load_state(*input);
        executor_.run_steps(first, count, data, selector, &device);
        input.reset();  // released before theta' is copied out
        replay = executor_.save_state();
        result.reexecuted_steps += count;
      }
      check = judge_transition(
          j, replay, family != nullptr ? &proofs.output_lsh(j) : nullptr,
          family, config_.beta, executor_.trainable_mask(),
          [&] { return proofs.output(j); });
      if (check.double_checked) {
        ++result.double_checks;
        obs::count("verify.double_check", 1);
      }
    }
    result.checks.push_back(check);
    if (!check.passed) {  // decided: later samples cannot change it
      result.failure = check.failure;
      return result;
    }
  }
  result.accepted = true;
  return result;
}

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
    return reject_unsampled(VerifyFailure::kMalformed);
  }

  // One memoized tree build covers the leaf-0 binding AND every sampled
  // transition below: proof generation drops from O(n) hashing per sample
  // to O(log n) lookups against these trees.
  const CommitmentIndex index(full);

  // Initial-state binding: the worker proves leaf 0 under state_root is the
  // distributed state's hash.
  std::uint64_t proof_bytes = 0;
  const TransitionProof leaf0 = index.prove_transition(0);
  proof_bytes += leaf0.byte_size();
  if (!digest_equal(leaf0.in_hash, expected_initial_hash) ||
      leaf0.in_membership.path_index() != 0 ||
      !MerkleTree::verify(compact.state_root, leaf0.in_hash,
                          leaf0.in_membership)) {
    return reject_unsampled(VerifyFailure::kInitialBinding, proof_bytes);
  }

  // Transition j opens through a membership proof generated worker-side;
  // C_j is fetched only when the proof verifies, and both states are
  // checked against the proof's hashes.
  TransitionProof opened;
  VerifyResult result = verify_samples(
      sample_transitions(config_.sampling_seed,
                         compact_commitment_binding(compact),
                         source.num_checkpoints() - 1, config_.samples_q),
      {.input = [&](std::int64_t j) -> std::optional<TrainState> {
         opened = index.prove_transition(j);
         proof_bytes += opened.byte_size();
         if (!verify_transition_proof(compact, opened)) return std::nullopt;
         return fetch_committed(source, j, opened.in_hash, proof_bytes);
       },
       .output = [&](std::int64_t j) {
         return fetch_committed(source, j + 1, opened.out_hash, proof_bytes);
       },
       .output_lsh = [&](std::int64_t) -> const lsh::LshDigest& {
         return opened.out_lsh;
       }},
      step_of, *context.dataset, context.nonce, device, trace_parent);
  result.proof_bytes = proof_bytes;
  record_verdict(result.failure);
  return result;
}

VerifyFailure Verifier::precheck(const Commitment& commitment,
                                 std::int64_t checkpoints,
                                 const std::vector<std::int64_t>& step_of,
                                 const Digest& expected_initial_hash) const {
  // The step boundaries are derived from the agreed hyper-parameters, never
  // trusted from the prover: malformed step_of vectors (zero-length
  // intervals, wrong counts) are rejected outright.
  const std::int64_t committed = std::ssize(commitment.state_hashes);
  if (!commitment_fits_task(commitment.version, committed,
                            config_.lsh_family != nullptr, hp_) ||
      committed != checkpoints || step_of != hp_.checkpoint_boundaries() ||
      !commitment_consistent(commitment)) {
    return VerifyFailure::kMalformed;
  }
  // The first checkpoint must be exactly the state the manager handed out.
  if (!digest_equal(commitment.state_hashes.front(), expected_initial_hash)) {
    return VerifyFailure::kInitialBinding;
  }
  return VerifyFailure::kNone;
}

VerifyResult Verifier::verify(const Commitment& commitment,
                              const CheckpointSource& source,
                              const std::vector<std::int64_t>& step_of,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent) {
  const VerifyFailure unfit = precheck(commitment, source.num_checkpoints(),
                                       step_of, expected_initial_hash);
  if (unfit != VerifyFailure::kNone) return reject_unsampled(unfit);

  // Transition j opens straight from the committed lists.
  std::uint64_t proof_bytes = 0;
  const auto fetch = [&](std::int64_t index) {
    return fetch_committed(
        source, index,
        commitment.state_hashes[static_cast<std::size_t>(index)], proof_bytes);
  };
  VerifyResult result = verify_samples(
      sample_transitions(config_.sampling_seed, commitment.root,
                         source.num_checkpoints() - 1, config_.samples_q),
      {.input = fetch,
       .output = [&](std::int64_t j) { return fetch(j + 1); },
       .output_lsh = [&](std::int64_t j) -> const lsh::LshDigest& {
         return commitment.lsh_digests[static_cast<std::size_t>(j + 1)];
       }},
      step_of, *context.dataset, context.nonce, device, trace_parent);
  result.proof_bytes = proof_bytes;
  record_verdict(result.failure);
  return result;
}

}  // namespace rpol::core
