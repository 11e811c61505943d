#include "core/verifier.h"

#include <algorithm>
#include <stdexcept>

#include "obs/alerts.h"
#include "obs/obs.h"

namespace rpol::core {

namespace {

// Shared verdict accounting for both verification paths. The registry is
// write-only from here: nothing read back, so tracing cannot perturb the
// accept/reject decision.
void record_verdict(const VerifyResult& result) {
  obs::count(result.accepted ? "verify.accept" : "verify.reject", 1);
  obs::flight_record(obs::FlightKind::kMark,
                     result.accepted ? "verify.accept" : "verify.reject");
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

// First-failure classification of one failed transition check.
VerifyFailure classify_check(const TransitionCheck& check) {
  if (!check.hash_ok) return VerifyFailure::kHashMismatch;
  if (check.double_checked) return VerifyFailure::kLshMismatch;
  return VerifyFailure::kDistance;
}

void note_failure(VerifyResult& result, VerifyFailure failure) {
  if (result.failure == VerifyFailure::kNone) result.failure = failure;
}

// In-memory adapter: lets the EpochTrace overloads delegate to the
// streaming implementations, so both paths share one decision procedure
// (bitwise-identical verdicts by construction).
class TraceSource final : public CheckpointSource {
 public:
  explicit TraceSource(const EpochTrace& trace) : trace_(&trace) {}
  std::int64_t num_checkpoints() const override {
    return static_cast<std::int64_t>(trace_->checkpoints.size());
  }
  TrainState fetch(std::int64_t index) const override {
    if (index < 0 || index >= num_checkpoints()) {
      throw std::out_of_range("checkpoint index out of range");
    }
    return trace_->checkpoints[static_cast<std::size_t>(index)];
  }

 private:
  const EpochTrace* trace_;
};

}  // namespace

const char* verify_failure_name(VerifyFailure failure) {
  switch (failure) {
    case VerifyFailure::kNone: return "none";
    case VerifyFailure::kMalformed: return "malformed";
    case VerifyFailure::kInitialBinding: return "initial_binding";
    case VerifyFailure::kHashMismatch: return "hash_mismatch";
    case VerifyFailure::kDistance: return "distance";
    case VerifyFailure::kLshMismatch: return "lsh_mismatch";
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

const lsh::PStableLsh& Verifier::hasher() {
  if (!config_.lsh_config.has_value()) {
    throw std::logic_error("RPoLv2 verification requires an LSH config");
  }
  if (!hasher_.has_value() || !(hasher_->config() == *config_.lsh_config)) {
    hasher_.emplace(*config_.lsh_config);
  }
  return *hasher_;
}

Digest compact_commitment_binding(const CompactCommitment& compact) {
  Bytes b;
  b.push_back(compact.version == CommitmentVersion::kV1 ? 1 : 2);
  append_i64(b, compact.num_checkpoints);
  b.insert(b.end(), compact.state_root.begin(), compact.state_root.end());
  b.insert(b.end(), compact.lsh_root.begin(), compact.lsh_root.end());
  return sha256(b);
}

VerifyResult Verifier::verify_compact(const CompactCommitment& compact,
                                      const Commitment& full,
                                      const EpochTrace& trace,
                                      const EpochContext& context,
                                      const Digest& expected_initial_hash,
                                      sim::DeviceExecution& device,
                                      const obs::TraceContext& trace_parent) {
  return verify_compact(compact, full, TraceSource(trace), trace.step_of,
                        context, expected_initial_hash, device, trace_parent);
}

VerifyResult Verifier::verify_compact(const CompactCommitment& compact,
                                      const Commitment& full,
                                      const CheckpointSource& source,
                                      const std::vector<std::int64_t>& step_of,
                                      const EpochContext& context,
                                      const Digest& expected_initial_hash,
                                      sim::DeviceExecution& device,
                                      const obs::TraceContext& trace_parent) {
  VerifyResult result;
  const std::int64_t transitions = source.num_checkpoints() - 1;
  if (transitions <= 0 || compact.num_checkpoints != source.num_checkpoints() ||
      compact.version != full.version ||
      step_of != hp_.checkpoint_boundaries()) {
    result.failure = VerifyFailure::kMalformed;
    record_verdict(result);
    return result;
  }
  const bool use_lsh = compact.version == CommitmentVersion::kV2;
  if (use_lsh != config_.use_lsh) {
    result.failure = VerifyFailure::kMalformed;
    record_verdict(result);
    return result;
  }

  // One memoized tree build covers the leaf-0 binding AND every sampled
  // transition below: proof generation drops from O(n) hashing per sample
  // to O(log n) lookups against these trees.
  const CommitmentIndex index(full);

  // Initial-state binding: the worker proves leaf 0 under state_root is the
  // distributed state's hash.
  {
    const TransitionProof leaf0 = index.prove_transition(0);
    result.proof_bytes += leaf0.byte_size();
    if (!digest_equal(leaf0.in_hash, expected_initial_hash) ||
        leaf0.in_membership.path_index() != 0 ||
        !MerkleTree::verify(compact.state_root, leaf0.in_hash,
                            leaf0.in_membership)) {
      result.failure = VerifyFailure::kInitialBinding;
      record_verdict(result);
      return result;
    }
  }

  const auto samples =
      sample_transitions(config_.sampling_seed,
                         compact_commitment_binding(compact), transitions,
                         config_.samples_q);
  const DeterministicSelector selector(context.nonce);
  const std::vector<bool>& mask = executor_.trainable_mask();

  bool all_passed = true;
  for (const std::int64_t j : samples) {
    TransitionCheck check;
    check.transition = j;

    // Membership proofs for this transition, generated worker-side.
    const TransitionProof proof = index.prove_transition(j);
    result.proof_bytes += proof.byte_size();
    check.hash_ok = verify_transition_proof(compact, proof);
    if (!check.hash_ok) {
      note_failure(result, VerifyFailure::kHashMismatch);
      all_passed = false;
      result.checks.push_back(check);
      continue;
    }

    // Fetch and hash-check the input state against the proven leaf. The
    // fetch is a copy (possibly reloaded from a spill file); it dies with
    // this block so at most one non-replay checkpoint is resident at once.
    {
      const TrainState proof_in = source.fetch(j);
      result.proof_bytes += proof_in.byte_size();
      if (!digest_equal(hash_state(proof_in), proof.in_hash)) {
        note_failure(result, VerifyFailure::kHashMismatch);
        check.hash_ok = false;
        all_passed = false;
        result.checks.push_back(check);
        continue;
      }

      const std::int64_t first = step_of[static_cast<std::size_t>(j)];
      const std::int64_t count =
          step_of[static_cast<std::size_t>(j + 1)] - first;
      {
        obs::Span reexec("reexecute", trace_parent);
        reexec.attr("transition", j);
        reexec.attr("steps", count);
        executor_.load_state(proof_in);
        executor_.run_steps(first, count, *context.dataset, selector, &device);
      }
      result.reexecuted_steps += count;
    }
    const TrainState replay = executor_.save_state();

    if (!use_lsh) {
      const TrainState claimed = source.fetch(j + 1);
      result.proof_bytes += claimed.byte_size();
      if (digest_equal(hash_state(claimed), proof.out_hash)) {
        check.distance = trainable_distance(replay.model, claimed.model, mask);
        check.passed = check.distance <= config_.beta;
      } else {
        check.hash_ok = false;
      }
    } else {
      const lsh::LshDigest replay_digest =
          hasher().hash(extract_trainable(replay.model, mask));
      check.lsh_matched = lsh::lsh_match(replay_digest, proof.out_lsh);
      if (check.lsh_matched) {
        check.passed = true;
      } else {
        ++result.lsh_mismatches;
        ++result.double_checks;
        check.double_checked = true;
        // Double-check fetches the raw output state on demand only.
        const TrainState claimed = source.fetch(j + 1);
        result.proof_bytes += claimed.byte_size();
        if (digest_equal(hash_state(claimed), proof.out_hash)) {
          check.distance = trainable_distance(replay.model, claimed.model, mask);
          check.passed = check.distance <= config_.beta;
        } else {
          check.hash_ok = false;
        }
      }
    }
    if (!check.passed) note_failure(result, classify_check(check));
    all_passed = all_passed && check.passed;
    result.checks.push_back(check);
  }
  result.accepted = all_passed;
  record_verdict(result);
  return result;
}

VerifyResult Verifier::verify(const Commitment& commitment,
                              const EpochTrace& trace,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent) {
  return verify(commitment, TraceSource(trace), trace.step_of, context,
                expected_initial_hash, device, trace_parent);
}

VerifyResult Verifier::verify(const Commitment& commitment,
                              const CheckpointSource& source,
                              const std::vector<std::int64_t>& step_of,
                              const EpochContext& context,
                              const Digest& expected_initial_hash,
                              sim::DeviceExecution& device,
                              const obs::TraceContext& trace_parent) {
  VerifyResult result;
  const std::int64_t transitions = source.num_checkpoints() - 1;
  // The step boundaries are derived from the agreed hyper-parameters, never
  // trusted from the prover: malformed step_of vectors (zero-length
  // intervals, wrong counts) are rejected outright.
  if (transitions <= 0 ||
      static_cast<std::int64_t>(commitment.state_hashes.size()) !=
          source.num_checkpoints() ||
      step_of != hp_.checkpoint_boundaries()) {
    result.failure = VerifyFailure::kMalformed;
    record_verdict(result);
    return result;  // malformed => reject
  }
  if (!commitment_consistent(commitment)) {
    result.failure = VerifyFailure::kMalformed;
    record_verdict(result);
    return result;
  }

  // The first checkpoint must be exactly the state the manager handed out.
  if (!digest_equal(commitment.state_hashes.front(), expected_initial_hash)) {
    result.failure = VerifyFailure::kInitialBinding;
    record_verdict(result);
    return result;
  }

  const auto samples = sample_transitions(config_.sampling_seed, commitment.root,
                                          transitions, config_.samples_q);
  const DeterministicSelector selector(context.nonce);

  bool all_passed = true;
  for (const std::int64_t j : samples) {
    TransitionCheck check;
    check.transition = j;

    // Fetch proof_in = C_j and hash-check it against the commitment. The
    // fetched copy dies with this block (the executor holds the loaded
    // weights), bounding residency to the states actively in use.
    {
      const TrainState proof_in = source.fetch(j);
      result.proof_bytes += proof_in.byte_size();
      check.hash_ok =
          digest_equal(hash_state(proof_in),
                       commitment.state_hashes[static_cast<std::size_t>(j)]);
      if (!check.hash_ok) {
        note_failure(result, VerifyFailure::kHashMismatch);
        all_passed = false;
        result.checks.push_back(check);
        continue;
      }

      // Re-execute the transition on the manager's device.
      const std::int64_t first = step_of[static_cast<std::size_t>(j)];
      const std::int64_t count =
          step_of[static_cast<std::size_t>(j + 1)] - first;
      {
        obs::Span reexec("reexecute", trace_parent);
        reexec.attr("transition", j);
        reexec.attr("steps", count);
        executor_.load_state(proof_in);
        executor_.run_steps(first, count, *context.dataset, selector, &device);
      }
      result.reexecuted_steps += count;
    }
    const TrainState replay = executor_.save_state();

    const std::vector<bool>& mask = executor_.trainable_mask();
    if (!config_.use_lsh) {
      // RPoLv1: fetch the claimed output too and distance-test it.
      const TrainState claimed = source.fetch(j + 1);
      result.proof_bytes += claimed.byte_size();
      const bool out_hash_ok =
          digest_equal(hash_state(claimed),
                       commitment.state_hashes[static_cast<std::size_t>(j + 1)]);
      check.hash_ok = check.hash_ok && out_hash_ok;
      if (out_hash_ok) {
        check.distance = trainable_distance(replay.model, claimed.model, mask);
        check.passed = check.distance <= config_.beta;
      }
    } else {
      // RPoLv2: fuzzy-match the replayed weights against the committed LSH
      // digest of C_{j+1}; fall back to the double-check on mismatch.
      const lsh::LshDigest replay_digest =
          hasher().hash(extract_trainable(replay.model, mask));
      check.lsh_matched = lsh::lsh_match(
          replay_digest, commitment.lsh_digests[static_cast<std::size_t>(j + 1)]);
      if (check.lsh_matched) {
        check.passed = true;
      } else {
        ++result.lsh_mismatches;
        ++result.double_checks;
        check.double_checked = true;
        // Double-check: only now is the raw output state pulled in.
        const TrainState claimed = source.fetch(j + 1);
        result.proof_bytes += claimed.byte_size();
        const bool out_hash_ok = digest_equal(
            hash_state(claimed),
            commitment.state_hashes[static_cast<std::size_t>(j + 1)]);
        if (out_hash_ok) {
          check.distance = trainable_distance(replay.model, claimed.model, mask);
          check.passed = check.distance <= config_.beta;
        }
      }
    }
    if (!check.passed) note_failure(result, classify_check(check));
    all_passed = all_passed && check.passed;
    result.checks.push_back(check);
  }
  result.accepted = all_passed;
  record_verdict(result);
  return result;
}

}  // namespace rpol::core
