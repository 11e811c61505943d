#include "core/decentralized.h"

#include <algorithm>
#include <stdexcept>

namespace rpol::core {

std::vector<std::vector<std::size_t>> assign_verifiers(
    std::uint64_t seed, const Digest& commitment_root,
    const std::vector<std::int64_t>& samples, std::size_t num_verifiers,
    std::int64_t verifiers_per_sample) {
  if (verifiers_per_sample < 1) {
    throw std::invalid_argument("each sample needs at least one verifier");
  }
  if (num_verifiers < static_cast<std::size_t>(verifiers_per_sample)) {
    throw std::invalid_argument("not enough verifiers for the replication level");
  }
  Bytes key;
  append_u64(key, seed);
  key.insert(key.end(), commitment_root.begin(), commitment_root.end());
  const Prf prf{key};

  std::vector<std::vector<std::size_t>> assignment;
  assignment.reserve(samples.size());
  for (std::size_t s = 0; s < samples.size(); ++s) {
    // PRF-driven partial Fisher-Yates over verifier indices.
    std::vector<std::size_t> pool(num_verifiers);
    for (std::size_t i = 0; i < num_verifiers; ++i) pool[i] = i;
    std::vector<std::size_t> chosen;
    for (std::int64_t r = 0; r < verifiers_per_sample; ++r) {
      const std::uint64_t j = prf.eval_mod(
          (static_cast<std::uint64_t>(s) << 32) | static_cast<std::uint64_t>(r),
          pool.size() - static_cast<std::size_t>(r));
      std::swap(pool[static_cast<std::size_t>(r)],
                pool[static_cast<std::size_t>(r) + j]);
      chosen.push_back(pool[static_cast<std::size_t>(r)]);
    }
    std::sort(chosen.begin(), chosen.end());
    assignment.push_back(std::move(chosen));
  }
  return assignment;
}

DecentralizedVerifier::DecentralizedVerifier(const nn::ModelFactory& factory,
                                             const Hyperparams& hp,
                                             DecentralizedConfig config)
    : config_(config),
      verifier_(factory, hp,
                {.samples_q = config.samples_q,
                 .beta = config.beta,
                 .sampling_seed = config.assignment_seed}) {}

DecentralizedResult DecentralizedVerifier::verify(
    const Commitment& commitment, const EpochTrace& trace,
    const EpochContext& context, const Digest& expected_initial_hash,
    const std::vector<VerifierNode>& verifiers,
    const obs::TraceContext& trace_parent) {
  DecentralizedResult result;
  if (verifier_.precheck(commitment, trace.num_checkpoints(), trace.step_of,
                         expected_initial_hash) != VerifyFailure::kNone) {
    return result;
  }
  result.accepted = true;

  result.samples =
      sample_transitions(config_.assignment_seed, commitment.root,
                         trace.num_transitions(), config_.samples_q);
  const auto assignment =
      assign_verifiers(config_.assignment_seed, commitment.root, result.samples,
                       verifiers.size(), config_.verifiers_per_sample);

  std::vector<std::int64_t> per_verifier_steps(verifiers.size(), 0);
  for (std::size_t s = 0; s < result.samples.size(); ++s) {
    const std::int64_t j = result.samples[s];
    const auto in = static_cast<std::size_t>(j);
    // Hashed once per sample; each honest vote gets its own copies.
    const bool hashes_ok =
        digest_equal(hash_state(trace.checkpoints[in]),
                     commitment.state_hashes[in]) &&
        digest_equal(hash_state(trace.checkpoints[in + 1]),
                     commitment.state_hashes[in + 1]);
    SampleProofs proofs;  // RPoLv1: no LSH digests
    proofs.input = [&](std::int64_t) -> std::optional<TrainState> {
      if (!hashes_ok) return std::nullopt;
      return trace.checkpoints[in];
    };
    proofs.output = [&](std::int64_t) -> std::optional<TrainState> {
      return trace.checkpoints[in + 1];
    };

    std::vector<VerifierVote> votes;
    int pass_votes = 0;
    for (const std::size_t v : assignment[s]) {
      VerifierVote vote;
      vote.verifier = v;
      const VerifierNode& node = verifiers[v];
      switch (node.behavior) {
        case VerifierBehavior::kColludeAccept:
          vote.pass = true;
          break;
        case VerifierBehavior::kSlandererReject:
          vote.pass = false;
          break;
        case VerifierBehavior::kHonest: {
          sim::DeviceExecution device(
              node.device,
              derive_seed(node.run_seed,
                          (static_cast<std::uint64_t>(s) << 20) |
                              static_cast<std::uint64_t>(j)));
          const VerifyResult r = verifier_.verify_samples(
              {j}, proofs, trace.step_of, *context.dataset, context.nonce,
              device, trace_parent);
          result.total_reexecuted_steps += r.reexecuted_steps;
          per_verifier_steps[v] += r.reexecuted_steps;
          vote.distance = r.checks.front().distance;
          vote.pass = r.accepted;
          break;
        }
      }
      pass_votes += vote.pass ? 1 : 0;
      votes.push_back(vote);
    }
    result.votes.push_back(std::move(votes));
    if (2 * pass_votes <= static_cast<int>(assignment[s].size())) {
      result.accepted = false;  // decided: the samples end where votes do
      result.samples.resize(s + 1);
      break;
    }
  }
  result.critical_path_steps =
      *std::max_element(per_verifier_steps.begin(), per_verifier_steps.end());
  return result;
}

}  // namespace rpol::core
