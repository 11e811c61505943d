#include "core/decentralized.h"

#include <algorithm>
#include <stdexcept>

namespace rpol::core {

std::vector<std::vector<std::size_t>> assign_verifiers(
    std::uint64_t seed, const Digest& commitment_root,
    const std::vector<std::int64_t>& samples, std::size_t num_verifiers,
    std::int64_t verifiers_per_sample) {
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
    : hp_(hp), config_(config), executor_(factory, hp) {}

DecentralizedResult DecentralizedVerifier::verify(
    const Commitment& commitment, const EpochTrace& trace,
    const EpochContext& context, const Digest& expected_initial_hash,
    const std::vector<VerifierNode>& verifiers,
    const obs::TraceContext& trace_parent) {
  DecentralizedResult result;
  const std::int64_t transitions = trace.num_transitions();
  if (transitions <= 0 ||
      commitment.state_hashes.size() != trace.checkpoints.size() ||
      trace.step_of != hp_.checkpoint_boundaries() ||
      !commitment_consistent(commitment) ||
      !digest_equal(commitment.state_hashes.front(), expected_initial_hash)) {
    return result;
  }

  result.samples = sample_transitions(config_.assignment_seed, commitment.root,
                                      transitions, config_.samples_q);
  const auto assignment =
      assign_verifiers(config_.assignment_seed, commitment.root, result.samples,
                       verifiers.size(), config_.verifiers_per_sample);
  const DeterministicSelector selector(context.nonce);
  const std::vector<bool>& mask = executor_.trainable_mask();

  std::vector<std::int64_t> per_verifier_steps(verifiers.size(), 0);
  bool all_passed = true;
  for (std::size_t s = 0; s < result.samples.size(); ++s) {
    const std::int64_t j = result.samples[s];
    const TrainState& proof_in = trace.checkpoints[static_cast<std::size_t>(j)];
    const TrainState& claimed =
        trace.checkpoints[static_cast<std::size_t>(j + 1)];
    const bool hashes_ok =
        digest_equal(hash_state(proof_in),
                     commitment.state_hashes[static_cast<std::size_t>(j)]) &&
        digest_equal(hash_state(claimed),
                     commitment.state_hashes[static_cast<std::size_t>(j + 1)]);

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
          if (!hashes_ok) {
            vote.pass = false;
            break;
          }
          sim::DeviceExecution device(
              node.device,
              derive_seed(node.run_seed,
                          (static_cast<std::uint64_t>(s) << 20) |
                              static_cast<std::uint64_t>(j)));
          const std::optional<TrainState> replay = reexecute_transition(
              executor_, proof_in, trace.step_of, j, *context.dataset,
              selector, device, trace_parent);
          if (replay.has_value()) {
            const std::int64_t count =
                trace.step_of[static_cast<std::size_t>(j + 1)] -
                trace.step_of[static_cast<std::size_t>(j)];
            result.total_reexecuted_steps += count;
            per_verifier_steps[v] += count;
          }
          const TransitionCheck check = judge_transition(
              j, replay, /*committed_lsh=*/nullptr, /*hasher=*/nullptr,
              config_.beta, mask,
              [&] { return std::optional<TrainState>(claimed); });
          vote.distance = check.distance;
          vote.pass = check.passed;
          break;
        }
      }
      pass_votes += vote.pass ? 1 : 0;
      votes.push_back(vote);
    }
    const bool sample_passed =
        2 * pass_votes > static_cast<int>(assignment[s].size());
    all_passed = all_passed && sample_passed;
    result.votes.push_back(std::move(votes));
  }
  result.accepted = all_passed;
  result.critical_path_steps =
      *std::max_element(per_verifier_steps.begin(), per_verifier_steps.end());
  return result;
}

}  // namespace rpol::core
