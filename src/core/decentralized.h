// Decentralized verification — the paper's future-work extension
// ("decentralized verification will be implemented to enable multiple
// workers to securely accelerate the verification in parallel", Sec. IX).
//
// Instead of the manager re-executing every sampled transition itself, each
// sample is assigned to r distinct verifier workers chosen by a PRF keyed
// with the manager's seed and the commitment root (so neither the prover
// nor the verifiers can predict or bias assignments). Every verifier
// re-executes its assigned transitions and votes pass/fail; a sample
// passes on a strict majority. With at most floor((r-1)/2) colluding or
// slandering verifiers per sample, the outcome equals centralized
// verification, while the wall-clock verification time drops by roughly
// the number of verifiers (work is spread across their GPUs).

#pragma once

#include "core/verifier.h"

namespace rpol::core {

enum class VerifierBehavior {
  kHonest,          // re-executes and votes truthfully
  kColludeAccept,   // always votes pass (covering for the prover)
  kSlandererReject  // always votes fail (griefing honest provers)
};

struct VerifierNode {
  VerifierBehavior behavior = VerifierBehavior::kHonest;
  sim::DeviceProfile device;
  std::uint64_t run_seed = 0;
};

struct DecentralizedConfig {
  std::int64_t samples_q = 3;
  std::int64_t verifiers_per_sample = 3;  // r, odd values avoid ties
  double beta = 0.1;
  std::uint64_t assignment_seed = 17;
};

struct VerifierVote {
  std::size_t verifier = 0;
  bool pass = false;
  double distance = 0.0;  // 0 for non-honest behaviours
};

struct DecentralizedResult {
  bool accepted = false;
  std::vector<std::int64_t> samples;
  std::vector<std::vector<VerifierVote>> votes;  // aligned with samples
  std::int64_t total_reexecuted_steps = 0;       // summed over verifiers
  std::int64_t critical_path_steps = 0;  // max per-verifier load (parallel time)
};

// PRF-derived assignment: for each sample, r distinct verifier indices out
// of `num_verifiers`. Throws std::invalid_argument unless
// 1 <= r <= num_verifiers.
std::vector<std::vector<std::size_t>> assign_verifiers(
    std::uint64_t seed, const Digest& commitment_root,
    const std::vector<std::int64_t>& samples, std::size_t num_verifiers,
    std::int64_t verifiers_per_sample);

class DecentralizedVerifier {
 public:
  DecentralizedVerifier(const nn::ModelFactory& factory, const Hyperparams& hp,
                        DecentralizedConfig config);

  // A commitment failing Verifier::precheck gets no samples or votes; else
  // `samples` and `votes` end at the first sample whose majority fails. An
  // honest vote on sample j is Verifier::verify_samples({j}) on the member's
  // device; `trace_parent` (observability only) parents its spans.
  DecentralizedResult verify(const Commitment& commitment,
                             const EpochTrace& trace, const EpochContext& context,
                             const Digest& expected_initial_hash,
                             const std::vector<VerifierNode>& verifiers,
                             const obs::TraceContext& trace_parent = {});

 private:
  DecentralizedConfig config_;
  // RPoLv1 re-execution engine shared by the honest members; each vote's
  // device noise comes from its member's own DeviceExecution.
  Verifier verifier_;
};

}  // namespace rpol::core
