// Protocol-unit tests: deterministic selection, executor re-execution,
// commitments, sampling, and the verifier against honest and dishonest
// workers (the heart of RPoL).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "core/verifier.h"
#include "data/partition.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

// ---------------------------------------------------------------------------
// DeterministicSelector

TEST(DeterministicSelector, ReproducibleAcrossInstances) {
  DeterministicSelector a(42), b(42);
  EXPECT_EQ(a.batch_indices(3, 8, 100), b.batch_indices(3, 8, 100));
}

TEST(DeterministicSelector, DifferentNoncesDiffer) {
  DeterministicSelector a(42), b(43);
  EXPECT_NE(a.batch_indices(0, 8, 100), b.batch_indices(0, 8, 100));
}

TEST(DeterministicSelector, DifferentStepsDiffer) {
  DeterministicSelector sel(7);
  EXPECT_NE(sel.batch_indices(0, 16, 1000), sel.batch_indices(1, 16, 1000));
}

TEST(DeterministicSelector, IndicesInRange) {
  DeterministicSelector sel(9);
  for (std::int64_t step = 0; step < 20; ++step) {
    for (const auto idx : sel.batch_indices(step, 32, 57)) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, 57);
    }
  }
}

TEST(DeterministicSelector, SelectionIsRoughlyUniform) {
  DeterministicSelector sel(11);
  std::vector<int> counts(10, 0);
  for (std::int64_t step = 0; step < 500; ++step) {
    for (const auto idx : sel.batch_indices(step, 10, 10)) {
      ++counts[static_cast<std::size_t>(idx)];
    }
  }
  for (const int c : counts) EXPECT_NEAR(c, 500, 120);
}

TEST(DeterministicSelector, BadArgsThrow) {
  DeterministicSelector sel(1);
  EXPECT_THROW(sel.batch_indices(0, 0, 10), std::invalid_argument);
  EXPECT_THROW(sel.batch_indices(0, 8, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// StepExecutor

TEST(StepExecutor, NoiselessReexecutionIsExact) {
  // Without device noise, re-running the same steps from the same state
  // reproduces the result bit-for-bit — the determinism RPoL relies on.
  const TinyTask task = TinyTask::make();
  const auto view = data::DatasetView::whole(task.dataset);
  StepExecutor a(task.factory, task.hp);
  StepExecutor b(task.factory, task.hp);
  const TrainState start = a.save_state();
  const DeterministicSelector sel(5);

  a.run_steps(0, 5, view, sel, nullptr);
  b.load_state(start);
  b.run_steps(0, 5, view, sel, nullptr);
  EXPECT_EQ(a.save_state().model, b.save_state().model);
  EXPECT_EQ(a.save_state().optimizer, b.save_state().optimizer);
}

TEST(StepExecutor, NoiseMakesRunsDifferButClose) {
  const TinyTask task = TinyTask::make();
  const auto view = data::DatasetView::whole(task.dataset);
  StepExecutor a(task.factory, task.hp);
  StepExecutor b(task.factory, task.hp);
  const TrainState start = a.save_state();
  const DeterministicSelector sel(5);

  sim::DeviceExecution dev_a(sim::device_g3090(), 1);
  sim::DeviceExecution dev_b(sim::device_g3090(), 2);
  a.run_steps(0, 5, view, sel, &dev_a);
  b.load_state(start);
  b.run_steps(0, 5, view, sel, &dev_b);
  const double dist = l2_distance(a.save_state().model, b.save_state().model);
  EXPECT_GT(dist, 0.0);
  // Reproduction errors are small relative to the training update itself.
  const double update = l2_distance(a.save_state().model, start.model);
  EXPECT_LT(dist, 0.1 * update);
}

TEST(StepExecutor, StateRoundTripRestoresExactly) {
  const TinyTask task = TinyTask::make();
  const auto view = data::DatasetView::whole(task.dataset);
  StepExecutor exec(task.factory, task.hp);
  const DeterministicSelector sel(3);
  exec.run_steps(0, 3, view, sel, nullptr);
  const TrainState snap = exec.save_state();
  exec.run_steps(3, 4, view, sel, nullptr);
  exec.load_state(snap);
  EXPECT_EQ(exec.save_state().model, snap.model);
  EXPECT_EQ(exec.save_state().optimizer, snap.optimizer);
}

TEST(StepExecutor, TrainingImprovesAccuracy) {
  const TinyTask task = TinyTask::make(77, /*steps=*/60, /*interval=*/10);
  const auto view = data::DatasetView::whole(task.dataset);
  StepExecutor exec(task.factory, task.hp);
  const double before = exec.evaluate(view);
  const DeterministicSelector sel(8);
  exec.run_steps(0, 60, view, sel, nullptr);
  const double after = exec.evaluate(view);
  EXPECT_GT(after, before + 0.2);
  EXPECT_GT(after, 0.5);  // well above 25% chance for 4 classes
}

// extract_trainable copies whole runs of the mask at once; it must return
// exactly what the element-by-element rule returns.
TEST(ExtractTrainable, MatchesElementwiseRuleOnEveryMaskShape) {
  const auto elementwise = [](const std::vector<float>& state,
                              const std::vector<bool>& mask) {
    std::vector<float> out;
    for (std::size_t i = 0; i < state.size(); ++i) {
      if (mask[i]) out.push_back(state[i]);
    }
    return out;
  };
  nn::ModelConfig mc;
  mc.image_size = 16;
  mc.width = 8;
  nn::Model model = nn::make_mini_resnet18(mc, /*blocks_per_stage=*/1);
  std::vector<std::vector<bool>> masks = {model.trainable_mask(), {}};
  // The model's mask interleaves BatchNorm buffers with trainable runs.
  ASSERT_NE(std::count(masks[0].begin(), masks[0].end(), false), 0);
  for (const std::size_t n : {1, 2, 7, 64, 1000}) {
    masks.emplace_back(n, true);
    masks.emplace_back(n, false);
    std::vector<bool> alternating(n);
    for (std::size_t i = 0; i < n; ++i) alternating[i] = i % 2 == 1;
    masks.push_back(alternating);
    alternating.flip();
    masks.push_back(alternating);
  }
  for (const std::vector<bool>& mask : masks) {
    std::vector<float> state(mask.size());
    for (std::size_t i = 0; i < state.size(); ++i) {
      state[i] = static_cast<float>(i) * 0.5F - 3.0F;
    }
    EXPECT_EQ(extract_trainable(state, mask), elementwise(state, mask))
        << "mask of " << mask.size();
  }
  EXPECT_THROW(extract_trainable(std::vector<float>(3), std::vector<bool>(4)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Traces and commitments

struct ProtocolFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make();
    view = data::DatasetView::whole(task.dataset);
    context = task.context(/*nonce=*/99, view);
  }

  EpochTrace honest_trace(std::uint64_t run_seed = 1) {
    StepExecutor exec(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), run_seed);
    HonestPolicy policy;
    return policy.produce_trace(exec, context, device);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
};

TEST_F(ProtocolFixture, TraceHasExpectedCheckpointLayout) {
  const EpochTrace trace = honest_trace();
  // 10 steps, interval 3 => boundaries 0,3,6,9,10 => 4 transitions.
  EXPECT_EQ(trace.num_transitions(), 4);
  EXPECT_EQ(trace.step_of, (std::vector<std::int64_t>{0, 3, 6, 9, 10}));
  EXPECT_EQ(trace.checkpoints.front().model, context.initial.model);
  EXPECT_GT(trace.storage_bytes(), 0u);
}

TEST_F(ProtocolFixture, CommitV1BindsEveryCheckpoint) {
  const EpochTrace trace = honest_trace();
  Commitment c = commit_v1(trace);
  EXPECT_EQ(c.state_hashes.size(), trace.checkpoints.size());
  EXPECT_TRUE(commitment_consistent(c));
  // Tampering with any hash breaks the root.
  c.state_hashes[2][0] ^= 1;
  EXPECT_FALSE(commitment_consistent(c));
}

TEST_F(ProtocolFixture, CommitV2AddsLshDigests) {
  const EpochTrace trace = honest_trace();
  const lsh::LshConfig cfg{{1.0, 2, 4},
                           static_cast<std::int64_t>(trace.checkpoints[0].model.size()),
                           5};
  const lsh::PStableLsh hasher(cfg);
  const Commitment c = commit_v2(trace, hasher);
  EXPECT_EQ(c.lsh_digests.size(), trace.checkpoints.size());
  EXPECT_TRUE(commitment_consistent(c));
  EXPECT_GT(c.byte_size(), commit_v1(trace).byte_size());
}

TEST_F(ProtocolFixture, MerkleRootAlternativeWorks) {
  const EpochTrace trace = honest_trace();
  const Commitment c = commit_v1(trace);
  const Digest root = compact_commitment(c).state_root;
  MerkleTree tree(c.state_hashes);
  const MerkleProof proof = tree.prove(1);
  EXPECT_TRUE(MerkleTree::verify(root, c.state_hashes[1], proof));
}

// ---------------------------------------------------------------------------
// Sampling

TEST(Sampling, DeterministicGivenSeedAndRoot) {
  const Digest root = sha256(std::string("commit"));
  EXPECT_EQ(sample_transitions(1, root, 20, 5), sample_transitions(1, root, 20, 5));
  EXPECT_NE(sample_transitions(1, root, 20, 5), sample_transitions(2, root, 20, 5));
}

TEST(Sampling, DependsOnCommitmentRoot) {
  // The worker cannot predict samples before committing: a different root
  // yields different samples.
  const Digest r1 = sha256(std::string("a"));
  const Digest r2 = sha256(std::string("b"));
  EXPECT_NE(sample_transitions(1, r1, 50, 10), sample_transitions(1, r2, 50, 10));
}

TEST(Sampling, WithoutReplacementAndSorted) {
  const Digest root = sha256(std::string("x"));
  const auto s = sample_transitions(3, root, 10, 10);
  EXPECT_EQ(s.size(), 10u);
  for (std::size_t i = 1; i < s.size(); ++i) EXPECT_LT(s[i - 1], s[i]);
}

TEST(Sampling, ClampsOversizedQ) {
  const Digest root = sha256(std::string("y"));
  EXPECT_EQ(sample_transitions(1, root, 3, 100).size(), 3u);
  EXPECT_THROW(sample_transitions(1, root, 0, 1), std::invalid_argument);
  // No samples would leave nothing to fail: every worker would pass.
  EXPECT_THROW(sample_transitions(1, root, 3, 0), std::invalid_argument);
  EXPECT_THROW(sample_transitions(1, root, 3, -1), std::invalid_argument);
}

TEST(Sampling, CoversAllTransitionsAcrossRoots) {
  std::set<std::int64_t> seen;
  for (int i = 0; i < 40; ++i) {
    Bytes b;
    append_u64(b, static_cast<std::uint64_t>(i));
    for (const auto t : sample_transitions(7, sha256(b), 8, 2)) seen.insert(t);
  }
  EXPECT_EQ(seen.size(), 8u);  // every transition is sampleable
}

// ---------------------------------------------------------------------------
// Verifier

struct VerifierFixture : public ProtocolFixture {
  void SetUp() override {
    ProtocolFixture::SetUp();
    lsh::LshConfig lcfg;
    lcfg.params = lsh::optimize_lsh(beta_ / 5.0, beta_, 16).params;
    lcfg.dim = static_cast<std::int64_t>(context.initial.model.size());
    lcfg.seed = 31;
    family_.emplace(lcfg);
  }

  VerifierConfig base_config(bool use_lsh) {
    VerifierConfig cfg;
    cfg.samples_q = 3;
    cfg.beta = beta_;
    if (use_lsh) cfg.lsh_family = &*family_;
    return cfg;
  }

  VerifyResult run_verify(const EpochTrace& trace, const Commitment& commitment,
                          bool use_lsh) {
    Verifier verifier(task.factory, task.hp, base_config(use_lsh));
    sim::DeviceExecution manager_device(sim::device_g3090(), 1234);
    return verifier.verify(commitment, trace, context,
                           hash_state(context.initial), manager_device);
  }

  // The family the workers commit with; RPoLv2 verifiers borrow it.
  const lsh::PStableLsh& worker_hasher() const { return *family_; }

  // beta sized for this tiny task: large enough for device noise, far below
  // real update magnitudes (which are ~1e-1 here).
  double beta_ = 2e-3;
  std::optional<lsh::PStableLsh> family_;
};

TEST_F(VerifierFixture, HonestWorkerAcceptedV1) {
  const EpochTrace trace = honest_trace();
  const VerifyResult r = run_verify(trace, commit_v1(trace), /*lsh=*/false);
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.checks.size(), 3u);
  for (const auto& c : r.checks) {
    EXPECT_NE(c.failure, VerifyFailure::kHashMismatch);
    EXPECT_TRUE(c.passed);
    EXPECT_LT(c.distance, beta_);
  }
  EXPECT_GT(r.proof_bytes, 0u);
  EXPECT_GT(r.reexecuted_steps, 0);
}

TEST_F(VerifierFixture, HonestWorkerAcceptedV2) {
  const EpochTrace trace = honest_trace();
  const lsh::PStableLsh& hasher = worker_hasher();
  const VerifyResult r = run_verify(trace, commit_v2(trace, hasher), /*lsh=*/true);
  EXPECT_TRUE(r.accepted);
  // Double-check may fire occasionally (LSH is probabilistic), but honest
  // workers are never rejected thanks to the fall-back distance test.
}

TEST_F(VerifierFixture, V2TransfersFewerProofBytesThanV1) {
  const EpochTrace trace = honest_trace();
  const lsh::PStableLsh& hasher = worker_hasher();
  const VerifyResult v1 = run_verify(trace, commit_v1(trace), false);
  const VerifyResult v2 = run_verify(trace, commit_v2(trace, hasher), true);
  ASSERT_TRUE(v1.accepted);
  ASSERT_TRUE(v2.accepted);
  // When no double-check fires, v2 halves proof traffic (Sec. V-C).
  if (v2.double_checks == 0) {
    EXPECT_NEAR(static_cast<double>(v2.proof_bytes),
                static_cast<double>(v1.proof_bytes) / 2.0,
                static_cast<double>(v1.proof_bytes) * 0.05);
  } else {
    EXPECT_LT(v2.proof_bytes, v1.proof_bytes);
  }
}

TEST_F(VerifierFixture, ReplayAttackerRejectedBothVersions) {
  StepExecutor exec(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 3);
  ReplayPolicy replay;
  const EpochTrace trace = replay.produce_trace(exec, context, device);
  EXPECT_FALSE(run_verify(trace, commit_v1(trace), false).accepted);
  const lsh::PStableLsh& hasher = worker_hasher();
  EXPECT_FALSE(run_verify(trace, commit_v2(trace, hasher), true).accepted);
}

TEST_F(VerifierFixture, FullSpoofRejected) {
  StepExecutor exec(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 4);
  SpoofPolicy spoof(/*honest_fraction=*/0.25, /*lambda=*/0.5);
  const EpochTrace trace = spoof.produce_trace(exec, context, device);
  const VerifyResult v1 = run_verify(trace, commit_v1(trace), false);
  EXPECT_FALSE(v1.accepted);
  const lsh::PStableLsh& hasher = worker_hasher();
  const VerifyResult v2 = run_verify(trace, commit_v2(trace, hasher), true);
  EXPECT_FALSE(v2.accepted);
  // Spoofed transitions fail by distance, not by hash mismatch: the
  // commitment itself is self-consistent.
  for (const auto& c : v1.checks) {
    EXPECT_NE(c.failure, VerifyFailure::kHashMismatch);
  }
}

TEST_F(VerifierFixture, TamperedProofFailsHashCheck) {
  EpochTrace trace = honest_trace();
  const Commitment commitment = commit_v1(trace);
  // Worker substitutes a different state when asked for proofs.
  trace.checkpoints[1].model[0] += 1.0F;
  const VerifyResult r = run_verify(trace, commitment, false);
  EXPECT_FALSE(r.accepted);
}

TEST_F(VerifierFixture, ForeignInitialStateRejected) {
  // Training from a different starting point than the manager distributed
  // fails the C_0 hash check even if everything else is honest.
  EpochContext foreign = context;
  foreign.initial.model[0] += 1.0F;
  StepExecutor exec(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 5);
  HonestPolicy policy;
  const EpochTrace trace = policy.produce_trace(exec, foreign, device);
  const Commitment commitment = commit_v1(trace);
  Verifier verifier(task.factory, task.hp, base_config(false));
  sim::DeviceExecution manager_device(sim::device_g3090(), 99);
  const VerifyResult r = verifier.verify(commitment, trace, context,
                                         hash_state(context.initial),
                                         manager_device);
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.checks.empty());  // rejected before any sampling work
}

TEST_F(VerifierFixture, ForgedStepBoundariesRejected) {
  // The verifier derives checkpoint boundaries from the agreed
  // hyper-parameters; a prover shipping doctored step_of vectors (e.g.
  // zero-length intervals that would break re-execution) is rejected
  // before any work happens.
  EpochTrace trace = honest_trace();
  const Commitment commitment = commit_v1(trace);
  trace.step_of = {0, 0, 0, 0, 10};  // degenerate intervals
  EXPECT_FALSE(run_verify(trace, commitment, false).accepted);
  trace.step_of = {0, 3, 6, 9, 11};  // wrong final boundary
  EXPECT_FALSE(run_verify(trace, commitment, false).accepted);
}

TEST_F(VerifierFixture, MalformedCommitmentRejected) {
  const EpochTrace trace = honest_trace();
  Commitment commitment = commit_v1(trace);
  commitment.state_hashes.pop_back();
  const VerifyResult r = run_verify(trace, commitment, false);
  EXPECT_FALSE(r.accepted);
}

TEST_F(VerifierFixture, SpoofDistancesFarExceedReproductionErrors) {
  // The separation property that makes beta easy to set (Fig. 5): spoof
  // distances are orders of magnitude above honest reproduction errors.
  const EpochTrace honest = honest_trace(10);
  StepExecutor exec(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 11);
  SpoofPolicy spoof(0.5, 0.5);
  const EpochTrace spoofed = spoof.produce_trace(exec, context, device);

  VerifierConfig cfg = base_config(false);
  cfg.samples_q = 4;  // check every transition
  cfg.beta = 1e18;    // accept everything; we only want the distances
  Verifier verifier(task.factory, task.hp, cfg);
  sim::DeviceExecution m1(sim::device_g3090(), 50);
  const VerifyResult hr = verifier.verify(commit_v1(honest), honest, context,
                                          hash_state(context.initial), m1);
  sim::DeviceExecution m2(sim::device_g3090(), 51);
  const VerifyResult sr = verifier.verify(commit_v1(spoofed), spoofed, context,
                                          hash_state(context.initial), m2);
  double max_honest = 0.0, min_spoof = 1e300;
  for (const auto& c : hr.checks) max_honest = std::max(max_honest, c.distance);
  for (std::size_t i = 2; i < sr.checks.size(); ++i) {
    // Transitions after the honest prefix are spoofed.
    min_spoof = std::min(min_spoof, sr.checks[i].distance);
  }
  EXPECT_GT(min_spoof, 10.0 * max_honest);
}

}  // namespace
}  // namespace rpol::core
