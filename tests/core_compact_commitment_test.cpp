// Tests for the compact (Merkle) commitment construction of Sec. V-B:
// membership proofs bind the right hashes at the right positions, byte
// sizes beat the hash-list construction for long epochs, and forgeries of
// every flavour are rejected.

#include <gtest/gtest.h>

#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

struct CompactFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/121, /*steps=*/21, /*interval=*/3);  // 7 transitions
    view = data::DatasetView::whole(task.dataset);
    context = task.context(2468, view);
    StepExecutor executor(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), 12);
    HonestPolicy honest;
    trace = honest.produce_trace(executor, context, device);
    full_v1 = commit_v1(trace);
    lsh::LshConfig cfg{{1.0, 2, 3},
                       static_cast<std::int64_t>(trace.checkpoints[0].model.size()),
                       9};
    hasher = std::make_unique<lsh::PStableLsh>(cfg);
    full_v2 = commit_v2(trace, *hasher);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
  EpochTrace trace;
  Commitment full_v1;
  Commitment full_v2;
  std::unique_ptr<lsh::PStableLsh> hasher;
};

TEST_F(CompactFixture, AllTransitionsProveAndVerifyV1) {
  const CompactCommitment compact = compact_commitment(full_v1);
  EXPECT_EQ(compact.num_checkpoints, 8);
  for (std::int64_t j = 0; j + 1 < compact.num_checkpoints; ++j) {
    const TransitionProof proof = CommitmentIndex(full_v1).prove_transition(j);
    EXPECT_TRUE(verify_transition_proof(compact, proof)) << "transition " << j;
    // The proven hashes are the real checkpoint hashes.
    EXPECT_TRUE(digest_equal(
        proof.in_hash, hash_state(trace.checkpoints[static_cast<std::size_t>(j)])));
    EXPECT_TRUE(digest_equal(
        proof.out_hash,
        hash_state(trace.checkpoints[static_cast<std::size_t>(j + 1)])));
  }
}

TEST_F(CompactFixture, AllTransitionsProveAndVerifyV2) {
  const CompactCommitment compact = compact_commitment(full_v2);
  for (std::int64_t j = 0; j + 1 < compact.num_checkpoints; ++j) {
    const TransitionProof proof = CommitmentIndex(full_v2).prove_transition(j);
    EXPECT_TRUE(verify_transition_proof(compact, proof)) << "transition " << j;
    EXPECT_TRUE(proof.out_lsh ==
                full_v2.lsh_digests[static_cast<std::size_t>(j + 1)]);
  }
}

TEST_F(CompactFixture, CompactBeatsHashListForLongEpochs) {
  // 8 checkpoints: compact root (73 B) vs 8 x 32 B of hashes; the per-proof
  // overhead is logarithmic, so sampled verification transfers less overall
  // once epochs are long and q is small.
  const CompactCommitment compact = compact_commitment(full_v1);
  EXPECT_LT(compact.byte_size(), full_v1.byte_size());
  const TransitionProof proof = CommitmentIndex(full_v1).prove_transition(3);
  // log2(8) = 3 levels => 3 siblings per membership proof.
  EXPECT_EQ(proof.in_membership.siblings.size(), 3u);
}

TEST_F(CompactFixture, WrongTransitionIndexRejected) {
  const CompactCommitment compact = compact_commitment(full_v1);
  TransitionProof proof = CommitmentIndex(full_v1).prove_transition(2);
  proof.transition = 3;  // relabel a valid proof
  EXPECT_FALSE(verify_transition_proof(compact, proof));
}

TEST_F(CompactFixture, TamperedHashRejected) {
  const CompactCommitment compact = compact_commitment(full_v1);
  TransitionProof proof = CommitmentIndex(full_v1).prove_transition(1);
  proof.out_hash[0] ^= 1;
  EXPECT_FALSE(verify_transition_proof(compact, proof));
}

TEST_F(CompactFixture, TamperedMembershipRejected) {
  const CompactCommitment compact = compact_commitment(full_v1);
  TransitionProof proof = CommitmentIndex(full_v1).prove_transition(1);
  proof.in_membership.siblings[0][5] ^= 1;
  EXPECT_FALSE(verify_transition_proof(compact, proof));
}

TEST_F(CompactFixture, SwappedLshDigestRejectedV2) {
  const CompactCommitment compact = compact_commitment(full_v2);
  TransitionProof proof = CommitmentIndex(full_v2).prove_transition(1);
  // Substitute the LSH digest of a different checkpoint (with its proof
  // left pointing at position 2): position binding must catch it.
  const TransitionProof other = CommitmentIndex(full_v2).prove_transition(4);
  proof.out_lsh = other.out_lsh;
  EXPECT_FALSE(verify_transition_proof(compact, proof));
  proof.out_lsh_membership = other.out_lsh_membership;
  EXPECT_FALSE(verify_transition_proof(compact, proof));
}

TEST_F(CompactFixture, OutOfRangeInputsThrowOrFail) {
  EXPECT_THROW(CommitmentIndex(full_v1).prove_transition(-1),
               std::out_of_range);
  EXPECT_THROW(CommitmentIndex(full_v1).prove_transition(7),
               std::out_of_range);
  const CompactCommitment compact = compact_commitment(full_v1);
  TransitionProof proof = CommitmentIndex(full_v1).prove_transition(0);
  proof.transition = 99;
  EXPECT_FALSE(verify_transition_proof(compact, proof));
}

// ---------------------------------------------------------------------------
// verify_compact: the full manager path over the Merkle construction.

struct CompactVerifierFixture : public CompactFixture {
  VerifyResult run_compact(const Commitment& full, const EpochTrace& tr,
                           bool use_lsh) {
    VerifierConfig cfg;
    cfg.samples_q = 3;
    cfg.beta = 2e-3;
    if (use_lsh) cfg.lsh_family = hasher.get();  // the family full_v2 used
    Verifier verifier(task.factory, task.hp, cfg);
    sim::DeviceExecution manager_device(sim::device_g3090(), 321);
    return verifier.verify_compact(compact_commitment(full), full, tr, context,
                                   hash_state(context.initial), manager_device);
  }
};

TEST_F(CompactVerifierFixture, HonestAcceptedV1AndV2) {
  EXPECT_TRUE(run_compact(full_v1, trace, false).accepted);
  EXPECT_TRUE(run_compact(full_v2, trace, true).accepted);
}

TEST_F(CompactVerifierFixture, SpooferRejected) {
  StepExecutor executor(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 55);
  SpoofPolicy spoof(0.15, 0.5);
  const EpochTrace bad = spoof.produce_trace(executor, context, device);
  const Commitment bad_full = commit_v1(bad);
  EXPECT_FALSE(run_compact(bad_full, bad, false).accepted);
}

TEST_F(CompactVerifierFixture, ForeignInitialStateRejected) {
  EpochContext foreign = context;
  foreign.initial.model[0] += 1.0F;
  StepExecutor executor(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 66);
  HonestPolicy honest;
  const EpochTrace foreign_trace = honest.produce_trace(executor, foreign, device);
  const Commitment foreign_full = commit_v1(foreign_trace);
  VerifierConfig cfg;
  cfg.samples_q = 3;
  cfg.beta = 2e-3;
  Verifier verifier(task.factory, task.hp, cfg);
  sim::DeviceExecution manager_device(sim::device_g3090(), 77);
  const VerifyResult result = verifier.verify_compact(
      compact_commitment(foreign_full), foreign_full, foreign_trace, context,
      hash_state(context.initial), manager_device);
  EXPECT_FALSE(result.accepted);
  EXPECT_TRUE(result.checks.empty());
}

TEST_F(CompactVerifierFixture, VersionMismatchRejected) {
  VerifierConfig cfg;
  cfg.samples_q = 3;
  cfg.beta = 2e-3;
  Verifier verifier(task.factory, task.hp, cfg);
  sim::DeviceExecution manager_device(sim::device_g3090(), 88);
  // A v2 compact commitment fed to a v1-configured verifier is rejected.
  const VerifyResult result = verifier.verify_compact(
      compact_commitment(full_v2), full_v2, trace, context,
      hash_state(context.initial), manager_device);
  EXPECT_FALSE(result.accepted);
}

TEST_F(CompactVerifierFixture, CompactBindingIsUniquePerCommitment) {
  const Digest a = compact_commitment_binding(compact_commitment(full_v1));
  const Digest b = compact_commitment_binding(compact_commitment(full_v2));
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(MerkleProofPath, PathIndexMatchesLeafIndex) {
  std::vector<Digest> leaves;
  for (int i = 0; i < 13; ++i) {
    Bytes b;
    append_u64(b, static_cast<std::uint64_t>(i));
    leaves.push_back(sha256(b));
  }
  const MerkleTree tree(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    EXPECT_EQ(tree.prove(i).path_index(), i);
  }
}

}  // namespace
}  // namespace rpol::core
