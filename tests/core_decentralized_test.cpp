// Decentralized-verification tests: assignment determinism/coverage,
// agreement with centralized verification, Byzantine verifier tolerance,
// and the parallel speedup accounting.

#include <gtest/gtest.h>

#include "core/decentralized.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

struct DecentralizedFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/91, /*steps=*/12, /*interval=*/2);
    view = data::DatasetView::whole(task.dataset);
    context = task.context(777, view);

    StepExecutor executor(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), 4);
    HonestPolicy honest;
    honest_trace = honest.produce_trace(executor, context, device);

    StepExecutor adv_exec(task.factory, task.hp);
    sim::DeviceExecution adv_device(sim::device_ga10(), 5);
    SpoofPolicy spoof(0.2, 0.5);
    spoof_trace = spoof.produce_trace(adv_exec, context, adv_device);
  }

  std::vector<VerifierNode> verifier_pool(int colluders, int slanderers,
                                          int total = 5) {
    std::vector<VerifierNode> nodes;
    const auto devices = sim::all_devices();
    for (int i = 0; i < total; ++i) {
      VerifierNode node;
      if (i < colluders) {
        node.behavior = VerifierBehavior::kColludeAccept;
      } else if (i < colluders + slanderers) {
        node.behavior = VerifierBehavior::kSlandererReject;
      }
      node.device = devices[static_cast<std::size_t>(i) % devices.size()];
      node.run_seed = static_cast<std::uint64_t>(100 + i);
      nodes.push_back(node);
    }
    return nodes;
  }

  DecentralizedConfig config() {
    DecentralizedConfig cfg;
    cfg.samples_q = 3;
    cfg.verifiers_per_sample = 3;
    cfg.beta = 2e-3;
    return cfg;
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
  EpochTrace honest_trace;
  EpochTrace spoof_trace;
};

TEST(Assignment, DeterministicAndDistinct) {
  const Digest root = sha256(std::string("r"));
  const std::vector<std::int64_t> samples{0, 3, 5};
  const auto a = assign_verifiers(1, root, samples, 7, 3);
  const auto b = assign_verifiers(1, root, samples, 7, 3);
  EXPECT_EQ(a, b);
  for (const auto& group : a) {
    ASSERT_EQ(group.size(), 3u);
    EXPECT_LT(group[0], group[1]);
    EXPECT_LT(group[1], group[2]);  // sorted => distinct
    for (const auto v : group) EXPECT_LT(v, 7u);
  }
}

TEST(Assignment, DependsOnCommitmentRoot) {
  const std::vector<std::int64_t> samples{0, 1, 2, 3, 4};
  const auto a = assign_verifiers(1, sha256(std::string("a")), samples, 9, 3);
  const auto b = assign_verifiers(1, sha256(std::string("b")), samples, 9, 3);
  EXPECT_NE(a, b);
}

TEST(Assignment, CoversAllVerifiersEventually) {
  std::set<std::size_t> seen;
  for (int i = 0; i < 30; ++i) {
    Bytes b;
    append_u64(b, static_cast<std::uint64_t>(i));
    for (const auto& group :
         assign_verifiers(3, sha256(b), {0, 1}, 6, 3)) {
      seen.insert(group.begin(), group.end());
    }
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Assignment, TooFewVerifiersThrows) {
  EXPECT_THROW(assign_verifiers(1, sha256(std::string("x")), {0}, 2, 3),
               std::invalid_argument);
  // Replication 0 would leave every sample voteless, so it fails, and with
  // no members at all there would be no per-verifier load to take a max of.
  for (const std::size_t members : {std::size_t{0}, std::size_t{5}}) {
    EXPECT_THROW(
        assign_verifiers(1, sha256(std::string("x")), {0}, members, 0),
        std::invalid_argument)
        << members << " members";
  }
}

TEST_F(DecentralizedFixture, HonestMajorityAcceptsHonestWorker) {
  DecentralizedVerifier verifier(task.factory, task.hp, config());
  const auto result =
      verifier.verify(commit_v1(honest_trace), honest_trace, context,
                      hash_state(context.initial), verifier_pool(0, 0));
  EXPECT_TRUE(result.accepted);
  EXPECT_EQ(result.samples.size(), 3u);
  for (const auto& votes : result.votes) {
    for (const auto& vote : votes) EXPECT_TRUE(vote.pass);
  }
}

TEST_F(DecentralizedFixture, HonestMajorityRejectsSpoofer) {
  DecentralizedVerifier verifier(task.factory, task.hp, config());
  const auto result =
      verifier.verify(commit_v1(spoof_trace), spoof_trace, context,
                      hash_state(context.initial), verifier_pool(0, 0));
  EXPECT_FALSE(result.accepted);
}

TEST_F(DecentralizedFixture, MinorityColludersCannotSaveSpoofer) {
  // 1 colluder among 5, r=3: at most one colluding vote per sample, honest
  // majority still rejects.
  DecentralizedVerifier verifier(task.factory, task.hp, config());
  const auto result =
      verifier.verify(commit_v1(spoof_trace), spoof_trace, context,
                      hash_state(context.initial), verifier_pool(1, 0));
  EXPECT_FALSE(result.accepted);
}

TEST_F(DecentralizedFixture, MinoritySlanderersCannotBlockHonest) {
  DecentralizedVerifier verifier(task.factory, task.hp, config());
  const auto result =
      verifier.verify(commit_v1(honest_trace), honest_trace, context,
                      hash_state(context.initial), verifier_pool(0, 1));
  EXPECT_TRUE(result.accepted);
}

TEST_F(DecentralizedFixture, ColluderSupermajorityDoesBreakIt) {
  // Sanity check of the threat model boundary: if ALL verifiers collude,
  // a spoofer passes — replication only defends up to < r/2 per sample.
  DecentralizedVerifier verifier(task.factory, task.hp, config());
  const auto result =
      verifier.verify(commit_v1(spoof_trace), spoof_trace, context,
                      hash_state(context.initial), verifier_pool(5, 0));
  EXPECT_TRUE(result.accepted);
}

TEST_F(DecentralizedFixture, ParallelSpeedupAccounting) {
  DecentralizedConfig cfg = config();
  cfg.samples_q = 6;  // every transition sampled
  DecentralizedVerifier verifier(task.factory, task.hp, cfg);
  const auto result =
      verifier.verify(commit_v1(honest_trace), honest_trace, context,
                      hash_state(context.initial), verifier_pool(0, 0, 9));
  EXPECT_TRUE(result.accepted);
  // Work is replicated r times but spread across 9 verifiers: the critical
  // path must be well below the total (a real parallel speedup).
  EXPECT_GT(result.total_reexecuted_steps, 0);
  EXPECT_LT(result.critical_path_steps, result.total_reexecuted_steps);
}

TEST_F(DecentralizedFixture, AgreesWithCentralizedOnBothClasses) {
  // Decentralized (honest pool) and centralized verification must agree.
  DecentralizedVerifier dec(task.factory, task.hp, config());
  VerifierConfig vcfg;
  vcfg.samples_q = 3;
  vcfg.beta = config().beta;
  Verifier central(task.factory, task.hp, vcfg);

  for (const EpochTrace* trace : {&honest_trace, &spoof_trace}) {
    sim::DeviceExecution manager_device(sim::device_g3090(), 1000);
    const bool central_ok =
        central
            .verify(commit_v1(*trace), *trace, context,
                    hash_state(context.initial), manager_device)
            .accepted;
    const bool dec_ok = dec.verify(commit_v1(*trace), *trace, context,
                                   hash_state(context.initial),
                                   verifier_pool(0, 0))
                            .accepted;
    EXPECT_EQ(central_ok, dec_ok);
  }
}

TEST_F(DecentralizedFixture, MalformedCommitmentRejected) {
  DecentralizedVerifier verifier(task.factory, task.hp, config());
  Commitment broken = commit_v1(honest_trace);
  broken.state_hashes.pop_back();
  // The honest trace's RPoLv2 commitment is consistent and binds C_0, but
  // the committee judges under RPoLv1, so step 0 refuses its version.
  StepExecutor probe(task.factory, task.hp);
  const std::vector<bool>& mask = probe.trainable_mask();
  lsh::LshConfig lsh_cfg;
  lsh_cfg.dim = static_cast<std::int64_t>(
      extract_trainable(context.initial.model, mask).size());
  const lsh::PStableLsh hasher(lsh_cfg);
  const Commitment v2 = commit_v2(honest_trace, hasher, &mask);
  for (const Commitment& commitment : {broken, v2}) {
    const auto result =
        verifier.verify(commitment, honest_trace, context,
                        hash_state(context.initial), verifier_pool(0, 0));
    EXPECT_FALSE(result.accepted);
    EXPECT_TRUE(result.votes.empty());
  }
}

}  // namespace
}  // namespace rpol::core
