// Tests for the extended adversary policies: fabrication, cross-epoch
// (stale) replay, and the Eq. (12) spoof helper itself.

#include <gtest/gtest.h>

#include "core/verifier.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

struct PolicyFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/111);
    view = data::DatasetView::whole(task.dataset);
    context = task.context(31337, view);
  }

  VerifyResult verify(const EpochTrace& trace, const EpochContext& ctx) {
    VerifierConfig cfg;
    cfg.samples_q = 4;  // every transition for 10-step/3-interval traces
    cfg.beta = 2e-3;
    Verifier verifier(task.factory, task.hp, cfg);
    sim::DeviceExecution manager_device(sim::device_g3090(), 777);
    return verifier.verify(commit_v1(trace), trace, ctx,
                           hash_state(ctx.initial), manager_device);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
};

// ---------------------------------------------------------------------------
// spoof_next_weights (Eq. 12)

TEST(SpoofHelper, SinglePointDegeneratesToCopy) {
  const std::vector<float> only{1.0F, 2.0F};
  EXPECT_EQ(spoof_next_weights({&only}, 0.5), only);
  EXPECT_THROW(spoof_next_weights({}, 0.5), std::invalid_argument);
}

TEST(SpoofHelper, TwoPointsLinearExtrapolation) {
  const std::vector<float> c1{0.0F, 0.0F};
  const std::vector<float> c2{1.0F, -2.0F};
  // One diff with weight 1: c3 = c2 + (c2 - c1).
  const auto c3 = spoof_next_weights({&c1, &c2}, 0.5);
  EXPECT_FLOAT_EQ(c3[0], 2.0F);
  EXPECT_FLOAT_EQ(c3[1], -4.0F);
}

TEST(SpoofHelper, LambdaWeightsRecentDiffsMore) {
  const std::vector<float> c1{0.0F};
  const std::vector<float> c2{1.0F};  // diff1 = 1
  const std::vector<float> c3{1.0F}; // diff2 = 0 (most recent)
  // lambda=0.5: weights {1, 0.5}/1.5 on diffs {0, 1} (newest first):
  // c4 = 1 + (1*0 + 0.5*1)/1.5 = 1.333...
  const auto c4 = spoof_next_weights({&c1, &c2, &c3}, 0.5);
  EXPECT_NEAR(c4[0], 1.0F + 0.5F / 1.5F, 1e-6F);
}

// ---------------------------------------------------------------------------
// FabricationPolicy

TEST_F(PolicyFixture, FabricationProducesWellFormedTrace) {
  StepExecutor executor(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_gt4(), 1);
  FabricationPolicy fabricate(0.01F);
  const EpochTrace trace = fabricate.produce_trace(executor, context, device);
  EXPECT_EQ(trace.num_transitions(), 4);
  EXPECT_EQ(trace.checkpoints.front().model, context.initial.model);
  // Checkpoints move (it fakes progress)...
  EXPECT_GT(l2_distance(trace.checkpoints.back().model,
                        context.initial.model),
            0.0);
}

TEST_F(PolicyFixture, FabricationRejectedByVerifier) {
  StepExecutor executor(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_gt4(), 1);
  FabricationPolicy fabricate(0.01F);
  const EpochTrace trace = fabricate.produce_trace(executor, context, device);
  const VerifyResult result = verify(trace, context);
  EXPECT_FALSE(result.accepted);
  // Hashes are self-consistent; the re-execution distance is what fails.
  for (const auto& check : result.checks) {
    EXPECT_NE(check.failure, VerifyFailure::kHashMismatch);
  }
}

TEST_F(PolicyFixture, FabricationDeterministicPerEpoch) {
  StepExecutor executor(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_gt4(), 1);
  FabricationPolicy a(0.01F, 5), b(0.01F, 5);
  EXPECT_EQ(a.produce_trace(executor, context, device).checkpoints.back().model,
            b.produce_trace(executor, context, device).checkpoints.back().model);
}

// ---------------------------------------------------------------------------
// StaleReplayPolicy

TEST_F(PolicyFixture, StaleReplayPassesFirstEpochOnly) {
  StepExecutor executor(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 2);
  StaleReplayPolicy stale;

  // Epoch 0: the policy actually trains, so it verifies.
  const EpochTrace first = stale.produce_trace(executor, context, device);
  EXPECT_TRUE(verify(first, context).accepted);

  // Epoch 1: new nonce and new global state; the replayed trace must fail —
  // its C_0 is the OLD initial state, caught by the initial-hash check.
  EpochContext next_epoch = context;
  next_epoch.epoch = 1;
  next_epoch.nonce = 424242;
  next_epoch.initial.model = first.checkpoints.back().model;
  const EpochTrace replayed = stale.produce_trace(executor, next_epoch, device);
  EXPECT_EQ(replayed.checkpoints.front().model, context.initial.model);
  const VerifyResult result = verify(replayed, next_epoch);
  EXPECT_FALSE(result.accepted);
}

TEST_F(PolicyFixture, StaleReplayFailsEvenFromSameGlobalState) {
  // Suppose aggregation left the global model unchanged (e.g. all updates
  // rejected). The stale trace's C_0 then hash-matches — but the NONCE
  // changed, so re-execution selects different batches and the distances
  // blow past beta. This is exactly the replay protection the
  // stochastic-yet-deterministic selection provides (Sec. V-B).
  StepExecutor executor(task.factory, task.hp);
  sim::DeviceExecution device(sim::device_ga10(), 3);
  StaleReplayPolicy stale;
  const EpochTrace first = stale.produce_trace(executor, context, device);
  ASSERT_TRUE(verify(first, context).accepted);

  EpochContext same_state_new_nonce = context;
  same_state_new_nonce.epoch = 1;
  same_state_new_nonce.nonce = 99999;  // fresh nonce, same initial state
  const EpochTrace replayed =
      stale.produce_trace(executor, same_state_new_nonce, device);
  const VerifyResult result = verify(replayed, same_state_new_nonce);
  EXPECT_FALSE(result.accepted);
}

// ---------------------------------------------------------------------------
// Policy metadata

TEST(PolicyMetadata, NamesAndHonestyRatios) {
  HonestPolicy honest;
  ReplayPolicy replay;
  SpoofPolicy spoof(0.3);
  FabricationPolicy fabricate;
  StaleReplayPolicy stale;
  EXPECT_EQ(honest.name(), "honest");
  EXPECT_EQ(replay.name(), "adv1_replay");
  EXPECT_EQ(spoof.name(), "adv2_spoof");
  EXPECT_EQ(fabricate.name(), "fabricate");
  EXPECT_EQ(stale.name(), "stale_replay");
  EXPECT_DOUBLE_EQ(honest.honesty_ratio(), 1.0);
  EXPECT_DOUBLE_EQ(replay.honesty_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(spoof.honesty_ratio(), 0.3);
}

}  // namespace
}  // namespace rpol::core
