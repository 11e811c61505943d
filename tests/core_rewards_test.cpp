// Reward-distribution tests: conservation, proportionality, fee handling,
// and integration with pool run reports.

#include <gtest/gtest.h>

#include "core/rewards.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

TEST(Rewards, ConservesEveryUnit) {
  const RewardDistribution d =
      distribute_rewards(1'000'003, {3, 1, 0, 7, 2}, RewardPolicy{250});
  EXPECT_EQ(d.total(), 1'000'003u);
}

TEST(Rewards, ProportionalToContributions) {
  RewardPolicy no_fee{0};
  const RewardDistribution d = distribute_rewards(1000, {1, 3}, no_fee);
  EXPECT_EQ(d.worker_payouts[0], 250u);
  EXPECT_EQ(d.worker_payouts[1], 750u);
  EXPECT_EQ(d.manager_fee, 0u);
  EXPECT_EQ(d.undistributed, 0u);
}

TEST(Rewards, ManagerFeeBasisPoints) {
  const RewardDistribution d = distribute_rewards(10'000, {1}, RewardPolicy{250});
  EXPECT_EQ(d.manager_fee, 250u);  // 2.5%
  EXPECT_EQ(d.worker_payouts[0], 9'750u);
}

TEST(Rewards, ZeroContributionWorkerGetsNothing) {
  const RewardDistribution d = distribute_rewards(900, {3, 0, 6}, RewardPolicy{0});
  EXPECT_EQ(d.worker_payouts[1], 0u);
  EXPECT_EQ(d.worker_payouts[0], 300u);
  EXPECT_EQ(d.worker_payouts[2], 600u);
}

TEST(Rewards, NoContributionsLeavesRewardUndistributed) {
  const RewardDistribution d = distribute_rewards(500, {0, 0}, RewardPolicy{100});
  EXPECT_EQ(d.manager_fee, 5u);
  EXPECT_EQ(d.undistributed, 495u);
  EXPECT_EQ(d.worker_payouts[0], 0u);
}

TEST(Rewards, LargestRemainderRounding) {
  // 100 split 3 ways (1,1,1): floor shares 33 each, remainder 1 goes to
  // the lowest index on a tie.
  const RewardDistribution d = distribute_rewards(100, {1, 1, 1}, RewardPolicy{0});
  EXPECT_EQ(d.worker_payouts[0], 34u);
  EXPECT_EQ(d.worker_payouts[1], 33u);
  EXPECT_EQ(d.worker_payouts[2], 33u);
  EXPECT_EQ(d.undistributed, 0u);
}

TEST(Rewards, InvalidInputsThrow) {
  EXPECT_THROW(distribute_rewards(100, {-1}, RewardPolicy{0}),
               std::invalid_argument);
  EXPECT_THROW(distribute_rewards(100, {1}, RewardPolicy{10'001}),
               std::invalid_argument);
}

// Property sweep: conservation and monotonicity for assorted splits.
class RewardSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint32_t>> {};

TEST_P(RewardSweep, ConservationAndMonotonicity) {
  const auto [reward, fee] = GetParam();
  const std::vector<std::int64_t> contributions{5, 2, 9, 0, 1, 7};
  const RewardDistribution d =
      distribute_rewards(reward, contributions, RewardPolicy{fee});
  EXPECT_EQ(d.total(), reward);
  // Bigger contribution never earns less.
  for (std::size_t i = 0; i < contributions.size(); ++i) {
    for (std::size_t j = 0; j < contributions.size(); ++j) {
      if (contributions[i] > contributions[j]) {
        EXPECT_GE(d.worker_payouts[i], d.worker_payouts[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RewardSweep,
    ::testing::Values(std::pair{100ULL, 0u}, std::pair{101ULL, 250u},
                      std::pair{999'999ULL, 1'000u}, std::pair{7ULL, 0u},
                      std::pair{0ULL, 500u}));

TEST(Rewards, VerifiedEpochCountsFromPoolReport) {
  PoolRunReport report;
  EpochReport e1;
  e1.accepted = {true, false, true};
  EpochReport e2;
  e2.accepted = {true, true, false};
  report.epochs = {e1, e2};
  const auto counts = verified_epoch_counts(report);
  EXPECT_EQ(counts, (std::vector<std::int64_t>{2, 1, 1}));
  EXPECT_TRUE(verified_epoch_counts(PoolRunReport{}).empty());
}

TEST(Rewards, EndToEndWithMiningPool) {
  // A pool with one freeloader: rewards flow only to verified workers.
  using rpol::testing::TinyTask;
  const TinyTask task = TinyTask::make(101);
  const auto split = data::train_test_split(task.dataset, 0.25, 3);
  PoolConfig cfg;
  cfg.scheme = Scheme::kRPoLv1;
  cfg.hp = task.hp;
  cfg.epochs = 2;
  cfg.seed = 55;
  std::vector<WorkerSpec> workers;
  const auto devices = sim::all_devices();
  for (std::size_t w = 0; w < 3; ++w) {
    WorkerSpec spec;
    spec.policy = w == 0 ? std::unique_ptr<WorkerPolicy>(
                               std::make_unique<ReplayPolicy>())
                         : std::make_unique<HonestPolicy>();
    spec.device = devices[w];
    workers.push_back(std::move(spec));
  }
  ShardedPool pool({cfg}, task.factory, task.dataset, split.test,
                   std::move(workers));
  const PoolRunReport report = pool.run();
  const auto counts = verified_epoch_counts(report);
  EXPECT_EQ(counts[0], 0);  // freeloader never verified
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  const RewardDistribution d = distribute_rewards(1'000, counts, RewardPolicy{0});
  EXPECT_EQ(d.worker_payouts[0], 0u);
  EXPECT_EQ(d.worker_payouts[1], 500u);
  EXPECT_EQ(d.worker_payouts[2], 500u);
}

}  // namespace
}  // namespace rpol::core
