// Mining-pool integration tests: the full per-epoch protocol with honest
// and adversarial workers, across Baseline / RPoLv1 / RPoLv2 schemes.

#include <gtest/gtest.h>

#include "core/async_pool.h"
#include "data/partition.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

struct PoolFixture : public ::testing::Test {
  static constexpr std::size_t kWorkers = 4;

  void SetUp() override {
    task = TinyTask::make(/*seed=*/61, /*steps=*/10, /*interval=*/3);
    split = std::make_unique<data::TrainTestSplit>(
        data::train_test_split(task.dataset, 0.25, 17));
  }

  PoolConfig config(Scheme scheme, std::int64_t epochs = 2) {
    PoolConfig cfg;
    cfg.scheme = scheme;
    cfg.hp = task.hp;
    cfg.epochs = epochs;
    cfg.samples_q = 3;
    cfg.seed = 71;
    return cfg;
  }

  std::vector<WorkerSpec> workers(std::size_t num_adv, bool replay) {
    std::vector<WorkerSpec> specs;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < kWorkers; ++w) {
      WorkerSpec spec;
      if (w < num_adv) {
        if (replay) {
          spec.policy = std::make_unique<ReplayPolicy>();
        } else {
          spec.policy = std::make_unique<SpoofPolicy>(0.1, 0.5);
        }
      } else {
        spec.policy = std::make_unique<HonestPolicy>();
      }
      spec.device = devices[w % devices.size()];
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  ShardedPool make_pool(Scheme scheme, std::size_t num_adv, bool replay,
                        std::int64_t epochs = 2) {
    return ShardedPool({config(scheme, epochs)}, task.factory, task.dataset,
                       split->test, workers(num_adv, replay));
  }

  TinyTask task{TinyTask::make()};
  std::unique_ptr<data::TrainTestSplit> split;
};

TEST_F(PoolFixture, AllHonestAllAccepted) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    ShardedPool pool = make_pool(scheme, 0, false);
    const PoolRunReport report = pool.run();
    for (const auto& epoch : report.epochs) {
      EXPECT_EQ(epoch.rejected_count, 0) << scheme_name(scheme);
      for (const bool a : epoch.accepted) EXPECT_TRUE(a);
    }
  }
}

TEST_F(PoolFixture, ReplayAdversariesDetected) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    ShardedPool pool = make_pool(scheme, 2, /*replay=*/true);
    const EpochReport epoch = pool.run_epoch(0);
    EXPECT_EQ(epoch.rejected_count, 2) << scheme_name(scheme);
    EXPECT_FALSE(epoch.accepted[0]);
    EXPECT_FALSE(epoch.accepted[1]);
    EXPECT_TRUE(epoch.accepted[2]);
    EXPECT_TRUE(epoch.accepted[3]);
  }
}

TEST_F(PoolFixture, SpoofAdversariesDetected) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    ShardedPool pool = make_pool(scheme, 2, /*replay=*/false);
    const EpochReport epoch = pool.run_epoch(0);
    // Spoofers fake 90% of transitions; with q=3 the odds of sampling only
    // the honest prefix are ~0.1% — they are caught deterministically here.
    EXPECT_EQ(epoch.rejected_count, 2) << scheme_name(scheme);
  }
}

TEST_F(PoolFixture, BaselineAcceptsEveryone) {
  ShardedPool pool = make_pool(Scheme::kBaseline, 2, true);
  const EpochReport epoch = pool.run_epoch(0);
  EXPECT_EQ(epoch.rejected_count, 0);
  EXPECT_EQ(epoch.double_checks, 0);
  EXPECT_EQ(epoch.manager_reexecuted_steps, 0);
}

TEST_F(PoolFixture, VerifiedPoolBeatsBaselineUnderAttack) {
  // Fig. 6's core claim: with adversaries present, the verified pool's
  // global model outperforms the unverified baseline.
  ShardedPool baseline = make_pool(Scheme::kBaseline, 3, true, 2);
  ShardedPool verified = make_pool(Scheme::kRPoLv1, 3, true, 2);
  const double acc_baseline = baseline.run().final_accuracy;
  const double acc_verified = verified.run().final_accuracy;
  EXPECT_GT(acc_verified, acc_baseline);
}

TEST_F(PoolFixture, V1AndV2AgreeOnAcceptance) {
  // RPoLv2's LSH shortcut must not change accept/reject outcomes (Sec.
  // VII-E: "experimentally obtains the same inference accuracy as v1").
  ShardedPool v1 = make_pool(Scheme::kRPoLv1, 1, false);
  ShardedPool v2 = make_pool(Scheme::kRPoLv2, 1, false);
  const EpochReport e1 = v1.run_epoch(0);
  const EpochReport e2 = v2.run_epoch(0);
  EXPECT_EQ(e1.accepted, e2.accepted);
}

TEST_F(PoolFixture, CalibrationProducesThresholdsEachEpoch) {
  ShardedPool pool = make_pool(Scheme::kRPoLv2, 0, false);
  const EpochReport e0 = pool.run_epoch(0);
  EXPECT_GT(e0.alpha, 0.0);
  EXPECT_NEAR(e0.beta, 5.0 * e0.alpha, 1e-12);
  EXPECT_GE(e0.lsh_params.k, 1);
  EXPECT_GE(e0.lsh_params.l, 1);
  EXPECT_LE(e0.lsh_params.k * e0.lsh_params.l, 16);
}

TEST_F(PoolFixture, TrafficAccountingNonTrivial) {
  ShardedPool v1 = make_pool(Scheme::kRPoLv1, 0, false);
  ShardedPool v2 = make_pool(Scheme::kRPoLv2, 0, false);
  ShardedPool base = make_pool(Scheme::kBaseline, 0, false);
  const auto b1 = v1.run_epoch(0).bytes_this_epoch;
  const auto b2 = v2.run_epoch(0).bytes_this_epoch;
  const auto bb = base.run_epoch(0).bytes_this_epoch;
  EXPECT_GT(b1, bb);  // verification costs traffic
  EXPECT_GT(b2, bb);
  EXPECT_LT(b2, b1);  // LSH optimization saves proof traffic
}

TEST_F(PoolFixture, StorageAccountingCoversCheckpoints) {
  ShardedPool pool = make_pool(Scheme::kRPoLv1, 0, false);
  const EpochReport epoch = pool.run_epoch(0);
  // 5 checkpoints x (model + optimizer) floats.
  EXPECT_GT(epoch.worker_storage_bytes, 0u);
}

TEST_F(PoolFixture, AccuracyImprovesOverEpochs) {
  ShardedPool pool = make_pool(Scheme::kRPoLv2, 0, false, 6);
  const PoolRunReport report = pool.run();
  EXPECT_GT(report.final_accuracy, report.epochs.front().test_accuracy);
  EXPECT_GT(report.final_accuracy, 0.5);
}

TEST_F(PoolFixture, HonestOnlyBaselineMatchesVerifiedAccuracy) {
  // With no adversaries, verification must not harm model quality.
  ShardedPool base = make_pool(Scheme::kBaseline, 0, false, 3);
  ShardedPool v2 = make_pool(Scheme::kRPoLv2, 0, false, 3);
  const double acc_base = base.run().final_accuracy;
  const double acc_v2 = v2.run().final_accuracy;
  EXPECT_NEAR(acc_base, acc_v2, 0.08);
}

TEST_F(PoolFixture, RejectedWorkersDontMoveGlobalModel) {
  // All-adversary pool: every update rejected, so the global model stays at
  // its initial state.
  ShardedPool pool = make_pool(Scheme::kRPoLv1, kWorkers, true, 1);
  const std::vector<float> before = pool.pool().global_model();
  pool.run_epoch(0);
  EXPECT_EQ(pool.pool().global_model(), before);
}

TEST_F(PoolFixture, CalibrateOnceAblationStillWorks) {
  PoolConfig cfg = config(Scheme::kRPoLv2, 2);
  cfg.calibrate_every_epoch = false;
  ShardedPool pool({cfg}, task.factory, task.dataset, split->test,
                   workers(1, false));
  const PoolRunReport report = pool.run();
  EXPECT_EQ(report.epochs.size(), 2u);
  // The adversary is still caught with the epoch-0 thresholds.
  EXPECT_EQ(report.epochs[1].rejected_count, 1);
}

TEST_F(PoolFixture, CompactCommitmentsMatchHashListDecisions) {
  // The Merkle construction changes what travels, not what is accepted.
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    PoolConfig list_cfg = config(scheme, 1);
    PoolConfig compact_cfg = list_cfg;
    compact_cfg.compact_commitments = true;
    ShardedPool list_pool({list_cfg}, task.factory, task.dataset,
                          split->test, workers(2, true));
    ShardedPool compact_pool({compact_cfg}, task.factory, task.dataset,
                             split->test, workers(2, true));
    const EpochReport el = list_pool.run_epoch(0);
    const EpochReport ec = compact_pool.run_epoch(0);
    EXPECT_EQ(el.accepted, ec.accepted) << scheme_name(scheme);
    // Note: at this toy scale (5 checkpoints) the membership proofs cost
    // more than the hash list saves; the compact construction pays off for
    // long epochs (see CompactBeatsHashListForLongEpochs in
    // core_compact_commitment_test).
  }
}

TEST(PoolConstruction, RejectsEmptyWorkerSet) {
  const TinyTask task = TinyTask::make();
  const auto split = data::train_test_split(task.dataset, 0.2, 3);
  PoolConfig cfg;
  cfg.hp = task.hp;
  EXPECT_THROW(ShardedPool({cfg}, task.factory, task.dataset, split.test, {}),
               std::invalid_argument);
}

// With q < 1 no sample could fail, so a verifying pool would accept every
// worker. MiningPool (under an RPoL scheme), ShardedPool and a verifying
// AsyncMiningPool refuse such a config when they are built, before any
// worker trains; a Baseline pool never samples and takes any q.
TEST_F(PoolFixture, NoSamplesRefusedBeforeTraining) {
  struct CountingPolicy : HonestPolicy {
    explicit CountingPolicy(int& count) : trained(count) {}
    EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                             sim::DeviceExecution& device) override {
      ++trained;
      return HonestPolicy::produce_trace(executor, context, device);
    }
    StreamedTraceInfo stream_trace(StepExecutor& executor,
                                   const EpochContext& context,
                                   sim::DeviceExecution& device,
                                   CheckpointSink& sink) override {
      ++trained;
      return HonestPolicy::stream_trace(executor, context, device, sink);
    }
    int& trained;
  };
  int trained = 0;
  const auto devices = sim::all_devices();
  const auto pool_workers = [&] {
    std::vector<WorkerSpec> specs(2);
    for (std::size_t w = 0; w < specs.size(); ++w) {
      specs[w].policy = std::make_unique<CountingPolicy>(trained);
      specs[w].device = devices[w];
    }
    return specs;
  };
  for (const std::int64_t q : {0, -1}) {
    for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
      PoolConfig cfg = config(scheme, 1);
      cfg.samples_q = q;
      EXPECT_THROW(MiningPool(cfg, task.factory, task.dataset, split->test,
                              pool_workers()),
                   std::invalid_argument)
          << scheme_name(scheme) << " q=" << q;
      EXPECT_THROW(
          {
            ShardedPool pool({cfg}, task.factory, task.dataset, split->test,
                             pool_workers());
            pool.run_epoch(0);
          },
          std::invalid_argument)
          << scheme_name(scheme) << " q=" << q;
    }
    AsyncPoolConfig acfg;
    acfg.hp = task.hp;
    acfg.ticks = 2;
    acfg.samples_q = q;
    std::vector<AsyncWorkerSpec> async_workers(2);
    for (std::size_t w = 0; w < async_workers.size(); ++w) {
      async_workers[w].policy = std::make_unique<CountingPolicy>(trained);
      async_workers[w].device = devices[w];
    }
    EXPECT_THROW(
        {
          AsyncMiningPool pool(acfg, task.factory, task.dataset, split->test,
                               std::move(async_workers));
          pool.run();
        },
        std::invalid_argument)
        << "async q=" << q;
  }
  EXPECT_EQ(trained, 0);

  PoolConfig baseline = config(Scheme::kBaseline, 1);
  baseline.samples_q = 0;
  EXPECT_NO_THROW(MiningPool(baseline, task.factory, task.dataset,
                             split->test, pool_workers()));
}

}  // namespace
}  // namespace rpol::core
