// The pool's epoch loop (core/sharded_pool.h): shard partitioning and
// resolution, the epoch's one LSH family, an honest sharded epoch, and a
// seeded 1k-worker soak under a mixed drop/delay/corrupt fault plan. The
// pool golden, reproduced at several shard and thread counts, lives in
// tests/runtime_determinism_test.cpp; this file covers the sharded layer's
// own semantics.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sharded_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "obs/health.h"
#include "obs/mem.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

fault::FaultProfile mixed_profile(double drop, double delay, double corrupt) {
  fault::FaultProfile p;
  p.drop = drop;
  p.delay = delay;
  p.corrupt = corrupt;
  return p;
}

struct ShardedFixture : public ::testing::Test {
  static constexpr std::size_t kWorkers = 4;

  void SetUp() override {
    task = TinyTask::make(/*seed=*/61, /*steps=*/10, /*interval=*/3);
    split = std::make_unique<data::TrainTestSplit>(
        data::train_test_split(task.dataset, 0.25, 17));
  }

  ShardedPoolConfig config(int shards, std::int64_t epochs = 2) {
    ShardedPoolConfig cfg;
    cfg.base.scheme = Scheme::kRPoLv2;
    cfg.base.hp = task.hp;
    cfg.base.epochs = epochs;
    cfg.base.samples_q = 3;
    cfg.base.seed = 71;
    cfg.shards = shards;
    return cfg;
  }

  std::vector<WorkerSpec> workers(std::size_t n = kWorkers) {
    std::vector<WorkerSpec> specs;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < n; ++w) {
      WorkerSpec spec;
      spec.policy = std::make_unique<HonestPolicy>();
      spec.device = devices[w % devices.size()];
      specs.push_back(std::move(spec));
    }
    return specs;
  }

  ShardedPool make_pool(ShardedPoolConfig cfg) {
    return ShardedPool(std::move(cfg), task.factory, task.dataset, split->test,
                       workers());
  }

  TinyTask task{TinyTask::make()};
  std::unique_ptr<data::TrainTestSplit> split;
};

// ---------------------------------------------------------------------------
// Shard resolution and partitioning

TEST(ShardResolution, ConfiguredCountIsClampedToWorkers) {
  EXPECT_EQ(ShardedPoolConfig{}.shards, 1);
  EXPECT_EQ(resolve_shards(0, 8), 1);
  EXPECT_EQ(resolve_shards(3, 8), 3);
  EXPECT_EQ(resolve_shards(100, 8), 8);   // clamp to worker count
  EXPECT_EQ(resolve_shards(-2, 8), 1);
  EXPECT_EQ(resolve_shards(2, 0), 1);     // degenerate pools get one shard
}

TEST_F(ShardedFixture, ShardRangesPartitionWorkersContiguously) {
  ShardedPool pool = make_pool(config(/*shards=*/3));
  EXPECT_EQ(pool.shards(), 3);
  // 4 workers over 3 shards: the first (4 % 3) = 1 shard gets the extra.
  const ShardRange r0 = pool.shard_range(0);
  const ShardRange r1 = pool.shard_range(1);
  const ShardRange r2 = pool.shard_range(2);
  EXPECT_EQ(r0.begin, 0U);
  EXPECT_EQ(r0.end, 2U);
  EXPECT_EQ(r1.begin, 2U);
  EXPECT_EQ(r1.end, 3U);
  EXPECT_EQ(r2.begin, 3U);
  EXPECT_EQ(r2.end, 4U);
}

// ---------------------------------------------------------------------------
// One LSH family per epoch

TEST_F(ShardedFixture, ShardVerifiersBorrowTheWorkspaceFamily) {
  for (const Scheme scheme : {Scheme::kRPoLv2, Scheme::kRPoLv1}) {
    ShardedPoolConfig cfg = config(/*shards=*/2, /*epochs=*/1);
    cfg.base.scheme = scheme;
    ShardedPool pool = make_pool(std::move(cfg));
    MiningPool& mp = pool.pool();
    const std::unique_ptr<EpochWorkspace> ws = mp.prepare_epoch(0);
    ASSERT_EQ(ws->lsh_family.has_value(), scheme == Scheme::kRPoLv2);
    const lsh::PStableLsh* family =
        ws->lsh_family ? &*ws->lsh_family : nullptr;
    for (int s = 0; s < 2; ++s) {
      const std::unique_ptr<Verifier> verifier = mp.make_verifier();
      EXPECT_EQ(verifier->config().lsh_family, nullptr);
      mp.configure_epoch_verifier(*ws, *verifier);
      // Pointer equality: no verifier holds a copy of the family.
      EXPECT_EQ(verifier->config().lsh_family, family)
          << scheme_name(scheme) << " verifier " << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Verdicts

TEST_F(ShardedFixture, TwoShardsAcceptEveryHonestWorker) {
  ShardedPool pool = make_pool(config(2, /*epochs=*/1));
  const EpochReport epoch = pool.run_epoch(0);
  EXPECT_EQ(epoch.rejected_count, 0);
  for (const SessionStatus s : epoch.status) {
    EXPECT_EQ(s, SessionStatus::kAccepted);
  }
}

// ---------------------------------------------------------------------------
// Seeded 1k-worker soak under a mixed fault plan: the sharded manager must
// drive a mining-pool-scale worker set to completion (no deadlock), keep
// transient memory balanced, and produce identical verdict counts on a
// same-seed rerun.

struct SoakResult {
  std::vector<float> model;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t participated = 0;
  std::int64_t session_failures = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ckpt_current_after = 0;
};

SoakResult run_soak(std::size_t num_workers) {
  // Tiny per-worker task: the soak stresses the MANAGER (sharded
  // verification, health) — per-worker compute is minimized.
  data::SyntheticBlobConfig data_cfg;
  data_cfg.num_classes = 4;
  data_cfg.num_examples = static_cast<std::int64_t>(8 * (num_workers + 1));
  data_cfg.features = 8;
  data_cfg.class_separation = 1.5F;
  data_cfg.seed = 9001;
  const data::Dataset dataset = data::make_synthetic_blobs(data_cfg);
  const data::TrainTestSplit split =
      data::train_test_split(dataset, 0.125, 17);

  // Mixed drop/delay/corrupt pressure on every leg; modest rates so most
  // sessions survive the retry budget and the verifiers stay loaded.
  const fault::FaultPlan plan =
      fault::FaultPlan::transport(mixed_profile(0.15, 0.15, 0.05), 4242);

  ShardedPoolConfig cfg;
  cfg.base.scheme = Scheme::kRPoLv2;
  cfg.base.hp.learning_rate = 0.02F;
  cfg.base.hp.batch_size = 8;
  cfg.base.hp.steps_per_epoch = 2;
  cfg.base.hp.checkpoint_interval = 1;
  cfg.base.epochs = 2;
  cfg.base.samples_q = 1;
  cfg.base.seed = 71;
  cfg.base.fault_plan = &plan;
  cfg.base.eviction_threshold = 3;
  cfg.shards = 8;

  std::vector<WorkerSpec> workers;
  const auto devices = sim::all_devices();
  for (std::size_t w = 0; w < num_workers; ++w) {
    WorkerSpec spec;
    spec.policy = std::make_unique<HonestPolicy>();
    spec.device = devices[w % devices.size()];
    workers.push_back(std::move(spec));
  }

  SoakResult r;
  {
    ShardedPool pool(std::move(cfg), nn::mlp_factory(8, {8}, 4, 33), dataset,
                     split.test, std::move(workers));
    const PoolRunReport report = pool.run();
    for (const EpochReport& epoch : report.epochs) {
      for (const bool a : epoch.accepted) r.accepted += a ? 1 : 0;
      for (const bool p : epoch.participated) r.participated += p ? 1 : 0;
      r.rejected += epoch.rejected_count;
      r.session_failures += epoch.session_failures;
      r.bytes += epoch.bytes_this_epoch;
    }
    r.model = pool.pool().global_model();
  }
  // Pool destroyed: transient checkpoint-tag memory must balance back to
  // whatever the surrounding test process already held.
  r.ckpt_current_after = obs::mem_stats(obs::MemTag::kCheckpoint).current_bytes;
  return r;
}

TEST(ShardedPoolSoak, ThousandWorkersUnderMixedFaultsIsStableAndBounded) {
  constexpr std::size_t kSoakWorkers = 1000;
  const std::uint64_t ckpt_before =
      obs::mem_stats(obs::MemTag::kCheckpoint).current_bytes;

  const SoakResult first = run_soak(kSoakWorkers);

  // Liveness + sanity: the run completed, most workers made it through the
  // lossy transport, traffic flowed.
  EXPECT_GT(first.participated, static_cast<std::int64_t>(kSoakWorkers));
  EXPECT_GT(first.accepted, static_cast<std::int64_t>(kSoakWorkers / 2));
  EXPECT_GT(first.session_failures, 0);  // the fault plan really bit
  EXPECT_GT(first.bytes, 0U);

  // Bounded transient memory: every per-epoch checkpoint charge was
  // released when the pool died.
  EXPECT_EQ(first.ckpt_current_after, ckpt_before);

  // Same seed, same verdicts, same model — the whole soak is reproducible.
  const SoakResult second = run_soak(kSoakWorkers);
  EXPECT_EQ(first.model, second.model);
  EXPECT_EQ(first.accepted, second.accepted);
  EXPECT_EQ(first.rejected, second.rejected);
  EXPECT_EQ(first.participated, second.participated);
  EXPECT_EQ(first.session_failures, second.session_failures);
  EXPECT_EQ(first.bytes, second.bytes);
}

}  // namespace
}  // namespace rpol::core
