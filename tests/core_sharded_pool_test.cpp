// The pool's epoch loop (core/sharded_pool.h): shard partitioning and
// resolution, admission control (bounded queues, requeue vs reject
// overflow), health interaction (shedding is never a strike), and a seeded
// 1k-worker soak under a mixed drop/delay/corrupt fault plan. The pool
// golden, reproduced at several shard and thread counts, lives in
// tests/runtime_determinism_test.cpp; this file covers the sharded layer's
// own semantics.

#include <gtest/gtest.h>

#include <algorithm>
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
// Admission control

TEST_F(ShardedFixture, UnboundedQueueAdmitsEveryoneWithoutRequeues) {
  ShardedPool pool = make_pool(config(2, /*epochs=*/1));
  const EpochReport epoch = pool.run_epoch(0);
  EXPECT_EQ(epoch.admission_enqueued, static_cast<std::int64_t>(kWorkers));
  EXPECT_EQ(epoch.admission_requeued, 0);
  EXPECT_EQ(epoch.admission_rejected, 0);
  // Lockstep arrival burst: the queue peaks at the largest shard's size.
  EXPECT_EQ(epoch.max_queue_depth, 2);
  EXPECT_EQ(epoch.rejected_count, 0);
  for (const SessionStatus s : epoch.status) {
    EXPECT_EQ(s, SessionStatus::kAccepted);
  }
}

TEST_F(ShardedFixture, RequeuePolicyIsLosslessAndBitwiseEqualToUnbounded) {
  const EpochReport unbounded = make_pool(config(2, 1)).run_epoch(0);

  ShardedPoolConfig tight = config(2, 1);
  tight.queue_capacity = 1;  // every shard holds 2 workers: 1 must wait
  tight.overflow = AdmissionPolicy::kRequeue;
  ShardedPool pool = make_pool(std::move(tight));
  const EpochReport epoch = pool.run_epoch(0);

  // The pressure is visible in the admission counters: per shard, one
  // worker fits the capacity-1 queue at the burst and one waits in the
  // backlog, re-entering (a second enqueue) once the first verifies.
  EXPECT_EQ(epoch.admission_requeued, 2);
  EXPECT_EQ(epoch.admission_enqueued, 4);
  EXPECT_EQ(epoch.admission_rejected, 0);
  EXPECT_EQ(epoch.max_queue_depth, 1);  // the bound held
  // ...and absolutely nowhere else: verdicts, statuses, traffic, and the
  // model are bitwise those of the unbounded run.
  EXPECT_EQ(epoch.accepted, unbounded.accepted);
  EXPECT_EQ(epoch.status, unbounded.status);
  EXPECT_EQ(epoch.rejected_count, unbounded.rejected_count);
  EXPECT_EQ(epoch.bytes_this_epoch, unbounded.bytes_this_epoch);
  EXPECT_EQ(epoch.test_accuracy, unbounded.test_accuracy);
}

TEST_F(ShardedFixture, RejectPolicyShedsWithoutHealthStrikes) {
  ShardedPoolConfig cfg = config(2, /*epochs=*/4);
  cfg.base.eviction_threshold = 3;
  cfg.queue_capacity = 1;
  cfg.overflow = AdmissionPolicy::kReject;
  ShardedPool pool = make_pool(std::move(cfg));
  const PoolRunReport report = pool.run();

  for (const EpochReport& epoch : report.epochs) {
    // Shards are [0,2) and [2,4): workers 1 and 3 arrive at a full queue.
    EXPECT_EQ(epoch.admission_rejected, 2);
    EXPECT_EQ(epoch.admission_requeued, 0);
    EXPECT_EQ(epoch.status[0], SessionStatus::kAccepted);
    EXPECT_EQ(epoch.status[1], SessionStatus::kAdmissionRejected);
    EXPECT_EQ(epoch.status[2], SessionStatus::kAccepted);
    EXPECT_EQ(epoch.status[3], SessionStatus::kAdmissionRejected);
    // Shed submissions are excluded from aggregation...
    EXPECT_FALSE(epoch.accepted[1]);
    EXPECT_FALSE(epoch.accepted[3]);
    // ...but are NOT verdict rejections.
    EXPECT_EQ(epoch.rejected_count, 0);
  }
  // Four consecutive epochs of shedding (> eviction_threshold) and the shed
  // workers' health records never moved: manager overload is not worker
  // misbehavior.
  EXPECT_FALSE(pool.pool().worker_evicted(1));
  EXPECT_FALSE(pool.pool().worker_evicted(3));
  EXPECT_EQ(pool.pool().health().consecutive_failures(1), 0);
  EXPECT_EQ(pool.pool().health().consecutive_failures(3), 0);
}

// ---------------------------------------------------------------------------
// Seeded 1k-worker soak under a mixed fault plan (ISSUE 10 satellite): the
// sharded manager must drive a mining-pool-scale worker set to completion
// (no deadlock), keep every shard queue inside its bound, keep transient
// memory balanced, and produce identical verdict counts on a same-seed rerun.

struct SoakResult {
  std::vector<float> model;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t participated = 0;
  std::int64_t session_failures = 0;
  std::int64_t requeued = 0;
  std::int64_t max_depth = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ckpt_current_after = 0;
};

SoakResult run_soak(std::size_t num_workers) {
  // Tiny per-worker task: the soak stresses the MANAGER (admission,
  // sharded verification, health) — per-worker compute is minimized.
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
  cfg.queue_capacity = 64;
  cfg.overflow = AdmissionPolicy::kRequeue;

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
      r.requeued += epoch.admission_requeued;
      r.max_depth = std::max(r.max_depth, epoch.max_queue_depth);
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

  // Bounded queues: 1000 workers over 8 shards is 125 per burst, well over
  // the capacity of 64 — the backlog engaged, and the bound held anyway.
  EXPECT_GT(first.requeued, 0);
  EXPECT_LE(first.max_depth, 64);

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
  EXPECT_EQ(first.requeued, second.requeued);
  EXPECT_EQ(first.bytes, second.bytes);
}

}  // namespace
}  // namespace rpol::core
