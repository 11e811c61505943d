// Spill-to-disk checkpoint store + streamed epoch pipeline
// (src/core/ckptstore.*): LRU eviction order, bitwise spill round-trips,
// cold reads after eviction, concurrent readers, the memory-budget
// guarantee at 10x checkpoint count, and the §6 equivalence between the
// streamed pipeline and the materialized EpochTrace path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/ckptstore.h"
#include "core/verifier.h"
#include "sim/device.h"
#include "task_fixture.h"
#include "tensor/rng.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

// A deterministic synthetic state of `floats` model + `floats`/2 optimizer
// entries (byte_size = 6 * floats).
TrainState make_state(std::uint64_t seed, std::size_t floats) {
  Rng rng(seed);
  TrainState s;
  s.model.resize(floats);
  s.optimizer.resize(floats / 2);
  for (auto& v : s.model) v = rng.next_normal();
  for (auto& v : s.optimizer) v = rng.next_normal();
  return s;
}

CkptStoreConfig budget_config(std::uint64_t bytes) {
  CkptStoreConfig cfg;
  cfg.budget_bytes = bytes;
  return cfg;
}

// ---------------------------------------------------------------------------
// CheckpointStore mechanics

TEST(CheckpointStore, SpillReloadRoundTripIsBitwise) {
  // Budget of one byte: every append immediately evicts, so each fetch is a
  // cold disk read — the round trip must still be float-for-float exact.
  CheckpointStore store(budget_config(1));
  std::vector<TrainState> reference;
  for (std::uint64_t i = 0; i < 8; ++i) {
    reference.push_back(make_state(100 + i, 64 + static_cast<std::size_t>(i)));
    store.append(reference.back());
  }
  ASSERT_EQ(store.num_checkpoints(), 8);
  for (std::int64_t i = 0; i < 8; ++i) {
    const TrainState got = store.fetch(i);
    EXPECT_EQ(got.model, reference[static_cast<std::size_t>(i)].model);
    EXPECT_EQ(got.optimizer, reference[static_cast<std::size_t>(i)].optimizer);
  }
  const CkptStoreStats stats = store.stats();
  EXPECT_EQ(stats.checkpoints, 8);
  EXPECT_GT(stats.reloads, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.spill_bytes, 0u);
}

TEST(CheckpointStore, EvictsLeastRecentlyUsedFirst) {
  const TrainState s = make_state(1, 96);  // all states the same size
  const std::uint64_t one = s.byte_size();
  CheckpointStore store(budget_config(2 * one));  // room for exactly two

  store.append(make_state(1, 96));  // index 0
  store.append(make_state(2, 96));  // index 1
  EXPECT_TRUE(store.is_hot(0));
  EXPECT_TRUE(store.is_hot(1));

  store.append(make_state(3, 96));  // index 2 -> evicts 0 (oldest)
  EXPECT_FALSE(store.is_hot(0));
  EXPECT_TRUE(store.is_hot(1));
  EXPECT_TRUE(store.is_hot(2));

  // A fetch refreshes recency: 1 becomes MRU, so the next append evicts 2.
  (void)store.fetch(1);
  store.append(make_state(4, 96));  // index 3 -> evicts 2, not 1
  EXPECT_TRUE(store.is_hot(1));
  EXPECT_FALSE(store.is_hot(2));
  EXPECT_TRUE(store.is_hot(3));
}

TEST(CheckpointStore, ColdReadRecachesEvictedCheckpoint) {
  const std::uint64_t one = make_state(1, 96).byte_size();
  CheckpointStore store(budget_config(2 * one));
  for (std::uint64_t i = 0; i < 4; ++i) store.append(make_state(10 + i, 96));
  ASSERT_FALSE(store.is_hot(0));

  const CkptStoreStats before = store.stats();
  const TrainState got = store.fetch(0);  // cold read
  EXPECT_EQ(got.model, make_state(10, 96).model);
  EXPECT_TRUE(store.is_hot(0));  // re-cached...
  const CkptStoreStats after = store.stats();
  EXPECT_EQ(after.reloads, before.reloads + 1);
  // ...at the expense of the LRU entry, so the budget still holds.
  EXPECT_LE(after.hot_bytes, 2 * one);
}

TEST(CheckpointStore, FetchOutOfRangeThrows) {
  CheckpointStore store(budget_config(1 << 20));
  store.append(make_state(5, 32));
  EXPECT_THROW(store.fetch(-1), std::out_of_range);
  EXPECT_THROW(store.fetch(1), std::out_of_range);
}

TEST(CheckpointStore, SpillFileRemovedOnDestruction) {
  std::string path;
  {
    CheckpointStore store(budget_config(1 << 20));
    store.append(make_state(7, 64));
    path = store.spill_path();
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CheckpointStore, BudgetResolvesFromEnvironment) {
  ASSERT_EQ(::setenv("RPOL_CKPT_BUDGET", "12345", 1), 0);
  EXPECT_EQ(resolve_ckpt_budget(0), 12345u);
  // An explicit config value wins over the environment.
  EXPECT_EQ(resolve_ckpt_budget(999), 999u);
  ASSERT_EQ(::unsetenv("RPOL_CKPT_BUDGET"), 0);
  EXPECT_EQ(resolve_ckpt_budget(0), 256ULL * 1024 * 1024);

  CheckpointStore store(budget_config(4096));
  EXPECT_EQ(store.stats().budget_bytes, 4096u);
}

TEST(CheckpointStore, ConcurrentReadersSeeExactStates) {
  // Budget of two states over eight: most fetches are cold reads, and four
  // threads hammer them concurrently. Every thread must observe exactly the
  // appended floats — the mutex serializes file seeks and LRU mutation.
  const std::uint64_t one = make_state(1, 128).byte_size();
  CheckpointStore store(budget_config(2 * one));
  std::vector<TrainState> reference;
  for (std::uint64_t i = 0; i < 8; ++i) {
    reference.push_back(make_state(200 + i, 128));
    store.append(reference.back());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(t + 1);
      for (int iter = 0; iter < 200; ++iter) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const auto idx = static_cast<std::int64_t>((x >> 33) % 8);
        const TrainState got = store.fetch(idx);
        if (got.model != reference[static_cast<std::size_t>(idx)].model ||
            got.optimizer !=
                reference[static_cast<std::size_t>(idx)].optimizer) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(store.stats().hot_bytes, 2 * one);
}

// ---------------------------------------------------------------------------
// The memory-budget guarantee, asserted through obs/mem.h: at 10x the
// default checkpoint count, the peak bytes tagged `ckptstore` never exceed
// max(budget, one checkpoint) even while every checkpoint is appended and a
// scattered subset fetched back.

TEST(CheckpointStore, PeakTaggedBytesStayUnderBudgetAt10xCheckpoints) {
  obs::mem_reset();
  constexpr std::size_t kFloats = 4096;      // ~24 KiB logical per state
  constexpr std::int64_t kCheckpoints = 50;  // 10x the usual 5-per-epoch
  const std::uint64_t one = make_state(1, kFloats).byte_size();
  const std::uint64_t budget = 4 * one;  // hot room for 4 of 50
  {
    CheckpointStore store(budget_config(budget));
    for (std::int64_t i = 0; i < kCheckpoints; ++i) {
      store.append(make_state(300 + static_cast<std::uint64_t>(i), kFloats));
    }
    // Sampled verification access pattern: scattered fetches, old and new.
    for (std::int64_t i = 0; i < kCheckpoints; i += 7) (void)store.fetch(i);
    (void)store.fetch(0);
    (void)store.fetch(kCheckpoints - 1);

    const CkptStoreStats stats = store.stats();
    // The logical chain is an order of magnitude over budget...
    EXPECT_EQ(store.total_bytes(), one * kCheckpoints);
    EXPECT_GT(store.total_bytes(), 10 * budget);
    // ...yet tagged residency never exceeded it.
    EXPECT_LE(stats.hot_bytes, budget);
    EXPECT_LE(obs::mem_stats(obs::MemTag::kCkptStore).peak_bytes, budget);
    EXPECT_GT(stats.evictions, 0u);
  }
  // Destruction releases the whole balance.
  EXPECT_EQ(obs::mem_stats(obs::MemTag::kCkptStore).current_bytes, 0u);
  obs::mem_reset();
}

// ---------------------------------------------------------------------------
// Streamed epoch pipeline: §6 equivalence with the materialized path.

struct StreamFixture : public ::testing::Test {
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

  // A streamed epoch and the commitment its builder sealed.
  struct Streamed {
    StreamedEpoch epoch;
    Commitment commitment;
  };

  Streamed stream(WorkerPolicy& policy, CommitmentVersion version,
                  const lsh::PStableLsh* hasher, const std::vector<bool>* mask,
                  std::uint64_t run_seed = 1, std::uint64_t budget = 1) {
    StepExecutor exec(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), run_seed);
    CommitmentBuilder builder(version, hasher, mask);
    Streamed out;
    out.epoch = run_streamed_epoch(policy, exec, context, device, builder,
                                   budget_config(budget));
    out.commitment = builder.finish();
    return out;
  }

  Streamed honest_streamed(CommitmentVersion version,
                           const lsh::PStableLsh* hasher,
                           const std::vector<bool>* mask) {
    HonestPolicy policy;
    return stream(policy, version, hasher, mask);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
};

TEST_F(StreamFixture, StreamedCommitMatchesBatchV1) {
  const EpochTrace trace = honest_trace();
  const Commitment batch = commit_v1(trace);
  // Budget 1 byte: every checkpoint round-trips through the spill file.
  const Streamed streamed =
      honest_streamed(CommitmentVersion::kV1, nullptr, nullptr);

  EXPECT_EQ(streamed.epoch.step_of, trace.step_of);
  EXPECT_EQ(streamed.epoch.mean_loss, trace.mean_loss);
  ASSERT_EQ(streamed.commitment.state_hashes.size(),
            batch.state_hashes.size());
  for (std::size_t i = 0; i < batch.state_hashes.size(); ++i) {
    EXPECT_TRUE(digest_equal(streamed.commitment.state_hashes[i],
                             batch.state_hashes[i]));
  }
  EXPECT_TRUE(digest_equal(streamed.commitment.root, batch.root));
  // Compact roots match the batch commitment's.
  const CompactCommitment tree_compact = compact_commitment(batch);
  const CompactCommitment streamed_compact =
      compact_commitment(streamed.commitment);
  EXPECT_TRUE(
      digest_equal(streamed_compact.state_root, tree_compact.state_root));
  EXPECT_EQ(streamed_compact.num_checkpoints, tree_compact.num_checkpoints);
  // The spilled states come back bitwise equal to the trace's.
  ASSERT_EQ(streamed.epoch.store->num_checkpoints(),
            static_cast<std::int64_t>(trace.checkpoints.size()));
  for (std::size_t i = 0; i < trace.checkpoints.size(); ++i) {
    const TrainState got =
        streamed.epoch.store->fetch(static_cast<std::int64_t>(i));
    EXPECT_EQ(got.model, trace.checkpoints[i].model);
    EXPECT_EQ(got.optimizer, trace.checkpoints[i].optimizer);
  }
}

TEST_F(StreamFixture, StreamedCommitMatchesBatchV2) {
  lsh::LshConfig lcfg;
  lcfg.params.r = 4.0;
  lcfg.params.k = 2;
  lcfg.params.l = 3;
  StepExecutor probe(task.factory, task.hp);
  const std::vector<bool> mask = probe.trainable_mask();
  lcfg.dim = static_cast<std::int64_t>(
      std::count(mask.begin(), mask.end(), true));
  lcfg.seed = 77;
  const lsh::PStableLsh hasher(lcfg);

  const EpochTrace trace = honest_trace();
  const Commitment batch = commit_v2(trace, hasher, &mask);
  const Streamed streamed =
      honest_streamed(CommitmentVersion::kV2, &hasher, &mask);

  EXPECT_TRUE(digest_equal(streamed.commitment.root, batch.root));
  ASSERT_EQ(streamed.commitment.lsh_digests.size(), batch.lsh_digests.size());
  for (std::size_t i = 0; i < batch.lsh_digests.size(); ++i) {
    EXPECT_TRUE(lsh::lsh_match(streamed.commitment.lsh_digests[i],
                               batch.lsh_digests[i]));
  }
  const CompactCommitment tree_compact = compact_commitment(batch);
  const CompactCommitment streamed_compact =
      compact_commitment(streamed.commitment);
  EXPECT_TRUE(
      digest_equal(streamed_compact.state_root, tree_compact.state_root));
  EXPECT_TRUE(digest_equal(streamed_compact.lsh_root, tree_compact.lsh_root));
}

TEST_F(StreamFixture, SourceVerifyMatchesTraceVerify) {
  const EpochTrace trace = honest_trace();
  const Commitment commitment = commit_v1(trace);
  const Streamed streamed =
      honest_streamed(CommitmentVersion::kV1, nullptr, nullptr);
  const Digest initial_hash = hash_state(context.initial);

  VerifierConfig vcfg;
  vcfg.samples_q = 3;
  vcfg.beta = 0.5;
  Verifier verifier(task.factory, task.hp, vcfg);

  sim::DeviceExecution dev_a(sim::device_g3090(), 1234);
  const VerifyResult via_trace = verifier.verify(
      commitment, trace, context, initial_hash, dev_a);
  sim::DeviceExecution dev_b(sim::device_g3090(), 1234);
  const VerifyResult via_source =
      verifier.verify(commitment, *streamed.epoch.store,
                      streamed.epoch.step_of, context, initial_hash, dev_b);

  EXPECT_EQ(via_trace.accepted, via_source.accepted);
  EXPECT_EQ(via_trace.failure, via_source.failure);
  EXPECT_EQ(via_trace.reexecuted_steps, via_source.reexecuted_steps);
  EXPECT_EQ(via_trace.proof_bytes, via_source.proof_bytes);
  ASSERT_EQ(via_trace.checks.size(), via_source.checks.size());
  for (std::size_t i = 0; i < via_trace.checks.size(); ++i) {
    EXPECT_EQ(via_trace.checks[i].transition, via_source.checks[i].transition);
    EXPECT_EQ(via_trace.checks[i].passed, via_source.checks[i].passed);
    EXPECT_EQ(via_trace.checks[i].distance, via_source.checks[i].distance);
  }
  EXPECT_TRUE(via_trace.accepted);
}

TEST_F(StreamFixture, DefaultStreamTraceFallbackMatchesProduceTrace) {
  // ReplayPolicy has no streaming override: the base-class fallback must
  // still deliver the same checkpoints in the same order.
  ReplayPolicy replay;
  StepExecutor exec_a(task.factory, task.hp);
  sim::DeviceExecution dev_a(sim::device_ga10(), 9);
  const EpochTrace trace = replay.produce_trace(exec_a, context, dev_a);

  const Streamed streamed = stream(replay, CommitmentVersion::kV1, nullptr,
                                  nullptr, /*run_seed=*/9);
  EXPECT_EQ(streamed.epoch.step_of, trace.step_of);
  ASSERT_EQ(streamed.epoch.store->num_checkpoints(),
            static_cast<std::int64_t>(trace.checkpoints.size()));
  for (std::size_t i = 0; i < trace.checkpoints.size(); ++i) {
    EXPECT_EQ(streamed.epoch.store->fetch(static_cast<std::int64_t>(i)).model,
              trace.checkpoints[i].model);
  }
  EXPECT_TRUE(
      digest_equal(streamed.commitment.root, commit_v1(trace).root));
}

}  // namespace
}  // namespace rpol::core
