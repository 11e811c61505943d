// Determinism regression tests for the parallel compute runtime: the
// verification protocol re-executes training and compares checkpoint
// hashes, so every kernel must produce bit-identical results for any
// RPOL_THREADS setting. These tests train the small fixture model under
// 1 and 4 threads and assert the serialized checkpoint bytes and the
// Merkle commitment digests match exactly — the end-to-end property the
// whole runtime design (output-partitioned parallel_for, fixed-order
// accumulation) exists to preserve.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/commitment.h"
#include "core/detsel.h"
#include "core/executor.h"
#include "core/sharded_pool.h"
#include "crypto/sha256.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "obs/health.h"
#include "obs/mem.h"
#include "obs/obs.h"
#include "runtime/thread_pool.h"
#include "task_fixture.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"

namespace rpol {
namespace {

// Restores the ambient thread count when a test exits.
struct ThreadGuard {
  int saved = runtime::threads();
  ~ThreadGuard() { runtime::set_threads(saved); }
};

// ---------------------------------------------------------------------------
// parallel_for semantics

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadGuard guard;
  runtime::set_threads(4);
  std::vector<std::atomic<int>> hits(103);
  runtime::parallel_for(0, 103, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, GrainForcesInlineForSmallRanges) {
  ThreadGuard guard;
  runtime::set_threads(4);
  int calls = 0;  // single fn(lo, hi) call => ran inline, no data race
  runtime::parallel_for(0, 7, 8, [&](std::int64_t lo, std::int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 7);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  int calls = 0;
  runtime::parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard;
  runtime::set_threads(4);
  std::atomic<int> total{0};
  runtime::parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      runtime::parallel_for(0, 4, 1,
                            [&](std::int64_t l2, std::int64_t h2) {
                              total += static_cast<int>(h2 - l2);
                            });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadGuard guard;
  runtime::set_threads(4);
  EXPECT_THROW(
      runtime::parallel_for(0, 64, 1,
                            [&](std::int64_t lo, std::int64_t) {
                              if (lo >= 0) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // Pool must still be functional afterwards.
  std::atomic<int> n{0};
  runtime::parallel_for(0, 16, 1, [&](std::int64_t lo, std::int64_t hi) {
    n += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(n.load(), 16);
}

TEST(ParallelFor, SetThreadsReconfiguresPool) {
  ThreadGuard guard;
  runtime::set_threads(3);
  EXPECT_EQ(runtime::threads(), 3);
  runtime::set_threads(1);
  EXPECT_EQ(runtime::threads(), 1);
  runtime::set_threads(0);  // clamped
  EXPECT_EQ(runtime::threads(), 1);
}

// ---------------------------------------------------------------------------
// Kernel bitwise determinism across thread counts

template <typename Fn>
void expect_bitwise_thread_invariant(Fn&& fn) {
  ThreadGuard guard;
  runtime::set_threads(1);
  const Tensor serial = fn();
  runtime::set_threads(4);
  const Tensor parallel = fn();
  ASSERT_EQ(serial.shape(), parallel.shape());
  EXPECT_EQ(serial.vec(), parallel.vec());  // exact float compare, on purpose
}

TEST(KernelDeterminism, MatmulVariantsAreThreadCountInvariant) {
  Rng rng(11);
  // Odd sizes exercise the row/column tail paths of the blocked kernels.
  const Tensor a = Tensor::randn({37, 53}, rng);
  const Tensor b = Tensor::randn({53, 41}, rng);
  const Tensor at = Tensor::randn({53, 37}, rng);
  const Tensor bt = Tensor::randn({41, 53}, rng);
  expect_bitwise_thread_invariant([&] { return matmul(a, b); });
  expect_bitwise_thread_invariant([&] { return matmul_tn(at, b); });
  expect_bitwise_thread_invariant([&] { return matmul_nt(a, bt); });
}

TEST(KernelDeterminism, MatmulMatchesNaiveReference) {
  Rng rng(13);
  const Tensor a = Tensor::randn({19, 23}, rng);
  const Tensor b = Tensor::randn({23, 29}, rng);
  const Tensor c = matmul(a, b);
  for (std::int64_t i = 0; i < 19; ++i) {
    for (std::int64_t j = 0; j < 29; ++j) {
      double ref = 0.0;
      for (std::int64_t kk = 0; kk < 23; ++kk) {
        ref += static_cast<double>(a.at2(i, kk)) * b.at2(kk, j);
      }
      EXPECT_NEAR(c.at2(i, j), ref, 1e-4) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(KernelDeterminism, ConvKernelsAreThreadCountInvariant) {
  Rng rng(17);
  const Conv2dSpec spec{3, 8, 3, 1, 1};
  const Tensor input = Tensor::randn({2, 3, 9, 9}, rng);
  expect_bitwise_thread_invariant([&] { return im2col(input, spec); });
  const Tensor cols = im2col(input, spec);
  expect_bitwise_thread_invariant(
      [&] { return col2im(cols, spec, input.shape()); });
  // Strided conv exercises the hoisted valid-range arithmetic.
  const Conv2dSpec strided{3, 8, 3, 2, 1};
  expect_bitwise_thread_invariant([&] { return im2col(input, strided); });
  const Tensor scols = im2col(input, strided);
  expect_bitwise_thread_invariant(
      [&] { return col2im(scols, strided, input.shape()); });
}

TEST(KernelDeterminism, SoftmaxRowsIsThreadCountInvariant) {
  Rng rng(19);
  const Tensor logits = Tensor::randn({33, 10}, rng);
  expect_bitwise_thread_invariant([&] { return softmax_rows(logits); });
}

TEST(KernelDeterminism, TrainableDistanceIsThreadCountInvariant) {
  Rng rng(23);
  std::vector<float> a(10'000), b(10'000);
  rng.fill_normal(a, 0.0F, 1.0F);
  rng.fill_normal(b, 0.0F, 1.0F);
  std::vector<bool> mask(10'000, true);
  for (std::size_t i = 0; i < mask.size(); i += 7) mask[i] = false;
  ThreadGuard guard;
  runtime::set_threads(1);
  const double d1 = core::trainable_distance(a, b, mask);
  runtime::set_threads(4);
  const double d4 = core::trainable_distance(a, b, mask);
  EXPECT_EQ(d1, d4);  // exact double compare, on purpose
}

// ---------------------------------------------------------------------------
// End-to-end: checkpoint bytes and commitment digests across thread counts

struct TrainRun {
  std::vector<Bytes> checkpoint_bytes;
  core::Commitment commitment;
  Digest merkle_root{};
};

TrainRun train_fixture_model(int threads) {
  ThreadGuard guard;
  runtime::set_threads(threads);

  data::SyntheticImageConfig data_cfg;
  data_cfg.num_examples = 64;
  data_cfg.image_size = 8;
  data_cfg.seed = 3;
  const data::Dataset dataset = data::make_synthetic_images(data_cfg);
  const data::DatasetView view = data::DatasetView::whole(dataset);

  nn::ModelConfig mc;
  mc.image_size = 8;
  mc.width = 4;
  mc.num_classes = 10;
  core::Hyperparams hp;
  hp.batch_size = 8;
  hp.steps_per_epoch = 4;
  hp.checkpoint_interval = 2;

  core::StepExecutor executor(nn::mini_resnet18_factory(mc, 1), hp);
  const core::DeterministicSelector selector(42);

  core::EpochTrace trace;
  trace.step_of = hp.checkpoint_boundaries();
  trace.checkpoints.push_back(executor.save_state());
  for (std::size_t t = 0; t + 1 < trace.step_of.size(); ++t) {
    const std::int64_t first = trace.step_of[t];
    const std::int64_t count = trace.step_of[t + 1] - first;
    executor.run_steps(first, count, view, selector, nullptr);
    trace.checkpoints.push_back(executor.save_state());
  }

  TrainRun run;
  for (const core::TrainState& s : trace.checkpoints) {
    run.checkpoint_bytes.push_back(core::serialize_state(s));
  }
  run.commitment = core::commit_v1(trace);
  run.merkle_root = core::compact_commitment(run.commitment).state_root;
  return run;
}

TEST(TrainingDeterminism, CheckpointBytesAndDigestsMatchAcrossThreadCounts) {
  const TrainRun serial = train_fixture_model(1);
  const TrainRun parallel = train_fixture_model(4);

  ASSERT_EQ(serial.checkpoint_bytes.size(), parallel.checkpoint_bytes.size());
  ASSERT_GE(serial.checkpoint_bytes.size(), 3U);  // initial + 2 transitions
  for (std::size_t i = 0; i < serial.checkpoint_bytes.size(); ++i) {
    EXPECT_EQ(serial.checkpoint_bytes[i], parallel.checkpoint_bytes[i])
        << "checkpoint " << i << " bytes differ across thread counts";
  }
  ASSERT_EQ(serial.commitment.state_hashes.size(),
            parallel.commitment.state_hashes.size());
  for (std::size_t i = 0; i < serial.commitment.state_hashes.size(); ++i) {
    EXPECT_TRUE(digest_equal(serial.commitment.state_hashes[i],
                             parallel.commitment.state_hashes[i]))
        << "checkpoint " << i << " digest differs across thread counts";
  }
  EXPECT_TRUE(digest_equal(serial.commitment.root, parallel.commitment.root));
  EXPECT_TRUE(digest_equal(serial.merkle_root, parallel.merkle_root));
}

// SHA-256 over every checkpoint's canonical bytes, in order, then the
// commitment root: one digest for a whole training run.
std::string train_run_digest_hex(const TrainRun& run) {
  Sha256 h;
  for (const Bytes& bytes : run.checkpoint_bytes) h.update(bytes);
  h.update(run.commitment.root.data(), run.commitment.root.size());
  return digest_to_hex(h.finish());
}

// Pins the conv model's trained bits to im2col + GEMM semantics. The
// constants were recorded while nn::Conv2d and nn::Linear still carried a
// second path behind the RPOL_DIRECT_CONV switch: the digests were the same
// with it unset (blocked kernels) and set to 0 (im2col + GEMM for every
// conv, unpacked matmul_nt for every linear layer). A kernel change that
// moves a single bit of a MiniResNet18 checkpoint fails here.
TEST(TrainingDeterminism, ConvTrainingGolden) {
  constexpr const char* kRunDigest =
      "c39196d7cf079c2e77e88877a5b826dba08b6d097650b01ec25dbf5377dfc54b";
  constexpr const char* kCommitmentRoot =
      "66aa5e5c89577ed733f851fe05fb612a50e80b0ba24abb6297601c748a5a6b11";
  for (const int threads : {1, 4}) {
    const TrainRun run = train_fixture_model(threads);
    EXPECT_EQ(train_run_digest_hex(run), kRunDigest) << threads << " threads";
    EXPECT_EQ(digest_to_hex(run.commitment.root), kCommitmentRoot)
        << threads << " threads";
  }
}

// A verifier running with a different thread count than the worker must
// still reproduce the exact checkpoint: replay transition 1 from C_1 under
// 4 threads and compare against the committed C_2 digest from a 1-thread
// worker. This is the protocol-level consequence of the kernel guarantees.
TEST(TrainingDeterminism, ParallelVerifierReproducesSerialWorkerCheckpoint) {
  const TrainRun worker = train_fixture_model(1);

  ThreadGuard guard;
  runtime::set_threads(4);
  data::SyntheticImageConfig data_cfg;
  data_cfg.num_examples = 64;
  data_cfg.image_size = 8;
  data_cfg.seed = 3;
  const data::Dataset dataset = data::make_synthetic_images(data_cfg);
  const data::DatasetView view = data::DatasetView::whole(dataset);
  nn::ModelConfig mc;
  mc.image_size = 8;
  mc.width = 4;
  mc.num_classes = 10;
  core::Hyperparams hp;
  hp.batch_size = 8;
  hp.steps_per_epoch = 4;
  hp.checkpoint_interval = 2;
  core::StepExecutor executor(nn::mini_resnet18_factory(mc, 1), hp);
  const core::DeterministicSelector selector(42);

  // Re-execute the first transition from the serialized initial state.
  std::size_t offset = 0;
  core::TrainState initial;
  initial.model = deserialize_floats(worker.checkpoint_bytes[0], offset);
  initial.optimizer = deserialize_floats(worker.checkpoint_bytes[0], offset);
  executor.load_state(initial);
  executor.run_steps(0, 2, view, selector, nullptr);
  const Bytes replayed = core::serialize_state(executor.save_state());
  EXPECT_EQ(replayed, worker.checkpoint_bytes[1]);
}

// The parallel commitment pipeline (pooled leaf hashing, parallel Merkle
// levels, memoized CommitmentIndex) must be bitwise invariant across thread
// counts: same state hashes, LSH digests, roots, compact roots, and
// transition-proof bytes at RPOL_THREADS=1 and 4.
TEST(TrainingDeterminism, CommitmentPipelineIsThreadCountInvariant) {
  core::EpochTrace trace;
  Rng rng(29);
  for (int i = 0; i < 9; ++i) {  // odd count: self-pairing on several levels
    core::TrainState s;
    s.model.resize(1024);
    s.optimizer.resize(512);
    rng.fill_normal(s.model, 0.0F, 1.0F);
    rng.fill_normal(s.optimizer, 0.0F, 1.0F);
    trace.checkpoints.push_back(std::move(s));
    trace.step_of.push_back(i);
  }
  const lsh::PStableLsh hasher(lsh::LshConfig{{1.0, 2, 3}, 1024, 31});

  auto run = [&](int threads) {
    ThreadGuard guard;
    runtime::set_threads(threads);
    struct Result {
      core::Commitment commitment;
      core::CompactCommitment compact;
      std::vector<Bytes> proof_paths;
    };
    Result r;
    r.commitment = core::commit_v2(trace, hasher);
    const core::CommitmentIndex index(r.commitment);
    r.compact = index.compact();
    for (std::int64_t j = 0; j < trace.num_transitions(); ++j) {
      const core::TransitionProof p = index.prove_transition(j);
      Bytes path;
      for (const Digest& d : p.in_membership.siblings)
        path.insert(path.end(), d.begin(), d.end());
      for (const Digest& d : p.out_membership.siblings)
        path.insert(path.end(), d.begin(), d.end());
      for (const Digest& d : p.out_lsh_membership.siblings)
        path.insert(path.end(), d.begin(), d.end());
      r.proof_paths.push_back(std::move(path));
    }
    return r;
  };

  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.commitment.state_hashes.size(),
            parallel.commitment.state_hashes.size());
  for (std::size_t i = 0; i < serial.commitment.state_hashes.size(); ++i) {
    EXPECT_TRUE(digest_equal(serial.commitment.state_hashes[i],
                             parallel.commitment.state_hashes[i]));
    EXPECT_TRUE(serial.commitment.lsh_digests[i] ==
                parallel.commitment.lsh_digests[i]);
  }
  EXPECT_TRUE(digest_equal(serial.commitment.root, parallel.commitment.root));
  EXPECT_TRUE(
      digest_equal(serial.compact.state_root, parallel.compact.state_root));
  EXPECT_TRUE(digest_equal(serial.compact.lsh_root, parallel.compact.lsh_root));
  EXPECT_EQ(serial.proof_paths, parallel.proof_paths);
}

// The observability layer (src/obs) must be strictly write-only: enabling
// tracing may record spans and histograms but can never change a single
// training bit. Train the fixture untraced and traced and require the
// checkpoint bytes and Merkle commitment roots to be bitwise identical —
// the tentpole guarantee that RPOL_TRACE=1 runs stay verifiable against
// untraced workers.
TEST(TrainingDeterminism, TracedRunIsBitwiseIdenticalToUntraced) {
  obs::set_enabled(false);
  obs::Registry::instance().reset();
  const TrainRun untraced = train_fixture_model(4);
  EXPECT_EQ(obs::Registry::instance().span_count(), 0U);

  obs::set_enabled(true);
  obs::Registry::instance().reset();
  const TrainRun traced = train_fixture_model(4);
  // Tracing must have actually observed the run (kernel sampling is 1-in-8,
  // and a training step issues far more than 8 kernel calls)...
  EXPECT_GT(obs::counter("runtime.parallel_for.calls").value(), 0U);
  EXPECT_GT(obs::histogram("kernel.matmul_ns").count() +
                obs::histogram("kernel.matmul_tn_ns").count() +
                obs::histogram("kernel.matmul_nt_ns").count(),
            0U);
  obs::set_enabled(false);
  obs::Registry::instance().reset();

  // ...without perturbing one byte of protocol state.
  ASSERT_EQ(untraced.checkpoint_bytes.size(), traced.checkpoint_bytes.size());
  for (std::size_t i = 0; i < untraced.checkpoint_bytes.size(); ++i) {
    EXPECT_EQ(untraced.checkpoint_bytes[i], traced.checkpoint_bytes[i])
        << "checkpoint " << i << " bytes differ between traced and untraced";
  }
  EXPECT_TRUE(digest_equal(untraced.commitment.root, traced.commitment.root));
  EXPECT_TRUE(digest_equal(untraced.merkle_root, traced.merkle_root));
}

// The same guarantee through the FULL protocol stack: a pool run with
// tracing on exercises causal propagation end to end — epoch root spans,
// and re-execution spans that adopt the verify phase's context as a remote
// parent — and must still produce bit-identical protocol results. If trace
// state leaked into any commitment, digest, or decode, the global models
// would diverge.
TEST(TrainingDeterminism, TracedPoolRunWithPropagationIsBitwiseIdentical) {
  auto run_pool = [](bool traced) {
    obs::set_enabled(traced);
    obs::Registry::instance().reset();
    const testing::TinyTask task = testing::TinyTask::make(61, 10, 3);
    const data::TrainTestSplit split =
        data::train_test_split(task.dataset, 0.25, 17);
    core::PoolConfig cfg;
    cfg.hp = task.hp;
    cfg.epochs = 2;
    cfg.samples_q = 3;
    cfg.seed = 71;
    std::vector<core::WorkerSpec> workers;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < 3; ++w) {
      core::WorkerSpec spec;
      spec.policy = std::make_unique<core::HonestPolicy>();
      spec.device = devices[w % devices.size()];
      workers.push_back(std::move(spec));
    }
    core::ShardedPool pool({cfg}, task.factory, task.dataset, split.test,
                           std::move(workers));
    const core::PoolRunReport report = pool.run();

    struct Result {
      std::vector<float> model;
      double final_accuracy = 0.0;
      std::uint64_t total_bytes = 0;
      std::size_t spans = 0;
      bool propagated = false;  // any span joined a tree via a remote link
    };
    Result r;
    r.model = pool.pool().global_model();
    r.final_accuracy = report.final_accuracy;
    r.total_bytes = report.total_bytes;
    r.spans = obs::Registry::instance().span_count();
    for (const obs::SpanRecord& s : obs::Registry::instance().spans()) {
      if (s.link != 0) r.propagated = true;
    }
    obs::set_enabled(false);
    obs::Registry::instance().reset();
    return r;
  };

  const auto untraced = run_pool(false);
  const auto traced = run_pool(true);

  // The traced run really propagated contexts across agents...
  EXPECT_EQ(untraced.spans, 0U);
  EXPECT_GT(traced.spans, 0U);
  EXPECT_TRUE(traced.propagated);
  // ...and not one protocol byte moved: same model floats, same accuracy,
  // same WAN byte accounting (trace contexts never enter it).
  EXPECT_EQ(untraced.model, traced.model);
  EXPECT_EQ(untraced.final_accuracy, traced.final_accuracy);
  EXPECT_EQ(untraced.total_bytes, traced.total_bytes);
}

// Health scoring and memory accounting are part of the same write-only
// contract: a pool run with tracing enabled, a live background RssSampler,
// and the health registry folding in wall-clock latencies must produce the
// exact global model, accuracy, eviction set, and Merkle-relevant bytes of
// a run with all of it off. Latency and retransmission facts may only ever
// reach the SCORE — never the eviction decision or a hash (DESIGN.md §7).
TEST(TrainingDeterminism, HealthScoredPoolRunIsBitwiseIdentical) {
  auto run_pool = [](bool observed) {
    obs::set_enabled(observed);
    obs::Registry::instance().reset();
    obs::mem_reset();
    std::optional<obs::RssSampler> rss;
    if (observed) rss.emplace(std::chrono::milliseconds(1));

    const testing::TinyTask task = testing::TinyTask::make(61, 10, 3);
    const data::TrainTestSplit split =
        data::train_test_split(task.dataset, 0.25, 17);
    core::PoolConfig cfg;
    cfg.hp = task.hp;
    cfg.epochs = 3;
    cfg.samples_q = 3;
    cfg.seed = 71;
    cfg.eviction_threshold = 2;
    std::vector<core::WorkerSpec> workers;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < 3; ++w) {
      core::WorkerSpec spec;
      // One replay adversary: makes the health registry take real eviction
      // decisions in both runs, so the comparison covers the decision path.
      spec.policy =
          w == 0 ? std::unique_ptr<core::WorkerPolicy>(
                       std::make_unique<core::ReplayPolicy>())
                 : std::unique_ptr<core::WorkerPolicy>(
                       std::make_unique<core::HonestPolicy>());
      spec.device = devices[w % devices.size()];
      workers.push_back(std::move(spec));
    }
    core::ShardedPool pool({cfg}, task.factory, task.dataset, split.test,
                           std::move(workers));
    const core::PoolRunReport report = pool.run();

    struct Result {
      std::vector<float> model;
      double final_accuracy = 0.0;
      std::uint64_t total_bytes = 0;
      std::vector<bool> evicted;
      std::vector<double> scores;
      std::uint64_t tagged_bytes = 0;
      bool rss_sampled = false;
    };
    Result r;
    r.model = pool.pool().global_model();
    r.final_accuracy = report.final_accuracy;
    r.total_bytes = report.total_bytes;
    for (std::size_t w = 0; w < 3; ++w) {
      r.evicted.push_back(pool.pool().health().evicted(w));
      r.scores.push_back(pool.pool().health().score(w));
    }
    r.tagged_bytes = obs::mem_stats(obs::MemTag::kCheckpoint).total_bytes;
    if (rss.has_value()) {
      rss->stop();
      r.rss_sampled = rss->summary().valid && rss->summary().samples > 0;
    }
    obs::set_enabled(false);
    obs::Registry::instance().reset();
    obs::mem_reset();
    return r;
  };

  const auto plain = run_pool(false);
  const auto observed = run_pool(true);

  // The observed run really observed: memory was tagged and RSS sampled...
  EXPECT_GT(observed.tagged_bytes, 0U);
#ifdef __linux__
  EXPECT_TRUE(observed.rss_sampled);
#endif
  // ...while the protocol results stayed bitwise identical, including the
  // eviction decisions the health registry now owns.
  EXPECT_EQ(plain.model, observed.model);
  EXPECT_EQ(plain.final_accuracy, observed.final_accuracy);
  EXPECT_EQ(plain.total_bytes, observed.total_bytes);
  EXPECT_EQ(plain.evicted, observed.evicted);
  // The adversary was actually evicted (both runs agree on it).
  EXPECT_TRUE(plain.evicted[0]);
  EXPECT_FALSE(plain.evicted[1]);
  // Scores come from the same protocol facts; latency differs run to run
  // but only moves the 10-point latency-stability term, so both runs agree
  // on the ordering: adversary pinned at 0, honest workers far above.
  EXPECT_EQ(observed.scores[0], 0.0);
  EXPECT_GT(observed.scores[1], 50.0);
  EXPECT_GT(observed.scores[2], 50.0);
}

// Bounded-memory epochs are the final piece of the write-only contract: a
// streaming pool run — checkpoints hashed into CommitmentBuilders as they
// are produced and spilled to disk under a hot-cache budget smaller than
// one worker's trace, verification fetching sampled states back through the
// stores, all under a live RssSampler — must be bitwise identical to the
// materialize-everything path: same global model floats, same accuracy,
// same verdicts and evictions, same WAN bytes. And it must hold at 1 and 4
// intra-op threads and at 1 and 3 manager shards (§6: thread- and
// shard-count invariance compose with streaming; at 3 shards every worker's
// store spills from its own shard thread), for list and for compact
// commitments (both of verify_worker's calls).
TEST(TrainingDeterminism, StreamedPoolRunIsBitwiseIdentical) {
  auto run_pool = [](bool streaming, int threads, bool compact, int shards) {
    const ThreadGuard guard;
    runtime::set_threads(threads);
    obs::set_enabled(true);
    obs::Registry::instance().reset();
    obs::mem_reset();
    obs::RssSampler rss{std::chrono::milliseconds(1)};

    const testing::TinyTask task = testing::TinyTask::make(61, 10, 3);
    const data::TrainTestSplit split =
        data::train_test_split(task.dataset, 0.25, 17);
    core::ShardedPoolConfig cfg;
    cfg.base.scheme = core::Scheme::kRPoLv2;
    cfg.base.hp = task.hp;
    cfg.base.epochs = 3;
    cfg.base.samples_q = 3;
    cfg.base.seed = 71;
    cfg.base.eviction_threshold = 2;
    cfg.base.compact_commitments = compact;
    cfg.base.streaming = streaming;
    // Small enough that eviction/spill actually happens every epoch (a
    // TinyTask checkpoint serializes to ~3 KiB; 5 checkpoints per trace).
    cfg.base.ckpt_budget_bytes = streaming ? 8 * 1024 : 0;
    cfg.shards = shards;
    std::vector<core::WorkerSpec> workers;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < 3; ++w) {
      core::WorkerSpec spec;
      // One replay adversary so the comparison covers real verdict and
      // eviction decisions, and the base-policy streaming fallback.
      spec.policy =
          w == 0 ? std::unique_ptr<core::WorkerPolicy>(
                       std::make_unique<core::ReplayPolicy>())
                 : std::unique_ptr<core::WorkerPolicy>(
                       std::make_unique<core::HonestPolicy>());
      spec.device = devices[w % devices.size()];
      workers.push_back(std::move(spec));
    }
    core::ShardedPool pool(std::move(cfg), task.factory, task.dataset,
                           split.test, std::move(workers));
    const core::PoolRunReport report = pool.run();

    struct Result {
      std::vector<float> model;
      double final_accuracy = 0.0;
      std::uint64_t total_bytes = 0;
      std::vector<bool> evicted;
      std::vector<std::vector<bool>> accepted;  // per epoch
      std::vector<double> epoch_accuracy;
      std::uint64_t ckpt_peak_bytes = 0;
      std::uint64_t ckpt_total_bytes = 0;
      bool rss_sampled = false;
    };
    Result r;
    r.model = pool.pool().global_model();
    r.final_accuracy = report.final_accuracy;
    r.total_bytes = report.total_bytes;
    for (std::size_t w = 0; w < 3; ++w) {
      r.evicted.push_back(pool.pool().health().evicted(w));
    }
    for (const auto& epoch : report.epochs) {
      r.accepted.push_back(epoch.accepted);
      r.epoch_accuracy.push_back(epoch.test_accuracy);
    }
    r.ckpt_peak_bytes = obs::mem_stats(obs::MemTag::kCkptStore).peak_bytes;
    r.ckpt_total_bytes = obs::mem_stats(obs::MemTag::kCkptStore).total_bytes;
    rss.stop();
    r.rss_sampled = rss.summary().valid && rss.summary().samples > 0;
    obs::set_enabled(false);
    obs::Registry::instance().reset();
    obs::mem_reset();
    return r;
  };

  const auto expect_same = [](const auto& a, const auto& b) {
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.final_accuracy, b.final_accuracy);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.evicted, b.evicted);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.epoch_accuracy, b.epoch_accuracy);
  };
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact commitments" : "list commitments");
    const auto reference = run_pool(false, 1, compact, 1);
    for (const int shards : {1, 3}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        const auto memory = run_pool(false, threads, compact, shards);
        const auto streamed = run_pool(true, threads, compact, shards);

        // The streamed run really streamed: hot checkpoint bytes were
        // charged to the ckptstore tag and pinned under the configured
        // budget — per worker store, so the global tag peaks at most at
        // workers x budget (the single-store bound is
        // tests/core_ckptstore_test.cpp's job) — while the in-memory run
        // never touched the tag.
        EXPECT_GT(streamed.ckpt_total_bytes, 0U);
        EXPECT_LE(streamed.ckpt_peak_bytes, 3U * 8U * 1024U);
        EXPECT_EQ(memory.ckpt_total_bytes, 0U);
#ifdef __linux__
        EXPECT_TRUE(streamed.rss_sampled);
#endif

        // Bitwise equivalence: the whole in-memory/streamed x threads x
        // shards grid collapses to one result.
        expect_same(reference, memory);
        expect_same(reference, streamed);
      }
    }

    // The adversary was rejected and evicted in every configuration.
    EXPECT_TRUE(reference.evicted[0]);
    EXPECT_FALSE(reference.evicted[1]);
    ASSERT_FALSE(reference.accepted.empty());
    EXPECT_FALSE(reference.accepted[0][0]);
    EXPECT_TRUE(reference.accepted[0][1]);
  }
}

// ---------------------------------------------------------------------------
// Pool golden (core/sharded_pool.h): the §6 contract for the pool's one epoch
// loop. Every per-worker decision input (injector stream, device seed,
// nonce, verifier samples) is derived from (epoch, GLOBAL worker index) and
// all cross-worker mutation is merged in worker order by finish_epoch — so a
// run must reproduce the same digest at ANY shard count and at any thread
// count. Faults and an adversary are on so the digest covers real
// verdicts, retries, and evictions, not just the happy path.

// Order-sensitive digest of a pool run: the final global model's bytes;
// each epoch's accepted, participated, status and test_accuracy bits; then
// the run's WAN bytes, session failures and retransmissions.
std::string pool_run_hex(const core::PoolRunReport& report,
                         const std::vector<float>& model) {
  Bytes t;
  for (const float v : model) append_f32(t, v);
  for (const core::EpochReport& epoch : report.epochs) {
    for (const bool a : epoch.accepted) t.push_back(a ? 1 : 0);
    for (const bool p : epoch.participated) t.push_back(p ? 1 : 0);
    for (const core::SessionStatus s : epoch.status) {
      append_i64(t, static_cast<std::int64_t>(s));
    }
    std::uint64_t bits = 0;
    std::memcpy(&bits, &epoch.test_accuracy, sizeof bits);
    append_u64(t, bits);
  }
  append_u64(t, report.total_bytes);
  append_i64(t, report.total_session_failures);
  append_i64(t, report.total_retransmissions);
  return digest_to_hex(sha256(t));
}

// Recorded through the sequential epoch loop that ShardedPool replaced, at
// one shard; the four-shard runs below reproduced it then too.
constexpr const char* kPoolGoldenHex =
    "523effc5e8f5fe1a52a49f8716b784faf7dfc1b4201fe201ffbbeb60b4dab94d";

TEST(TrainingDeterminism, ShardedPoolMatchesGoldenAtAnyShardCount) {
  struct Result {
    std::string hex;
    std::vector<bool> evicted;
    bool first_accepted = true;  // worker 0 (the adversary), epoch 0
  };
  const fault::FaultPlan plan = [] {
    fault::FaultProfile p;
    p.drop = 0.2;
    p.delay = 0.1;
    p.corrupt = 0.05;
    return fault::FaultPlan::transport(p, 515);
  }();
  auto run_sharded = [&](int shards, int threads) {
    const ThreadGuard guard;
    runtime::set_threads(threads);
    const testing::TinyTask task = testing::TinyTask::make(61, 10, 3);
    const data::TrainTestSplit split =
        data::train_test_split(task.dataset, 0.25, 17);
    core::ShardedPoolConfig cfg;
    cfg.base.scheme = core::Scheme::kRPoLv2;
    cfg.base.hp = task.hp;
    cfg.base.epochs = 3;
    cfg.base.samples_q = 3;
    cfg.base.seed = 71;
    cfg.base.eviction_threshold = 2;
    cfg.base.fault_plan = &plan;
    cfg.shards = shards;
    std::vector<core::WorkerSpec> workers;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < 5; ++w) {
      core::WorkerSpec spec;
      spec.policy = w == 0 ? std::unique_ptr<core::WorkerPolicy>(
                                 std::make_unique<core::ReplayPolicy>())
                           : std::unique_ptr<core::WorkerPolicy>(
                                 std::make_unique<core::HonestPolicy>());
      spec.device = devices[w % devices.size()];
      workers.push_back(std::move(spec));
    }
    core::ShardedPool pool(std::move(cfg), task.factory, task.dataset,
                           split.test, std::move(workers));
    const core::PoolRunReport report = pool.run();
    Result r;
    r.hex = pool_run_hex(report, pool.pool().global_model());
    for (std::size_t w = 0; w < 5; ++w) {
      r.evicted.push_back(pool.pool().health().evicted(w));
    }
    if (!report.epochs.empty()) r.first_accepted = report.epochs[0].accepted[0];
    return r;
  };

  const Result one_shard = run_sharded(1, 1);
  const Result four_1t = run_sharded(4, 1);
  const Result four_4t = run_sharded(4, 4);

  // One shard reproduces the recorded run bit for bit; four shards
  // re-schedule it without moving a byte, whatever the thread count.
  for (const Result* r : {&one_shard, &four_1t, &four_4t}) {
    EXPECT_EQ(r->hex, kPoolGoldenHex);
    EXPECT_EQ(r->evicted, one_shard.evicted);
  }
  // The digest covers real decisions: the replay adversary was rejected and
  // eventually evicted.
  EXPECT_TRUE(one_shard.evicted[0]);
  EXPECT_FALSE(one_shard.first_accepted);
}

}  // namespace
}  // namespace rpol
