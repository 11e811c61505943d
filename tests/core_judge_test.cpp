// The transition judge under hostile input: an all-NaN checkpoint chain,
// checkpoints of the wrong size, a commitment of the wrong version or chain
// length, and the judge's rule itself called directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "core/session.h"
#include "obs/obs.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

// Free rider: keeps C_0 honest, sets every weight of C_1..C_T to NaN and
// commits correctly to those states. A replay from a NaN C_j is NaN, and
// before the judge checked finiteness its LSH digest matched the worker's
// own NaN digests.
class NanPolicy : public WorkerPolicy {
 public:
  std::string name() const override { return "nan_free_rider"; }
  EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                           sim::DeviceExecution&) override {
    EpochTrace trace;
    trace.step_of = executor.hyperparams().checkpoint_boundaries();
    for (std::size_t i = 0; i < trace.step_of.size(); ++i) {
      TrainState state = context.initial;
      if (i > 0) {
        std::fill(state.model.begin(), state.model.end(),
                  std::numeric_limits<float>::quiet_NaN());
      }
      trace.checkpoints.push_back(std::move(state));
    }
    return trace;
  }
  double honesty_ratio() const override { return 0.0; }
};

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

constexpr double kBeta = 2e-3;
constexpr std::uint64_t kSamplingSeeds = 40;

// The rejection counters a traced run raises: `verify.reject` and
// `verify.reject.malformed`.
struct RejectCounts {
  std::uint64_t rejects = 0;
  std::uint64_t malformed = 0;

  static RejectCounts read() {
    return {obs::counter("verify.reject").value(),
            obs::counter("verify.reject.malformed").value()};
  }
};

struct JudgeFixture : public ::testing::Test {
  void SetUp() override {
    task = TinyTask::make(/*seed=*/131, /*steps=*/12, /*interval=*/3);
    view = data::DatasetView::whole(task.dataset);
    context = task.context(/*nonce=*/505, view);
    StepExecutor probe(task.factory, task.hp);
    mask = probe.trainable_mask();
    lsh_config.params = lsh::optimize_lsh(kBeta / 5.0, kBeta, 16).params;
    lsh_config.dim = static_cast<std::int64_t>(
        extract_trainable(context.initial.model, mask).size());
    lsh_config.seed = 44;
    family.emplace(lsh_config);
  }

  EpochTrace produce(WorkerPolicy& policy) const {
    StepExecutor exec(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), 3);
    return policy.produce_trace(exec, context, device);
  }

  // An RPoLv2 verifier borrows `family`, the one the commitments use.
  Verifier verifier(bool use_lsh, std::uint64_t sampling_seed) const {
    VerifierConfig cfg;
    cfg.samples_q = 2;
    cfg.beta = kBeta;
    cfg.sampling_seed = sampling_seed;
    if (use_lsh) cfg.lsh_family = &*family;
    return Verifier(task.factory, task.hp, cfg);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
  std::vector<bool> mask;
  lsh::LshConfig lsh_config;
  std::optional<lsh::PStableLsh> family;  // built from lsh_config
};

// ---------------------------------------------------------------------------
// The all-NaN free rider.

TEST_F(JudgeFixture, NanChainRejectedByVerifyForEverySamplingSeed) {
  NanPolicy nan;
  const EpochTrace trace = produce(nan);
  const Digest initial_hash = hash_state(context.initial);
  const lsh::PStableLsh& hasher = *family;
  for (const bool use_lsh : {false, true}) {
    const Commitment full =
        use_lsh ? commit_v2(trace, hasher, &mask) : commit_v1(trace);
    const CompactCommitment compact = compact_commitment(full);
    for (std::uint64_t seed = 0; seed < kSamplingSeeds; ++seed) {
      Verifier v = verifier(use_lsh, seed);
      sim::DeviceExecution device(sim::device_g3090(), 1234);
      const VerifyResult listed =
          v.verify(full, trace, context, initial_hash, device);
      EXPECT_FALSE(listed.accepted) << "use_lsh=" << use_lsh << " seed=" << seed;
      EXPECT_EQ(listed.failure, VerifyFailure::kNonFinite)
          << "use_lsh=" << use_lsh << " seed=" << seed;
      const VerifyResult merkle =
          v.verify_compact(compact, full, trace, context, initial_hash, device);
      EXPECT_FALSE(merkle.accepted) << "use_lsh=" << use_lsh << " seed=" << seed;
      EXPECT_EQ(merkle.failure, VerifyFailure::kNonFinite)
          << "use_lsh=" << use_lsh << " seed=" << seed;
    }
  }
}

TEST_F(JudgeFixture, NanChainRejectedBySessionForEverySamplingSeed) {
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    for (std::uint64_t seed = 0; seed < kSamplingSeeds; ++seed) {
      SessionConfig cfg;
      cfg.scheme = scheme;
      cfg.samples_q = 2;
      cfg.beta = kBeta;
      cfg.sampling_seed = seed;
      if (scheme == Scheme::kRPoLv2) cfg.lsh = lsh_config;
      NanPolicy nan;
      const SessionOutcome outcome = run_protocol_session(
          task.factory, task.hp, cfg, context.initial, /*nonce=*/505, view,
          nan, sim::device_ga10(), /*worker_seed=*/3, sim::device_g3090(),
          /*manager_seed=*/4);
      EXPECT_FALSE(outcome.accepted)
          << scheme_name(scheme) << " seed=" << seed;
      EXPECT_EQ(outcome.status, SessionStatus::kVerdictRejected)
          << scheme_name(scheme) << " seed=" << seed;
    }
  }
}

// Without the finiteness check, pool seed 72 accepted the free rider in
// epoch 2: the global model turned NaN (test accuracy 0.273) and the next
// epoch's calibration threw "require 0 < alpha < beta".
TEST(JudgePool, NanFreeRiderNeverPoisonsTheGlobalModel) {
  const TinyTask task = TinyTask::make(/*seed=*/61, /*steps=*/10,
                                       /*interval=*/3);
  const data::TrainTestSplit split =
      data::train_test_split(task.dataset, 0.25, 17);
  for (const std::uint64_t pool_seed : {72ULL, 73ULL}) {
    PoolConfig cfg;
    cfg.hp = task.hp;
    cfg.epochs = 4;
    cfg.samples_q = 3;
    cfg.seed = pool_seed;
    std::vector<WorkerSpec> workers;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < 4; ++w) {
      WorkerSpec spec;
      if (w < 3) {
        spec.policy = std::make_unique<HonestPolicy>();
      } else {
        spec.policy = std::make_unique<NanPolicy>();
      }
      spec.device = devices[w % devices.size()];
      workers.push_back(std::move(spec));
    }
    ShardedPool pool({cfg}, task.factory, task.dataset, split.test,
                     std::move(workers));
    PoolRunReport report;
    ASSERT_NO_THROW(report = pool.run()) << "pool seed " << pool_seed;
    for (const EpochReport& epoch : report.epochs) {
      EXPECT_FALSE(epoch.accepted[3])
          << "pool seed " << pool_seed << " epoch " << epoch.epoch;
    }
    EXPECT_TRUE(all_finite(pool.pool().global_model()))
        << "pool seed " << pool_seed;
  }
}

// ---------------------------------------------------------------------------
// Wrong-size checkpoints.

// Commits correctly to an honest chain whose C_1..C_T are one float short,
// in the model or (`short_optimizer`) in the optimizer vector. Replaying a
// short C_j used to throw from load_state, and judging a short claimed
// C_{j+1} from trainable_distance, so one worker's bytes crashed every
// verdict path and the pool. Under RPoLv2 a short model does not fit the
// trainable mask, so the worker cannot even commit it; its v2 commit used
// to throw from extract_trainable and stop the pool or the session.
class ShortStatePolicy : public WorkerPolicy {
 public:
  explicit ShortStatePolicy(bool short_optimizer)
      : short_optimizer_(short_optimizer) {}
  std::string name() const override { return "short_state"; }
  EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                           sim::DeviceExecution& device) override {
    EpochTrace trace = HonestPolicy().produce_trace(executor, context, device);
    for (std::size_t i = 1; i < trace.checkpoints.size(); ++i) {
      TrainState& state = trace.checkpoints[i];
      (short_optimizer_ ? state.optimizer : state.model).pop_back();
    }
    return trace;
  }

 private:
  bool short_optimizer_;
};

// Three honest workers and, at index 3, one ShortStatePolicy worker.
std::vector<WorkerSpec> short_state_workers(bool short_optimizer) {
  std::vector<WorkerSpec> workers;
  const auto devices = sim::all_devices();
  for (std::size_t w = 0; w < 4; ++w) {
    WorkerSpec spec;
    if (w < 3) {
      spec.policy = std::make_unique<HonestPolicy>();
    } else {
      spec.policy = std::make_unique<ShortStatePolicy>(short_optimizer);
    }
    spec.device = devices[w % devices.size()];
    workers.push_back(std::move(spec));
  }
  return workers;
}

TEST_F(JudgeFixture, ShortStatesRejectedByVerifyForEverySamplingSeed) {
  const Digest initial_hash = hash_state(context.initial);
  for (const bool short_optimizer : {false, true}) {
    ShortStatePolicy policy(short_optimizer);
    const EpochTrace trace = produce(policy);
    const Commitment full = commit_v1(trace);
    const CompactCommitment compact = compact_commitment(full);
    for (std::uint64_t seed = 0; seed < kSamplingSeeds; ++seed) {
      Verifier v = verifier(/*use_lsh=*/false, seed);
      sim::DeviceExecution device(sim::device_g3090(), 1234);
      VerifyResult listed;
      ASSERT_NO_THROW(listed =
                          v.verify(full, trace, context, initial_hash, device))
          << "short_optimizer=" << short_optimizer << " seed=" << seed;
      EXPECT_FALSE(listed.accepted)
          << "short_optimizer=" << short_optimizer << " seed=" << seed;
      EXPECT_EQ(listed.failure, VerifyFailure::kMalformed)
          << "short_optimizer=" << short_optimizer << " seed=" << seed;
      VerifyResult merkle;
      ASSERT_NO_THROW(merkle = v.verify_compact(compact, full, trace, context,
                                                initial_hash, device))
          << "short_optimizer=" << short_optimizer << " seed=" << seed;
      EXPECT_FALSE(merkle.accepted)
          << "short_optimizer=" << short_optimizer << " seed=" << seed;
      EXPECT_EQ(merkle.failure, VerifyFailure::kMalformed)
          << "short_optimizer=" << short_optimizer << " seed=" << seed;
    }
  }
}

// Traced, each rejection counts once, as malformed: also the RPoLv2 short
// model, which the worker cannot commit.
TEST_F(JudgeFixture, ShortStatesRejectedBySessionForEverySamplingSeed) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  for (const Scheme scheme : {Scheme::kRPoLv1, Scheme::kRPoLv2}) {
    for (const bool short_optimizer : {false, true}) {
      for (std::uint64_t seed = 0; seed < kSamplingSeeds; ++seed) {
        SessionConfig cfg;
        cfg.scheme = scheme;
        cfg.samples_q = 2;
        cfg.beta = kBeta;
        cfg.sampling_seed = seed;
        if (scheme == Scheme::kRPoLv2) cfg.lsh = lsh_config;
        ShortStatePolicy policy(short_optimizer);
        const RejectCounts before = RejectCounts::read();
        SessionOutcome outcome;
        ASSERT_NO_THROW(outcome = run_protocol_session(
                            task.factory, task.hp, cfg, context.initial,
                            /*nonce=*/505, view, policy, sim::device_ga10(),
                            /*worker_seed=*/3, sim::device_g3090(),
                            /*manager_seed=*/4))
            << scheme_name(scheme) << " short_optimizer=" << short_optimizer
            << " seed=" << seed;
        EXPECT_FALSE(outcome.accepted)
            << scheme_name(scheme) << " short_optimizer=" << short_optimizer
            << " seed=" << seed;
        EXPECT_EQ(outcome.status, SessionStatus::kVerdictRejected)
            << scheme_name(scheme) << " short_optimizer=" << short_optimizer
            << " seed=" << seed;
        const RejectCounts after = RejectCounts::read();
        EXPECT_EQ(after.rejects - before.rejects, 1u)
            << scheme_name(scheme) << " short_optimizer=" << short_optimizer
            << " seed=" << seed;
        EXPECT_EQ(after.malformed - before.malformed, 1u)
            << scheme_name(scheme) << " short_optimizer=" << short_optimizer
            << " seed=" << seed;
      }
    }
  }
  obs::set_enabled(was_enabled);
}

TEST(JudgePool, ShortStateWorkerNeverStopsAnRPoLv1Pool) {
  const TinyTask task = TinyTask::make(/*seed=*/61, /*steps=*/10,
                                       /*interval=*/3);
  const data::TrainTestSplit split =
      data::train_test_split(task.dataset, 0.25, 17);
  for (const bool short_optimizer : {false, true}) {
    PoolConfig cfg;
    cfg.scheme = Scheme::kRPoLv1;
    cfg.hp = task.hp;
    cfg.epochs = 4;
    cfg.samples_q = 3;
    cfg.seed = 72;
    ShardedPool pool({cfg}, task.factory, task.dataset, split.test,
                     short_state_workers(short_optimizer));
    PoolRunReport report;
    ASSERT_NO_THROW(report = pool.run())
        << "short_optimizer=" << short_optimizer;
    ASSERT_EQ(report.epochs.size(), 4U);
    for (const EpochReport& epoch : report.epochs) {
      EXPECT_FALSE(epoch.accepted[3])
          << "short_optimizer=" << short_optimizer << " epoch " << epoch.epoch;
    }
    EXPECT_TRUE(all_finite(pool.pool().global_model()));
  }
}

// The RPoLv2 twin, with in-memory and streaming custody: every epoch ends
// in one verify-rejection strike for the short-state worker, whose update
// never reaches the global model. Traced, each rejection counts once, and
// the short-state worker's as malformed.
TEST(JudgePool, ShortStateWorkerNeverStopsAnRPoLv2Pool) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const TinyTask task = TinyTask::make(/*seed=*/61, /*steps=*/10,
                                       /*interval=*/3);
  const data::TrainTestSplit split =
      data::train_test_split(task.dataset, 0.25, 17);
  for (const bool streaming : {false, true}) {
    for (const bool short_optimizer : {false, true}) {
      PoolConfig cfg;
      cfg.scheme = Scheme::kRPoLv2;
      cfg.hp = task.hp;
      cfg.epochs = 3;
      cfg.samples_q = 3;
      cfg.seed = 72;
      cfg.eviction_threshold = 4;  // judged in every epoch, never evicted
      cfg.streaming = streaming;
      ShardedPool pool({cfg}, task.factory, task.dataset, split.test,
                       short_state_workers(short_optimizer));
      const RejectCounts before = RejectCounts::read();
      PoolRunReport report;
      ASSERT_NO_THROW(report = pool.run())
          << "streaming=" << streaming << " short_optimizer=" << short_optimizer;
      const RejectCounts after = RejectCounts::read();
      ASSERT_EQ(report.epochs.size(), 3U);
      std::uint64_t rejections = 0;
      for (const EpochReport& epoch : report.epochs) {
        rejections += static_cast<std::uint64_t>(epoch.rejected_count);
        EXPECT_TRUE(epoch.participated[3])
            << "streaming=" << streaming << " short_optimizer="
            << short_optimizer << " epoch " << epoch.epoch;
        EXPECT_FALSE(epoch.accepted[3])
            << "streaming=" << streaming << " short_optimizer="
            << short_optimizer << " epoch " << epoch.epoch;
        EXPECT_EQ(epoch.status[3], SessionStatus::kVerdictRejected)
            << "streaming=" << streaming << " short_optimizer="
            << short_optimizer << " epoch " << epoch.epoch;
      }
      EXPECT_EQ(pool.pool().health().consecutive_rejections(3), 3)
          << "streaming=" << streaming << " short_optimizer=" << short_optimizer;
      EXPECT_EQ(pool.pool().health().consecutive_losses(3), 0)
          << "streaming=" << streaming << " short_optimizer=" << short_optimizer;
      EXPECT_EQ(after.rejects - before.rejects, rejections)
          << "streaming=" << streaming << " short_optimizer=" << short_optimizer;
      EXPECT_EQ(after.malformed - before.malformed, 3u)
          << "streaming=" << streaming << " short_optimizer=" << short_optimizer;
      EXPECT_TRUE(all_finite(pool.pool().global_model()));
    }
  }
  obs::set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Malformed commitments: wrong version or chain length.

TEST_F(JudgeFixture, V1CommitmentToLshVerifierIsMalformed) {
  HonestPolicy honest;
  const EpochTrace trace = produce(honest);
  Verifier v = verifier(/*use_lsh=*/true, 42);
  sim::DeviceExecution device(sim::device_g3090(), 1234);
  // Before the pre-check, this read lsh_digests[j + 1] of an empty list.
  const VerifyResult r = v.verify(commit_v1(trace), trace, context,
                                  hash_state(context.initial), device);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.failure, VerifyFailure::kMalformed);
  EXPECT_TRUE(r.checks.empty());
}

TEST_F(JudgeFixture, ChainOfWrongLengthIsMalformed) {
  HonestPolicy honest;
  const EpochTrace trace = produce(honest);
  const lsh::PStableLsh& hasher = *family;

  EpochTrace shorter = trace;
  shorter.checkpoints.pop_back();
  shorter.step_of.pop_back();
  EpochTrace longer = trace;
  longer.checkpoints.push_back(trace.checkpoints.back());
  longer.step_of.push_back(trace.step_of.back());

  for (const EpochTrace* bad : {&shorter, &longer}) {
    const Commitment full = commit_v2(*bad, hasher, &mask);
    Verifier v = verifier(/*use_lsh=*/true, 42);
    sim::DeviceExecution device(sim::device_g3090(), 1234);
    const Digest initial_hash = hash_state(context.initial);
    EXPECT_EQ(v.verify(full, *bad, context, initial_hash, device).failure,
              VerifyFailure::kMalformed);
    EXPECT_EQ(v.verify_compact(compact_commitment(full), full, *bad, context,
                               initial_hash, device)
                  .failure,
              VerifyFailure::kMalformed);
  }
}

TEST_F(JudgeFixture, PreCheckRejectsWrongVersionAndLength) {
  const auto n =
      static_cast<std::int64_t>(task.hp.checkpoint_boundaries().size());
  EXPECT_TRUE(commitment_fits_task(CommitmentVersion::kV2, n, true, task.hp));
  EXPECT_TRUE(commitment_fits_task(CommitmentVersion::kV1, n, false, task.hp));
  EXPECT_FALSE(commitment_fits_task(CommitmentVersion::kV1, n, true, task.hp));
  EXPECT_FALSE(commitment_fits_task(CommitmentVersion::kV2, n, false, task.hp));
  EXPECT_FALSE(
      commitment_fits_task(CommitmentVersion::kV2, n - 1, true, task.hp));
  EXPECT_FALSE(
      commitment_fits_task(CommitmentVersion::kV2, n + 1, true, task.hp));
}

// ---------------------------------------------------------------------------
// The rule itself.

TEST_F(JudgeFixture, NonFiniteReplayFailsBeforeHashingOrFetching) {
  TrainState replay = context.initial;
  replay.model[0] = std::numeric_limits<float>::infinity();
  const lsh::PStableLsh& hasher = *family;
  const lsh::LshDigest committed =
      hasher.hash(extract_trainable(context.initial.model, mask));
  int fetches = 0;
  const TransitionCheck check = judge_transition(
      2, replay, &committed, &hasher, kBeta, mask,
      [&]() -> std::optional<TrainState> {
        ++fetches;
        return context.initial;
      });
  EXPECT_EQ(check.transition, 2);
  EXPECT_FALSE(check.passed);
  EXPECT_EQ(check.failure, VerifyFailure::kNonFinite);
  EXPECT_FALSE(check.lsh_matched);
  EXPECT_EQ(fetches, 0);
}

TEST_F(JudgeFixture, NonFiniteClaimedStateFailsTheDistanceTest) {
  TrainState claimed = context.initial;
  claimed.model.back() = std::numeric_limits<float>::quiet_NaN();
  const TransitionCheck check = judge_transition(
      0, context.initial, nullptr, nullptr, kBeta, mask,
      [&]() -> std::optional<TrainState> { return claimed; });
  EXPECT_FALSE(check.passed);
  EXPECT_EQ(check.failure, VerifyFailure::kNonFinite);
}

TEST_F(JudgeFixture, RuleOrderForFiniteStates) {
  const lsh::PStableLsh& hasher = *family;
  const TrainState& replay = context.initial;
  TrainState far = replay;
  for (float& w : far.model) w += 1.0F;
  const lsh::LshDigest replay_digest =
      hasher.hash(extract_trainable(replay.model, mask));
  const lsh::LshDigest far_digest =
      hasher.hash(extract_trainable(far.model, mask));
  const auto serve = [](const TrainState& s) {
    return [&s]() -> std::optional<TrainState> { return s; };
  };

  // v2: an LSH match passes without fetching the claimed state.
  const TransitionCheck matched = judge_transition(
      1, replay, &replay_digest, &hasher, kBeta, mask,
      []() -> std::optional<TrainState> {
        ADD_FAILURE() << "fetched on an LSH match";
        return std::nullopt;
      });
  EXPECT_TRUE(matched.passed);
  EXPECT_TRUE(matched.lsh_matched);
  EXPECT_FALSE(matched.double_checked);
  EXPECT_EQ(matched.failure, VerifyFailure::kNone);

  // v2: an LSH miss double-checks; a close claimed state passes, a far one
  // fails as an LSH mismatch, and a hash failure is a hash mismatch.
  const TransitionCheck rescued = judge_transition(
      1, replay, &far_digest, &hasher, kBeta, mask, serve(replay));
  EXPECT_TRUE(rescued.passed);
  EXPECT_TRUE(rescued.double_checked);
  EXPECT_EQ(rescued.distance, 0.0);
  const TransitionCheck missed = judge_transition(
      1, replay, &far_digest, &hasher, kBeta, mask, serve(far));
  EXPECT_FALSE(missed.passed);
  EXPECT_EQ(missed.failure, VerifyFailure::kLshMismatch);
  EXPECT_GT(missed.distance, kBeta);
  const TransitionCheck unbound = judge_transition(
      1, replay, &far_digest, &hasher, kBeta, mask,
      []() -> std::optional<TrainState> { return std::nullopt; });
  EXPECT_FALSE(unbound.passed);
  EXPECT_EQ(unbound.failure, VerifyFailure::kHashMismatch);

  // v1: the distance test alone.
  const TransitionCheck v1_pass =
      judge_transition(1, replay, nullptr, nullptr, kBeta, mask, serve(replay));
  EXPECT_TRUE(v1_pass.passed);
  EXPECT_FALSE(v1_pass.double_checked);
  const TransitionCheck v1_fail =
      judge_transition(1, replay, nullptr, nullptr, kBeta, mask, serve(far));
  EXPECT_FALSE(v1_fail.passed);
  EXPECT_EQ(v1_fail.failure, VerifyFailure::kDistance);
}

}  // namespace
}  // namespace rpol::core
