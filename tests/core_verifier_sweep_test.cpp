// Property sweep: the verification protocol must behave identically across
// every optimizer the task might use (SGD / SGDM / RMSprop / Adam) and both
// RPoL schemes — honest workers accepted, replayers and spoofers rejected.
// The optimizer state is part of the checkpointed TrainState, so this
// sweeps the exactness of state capture/restore across optimizer families.

#include <gtest/gtest.h>

#include <optional>

#include "core/verifier.h"
#include "task_fixture.h"

namespace rpol::core {
namespace {

using rpol::testing::TinyTask;

struct SweepCase {
  nn::OptimizerKind optimizer;
  float lr;
  Scheme scheme;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return nn::optimizer_kind_name(info.param.optimizer) + "_" +
         scheme_name(info.param.scheme);
}

class VerifierSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    task = TinyTask::make(/*seed=*/141, /*steps=*/10, /*interval=*/3);
    task.hp.optimizer = GetParam().optimizer;
    task.hp.learning_rate = GetParam().lr;
    view = data::DatasetView::whole(task.dataset);
    context = task.context(/*nonce=*/606, view);
  }

  VerifyResult verify(const EpochTrace& trace) {
    VerifierConfig cfg;
    cfg.samples_q = 4;
    cfg.beta = beta_for(GetParam().optimizer);
    // One family, shared by the commitment and the verifier.
    std::optional<lsh::PStableLsh> family;
    Commitment commitment;
    if (GetParam().scheme == Scheme::kRPoLv2) {
      StepExecutor probe(task.factory, task.hp);
      lsh::LshConfig lcfg;
      lcfg.params = lsh::optimize_lsh(cfg.beta / 5.0, cfg.beta, 16).params;
      lcfg.dim = static_cast<std::int64_t>(
          extract_trainable(context.initial.model, probe.trainable_mask())
              .size());
      lcfg.seed = 71;
      family.emplace(lcfg);
      cfg.lsh_family = &*family;
      commitment = commit_v2(trace, *family, &probe.trainable_mask());
    } else {
      commitment = commit_v1(trace);
    }
    Verifier verifier(task.factory, task.hp, cfg);
    sim::DeviceExecution manager_device(sim::device_g3090(), 888);
    return verifier.verify(commitment, trace, context,
                           hash_state(context.initial), manager_device);
  }

  // Adaptive optimizers divide by sqrt(second moments), which inflates the
  // relative effect of injected noise (cold slots especially); give them a
  // wider tolerance band. Measured on this task: RMSprop honest errors peak
  // ~8e-2 on the first transition vs spoof distances >= 5e-1.
  static double beta_for(nn::OptimizerKind kind) {
    switch (kind) {
      case nn::OptimizerKind::kRmsProp:
        return 0.2;
      case nn::OptimizerKind::kAdam:
        return 5e-2;
      default:
        return 2e-3;
    }
  }

  EpochTrace produce(WorkerPolicy& policy, std::uint64_t seed) {
    StepExecutor executor(task.factory, task.hp);
    sim::DeviceExecution device(sim::device_ga10(), seed);
    return policy.produce_trace(executor, context, device);
  }

  TinyTask task{TinyTask::make()};
  data::DatasetView view;
  EpochContext context;
};

TEST_P(VerifierSweep, HonestAccepted) {
  HonestPolicy honest;
  const VerifyResult result = verify(produce(honest, 1));
  EXPECT_TRUE(result.accepted);
}

TEST_P(VerifierSweep, ReplayRejected) {
  ReplayPolicy replay;
  EXPECT_FALSE(verify(produce(replay, 2)).accepted);
}

TEST_P(VerifierSweep, SpoofRejected) {
  SpoofPolicy spoof(0.1, 0.5);
  EXPECT_FALSE(verify(produce(spoof, 3)).accepted);
}

TEST_P(VerifierSweep, NoiselessReexecutionIsExactForThisOptimizer) {
  // Bit-exact re-execution without device noise: validates optimizer state
  // round-tripping for every optimizer family.
  StepExecutor a(task.factory, task.hp);
  StepExecutor b(task.factory, task.hp);
  const TrainState start = a.save_state();
  const DeterministicSelector sel(context.nonce);
  a.run_steps(0, 6, view, sel, nullptr);
  const TrainState mid = a.save_state();
  a.run_steps(6, 4, view, sel, nullptr);
  b.load_state(mid);
  b.run_steps(6, 4, view, sel, nullptr);
  EXPECT_EQ(a.save_state().model, b.save_state().model);
  EXPECT_EQ(a.save_state().optimizer, b.save_state().optimizer);
  (void)start;
}

INSTANTIATE_TEST_SUITE_P(
    OptimizerSchemeGrid, VerifierSweep,
    ::testing::Values(
        SweepCase{nn::OptimizerKind::kSgd, 0.02F, Scheme::kRPoLv1},
        SweepCase{nn::OptimizerKind::kSgd, 0.02F, Scheme::kRPoLv2},
        SweepCase{nn::OptimizerKind::kSgdMomentum, 0.02F, Scheme::kRPoLv1},
        SweepCase{nn::OptimizerKind::kSgdMomentum, 0.02F, Scheme::kRPoLv2},
        SweepCase{nn::OptimizerKind::kRmsProp, 0.002F, Scheme::kRPoLv1},
        SweepCase{nn::OptimizerKind::kRmsProp, 0.002F, Scheme::kRPoLv2},
        SweepCase{nn::OptimizerKind::kAdam, 0.002F, Scheme::kRPoLv1},
        SweepCase{nn::OptimizerKind::kAdam, 0.002F, Scheme::kRPoLv2}),
    case_name);

}  // namespace
}  // namespace rpol::core
