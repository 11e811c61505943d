// Cross-cutting coverage: hyperparameter invariants, model composition
// edge cases, verifier reconfiguration, and AMLayer shape variants.

#include <gtest/gtest.h>

#include "core/amlayer.h"
#include "core/verifier.h"
#include "nn/models.h"
#include "task_fixture.h"

namespace rpol {
namespace {

// ---------------------------------------------------------------------------
// Hyperparams invariants

class BoundaryInvariants
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(BoundaryInvariants, BoundariesConsistentWithTransitionCount) {
  const auto [steps, interval] = GetParam();
  core::Hyperparams hp;
  hp.steps_per_epoch = steps;
  hp.checkpoint_interval = interval;
  const auto bounds = hp.checkpoint_boundaries();
  EXPECT_EQ(static_cast<std::int64_t>(bounds.size()) - 1, hp.num_transitions());
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), steps);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);                 // strictly increasing
    EXPECT_LE(bounds[i] - bounds[i - 1], interval);      // interval-bounded
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, BoundaryInvariants,
                         ::testing::Values(std::pair{10L, 3L}, std::pair{10L, 5L},
                                           std::pair{10L, 10L}, std::pair{1L, 1L},
                                           std::pair{7L, 2L}, std::pair{12L, 4L},
                                           std::pair{100L, 7L}));

// ---------------------------------------------------------------------------
// Model composition

TEST(ModelComposition, DoublePrependKeepsOutermostFirst) {
  nn::Model m("m");
  Rng rng(1);
  m.add(std::make_unique<nn::Linear>(4, 2, rng));
  // Prepend A, then prepend B: B must run first (outermost).
  const Address addr_a = Address::from_seed(1);
  const Address addr_b = Address::from_seed(2);
  core::AmLayerConfig cfg;
  cfg.channels = 1;
  cfg.kernel = 1;
  // Use identity-shaped AMLayers on a fake rank-4 pathway instead: simpler
  // to verify ordering through the state vector layout.
  nn::Model conv_model("c");
  Rng rng2(2);
  conv_model.add(std::make_unique<nn::GlobalAvgPool>());
  conv_model.add(std::make_unique<nn::Linear>(1, 2, rng2));
  conv_model.prepend(std::make_unique<core::AmLayer>(addr_a, cfg));
  conv_model.prepend(std::make_unique<core::AmLayer>(addr_b, cfg));
  const auto state = conv_model.state_vector();
  const Tensor expected_b = core::derive_amlayer_weight(addr_b, cfg);
  for (std::int64_t i = 0; i < expected_b.numel(); ++i) {
    EXPECT_EQ(state[static_cast<std::size_t>(i)], expected_b.at(i))
        << "outermost prepended layer must occupy the leading state slice";
  }
}

TEST(ModelComposition, PrependInvalidatesParamCache) {
  nn::Model m("m");
  Rng rng(3);
  m.add(std::make_unique<nn::Linear>(4, 2, rng));
  const std::int64_t before = m.num_parameters();
  core::AmLayerConfig cfg;
  cfg.channels = 2;
  cfg.kernel = 1;
  m.prepend(std::make_unique<core::AmLayer>(Address::from_seed(5), cfg));
  EXPECT_GT(m.num_parameters(), before);
  EXPECT_EQ(m.trainable_mask().size(),
            static_cast<std::size_t>(m.num_parameters()));
}

// ---------------------------------------------------------------------------
// AMLayer shape variants

class AmLayerShapes
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {};

TEST_P(AmLayerShapes, ForwardBackwardShapesAndLipschitz) {
  const auto [channels, kernel] = GetParam();
  core::AmLayerConfig cfg;
  cfg.channels = channels;
  cfg.kernel = kernel;
  core::AmLayer layer(Address::from_seed(9), cfg);
  EXPECT_LE(layer.spectral_norm(), cfg.scaling_c + 1e-4F);
  Rng rng(4);
  const Tensor x = Tensor::randn({2, channels, 6, 6}, rng);
  const Tensor y = layer.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
  const Tensor dx = layer.backward(Tensor::full(x.shape(), 1.0F));
  EXPECT_EQ(dx.shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(Shapes, AmLayerShapes,
                         ::testing::Values(std::pair{1L, 1L}, std::pair{1L, 3L},
                                           std::pair{3L, 3L}, std::pair{4L, 5L}));

// ---------------------------------------------------------------------------
// Verifier reconfiguration (adaptive per-epoch LSH families, borrowed)

TEST(VerifierReconfig, LshConfigChangesTakeEffect) {
  using rpol::testing::TinyTask;
  const TinyTask task = TinyTask::make(/*seed=*/191);
  const auto view = data::DatasetView::whole(task.dataset);
  core::StepExecutor init(task.factory, task.hp);
  core::EpochContext ctx;
  ctx.nonce = 99;
  ctx.initial = init.save_state();
  ctx.dataset = &view;

  core::StepExecutor worker(task.factory, task.hp);
  sim::DeviceExecution wd(sim::device_ga10(), 1);
  core::HonestPolicy honest;
  const core::EpochTrace trace = honest.produce_trace(worker, ctx, wd);

  const std::int64_t dim = static_cast<std::int64_t>(
      core::extract_trainable(ctx.initial.model, init.trainable_mask()).size());
  // One family per epoch, shared by the commitment and the verifier.
  const lsh::PStableLsh epoch1(lsh::LshConfig{{1.0, 2, 4}, dim, 1});
  const lsh::PStableLsh epoch2(lsh::LshConfig{{1.0, 2, 4}, dim, 2});
  const lsh::PStableLsh epoch3(lsh::LshConfig{{1.0, 2, 4}, dim, 3});
  const lsh::PStableLsh mis_sized(lsh::LshConfig{{1.0, 2, 4}, dim + 1, 3});
  core::VerifierConfig cfg;
  cfg.samples_q = 3;
  cfg.beta = 2e-3;
  cfg.lsh_family = &epoch1;
  core::Verifier verifier(task.factory, task.hp, cfg);

  // Epoch 1: commit under family seed 1 -> verify passes.
  const core::Commitment c1 =
      core::commit_v2(trace, epoch1, &init.trainable_mask());
  {
    sim::DeviceExecution md(sim::device_g3090(), 2);
    EXPECT_TRUE(verifier
                    .verify(c1, trace, ctx, core::hash_state(ctx.initial), md)
                    .accepted);
  }
  // Epoch 2: the manager rotates the family (new seed). A commitment built
  // under the OLD family no longer LSH-matches, but the double-check still
  // rescues the honest worker — family rotation can never hurt them.
  {
    verifier.set_lsh_family(&epoch2);
    sim::DeviceExecution md(sim::device_g3090(), 3);
    const core::VerifyResult vr =
        verifier.verify(c1, trace, ctx, core::hash_state(ctx.initial), md);
    EXPECT_TRUE(vr.accepted);
    EXPECT_GT(vr.double_checks, 0);
  }
  // Epoch 3: a family of the wrong dim throws on its first hash; re-pointed
  // at the right family, the verifier accepts.
  {
    const core::Commitment c3 =
        core::commit_v2(trace, epoch3, &init.trainable_mask());
    verifier.set_lsh_family(&mis_sized);
    sim::DeviceExecution md(sim::device_g3090(), 4);
    EXPECT_THROW(
        verifier.verify(c3, trace, ctx, core::hash_state(ctx.initial), md),
        std::invalid_argument);
    verifier.set_lsh_family(&epoch3);
    sim::DeviceExecution md2(sim::device_g3090(), 5);
    EXPECT_TRUE(verifier
                    .verify(c3, trace, ctx, core::hash_state(ctx.initial), md2)
                    .accepted);
  }
}

}  // namespace
}  // namespace rpol
