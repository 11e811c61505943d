// Gradient checks and behavioural tests for every primitive layer.
//
// Each layer's backward pass is validated against central finite
// differences through a full softmax-CE loss — the strongest correctness
// guarantee available for an explicit-backprop library.

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>

#include "nn/blocks.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "obs/obs.h"
#include "test_util.h"

namespace rpol::nn {
namespace {

Tensor random_input(const Shape& shape, std::uint64_t seed, float stddev = 1.0F) {
  Rng rng(seed);
  return Tensor::randn(shape, rng, stddev);
}

std::vector<std::int64_t> cyclic_labels(std::int64_t n, std::int64_t classes) {
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % classes;
  return labels;
}

// ---------------------------------------------------------------------------
// Linear

TEST(Linear, ForwardHandValues) {
  Rng rng(1);
  Linear fc(2, 2, rng);
  fc.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  fc.bias().value = Tensor({2}, {10, 20});
  const Tensor x({1, 2}, {5, 6});
  const Tensor y = fc.forward(x, true);
  EXPECT_EQ(y.at2(0, 0), 1 * 5 + 2 * 6 + 10);
  EXPECT_EQ(y.at2(0, 1), 3 * 5 + 4 * 6 + 20);
}

TEST(Linear, GradientCheck) {
  Rng rng(2);
  Model m("t");
  m.add(std::make_unique<Linear>(6, 4, rng));
  const Tensor x = random_input({3, 6}, 100);
  rpol::testing::check_model_gradients(m, x, cyclic_labels(3, 4), 5e-2, 1e-3, 1);
}

TEST(Linear, InputShapeMismatchThrows) {
  Rng rng(3);
  Linear fc(4, 2, rng);
  const Tensor bad({2, 5});
  EXPECT_THROW(fc.forward(bad, true), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Conv2d

TEST(Conv2d, OutputShape) {
  Rng rng(4);
  Conv2d conv(Conv2dSpec{3, 8, 3, 2, 1}, rng);
  EXPECT_EQ(conv.output_shape({2, 3, 8, 8}), (Shape{2, 8, 4, 4}));
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  Rng rng(5);
  Conv2d conv(Conv2dSpec{1, 1, 1, 1, 0}, rng, /*bias=*/false);
  conv.weight().value = Tensor({1, 1}, {1.0F});
  const Tensor x = random_input({2, 1, 3, 3}, 6);
  const Tensor y = conv.forward(x, true);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y.at(i), x.at(i));
}

TEST(Conv2d, GradientCheckStride1) {
  Rng rng(7);
  Model m("t");
  m.add(std::make_unique<Conv2d>(Conv2dSpec{2, 3, 3, 1, 1}, rng));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Linear>(3 * 4 * 4, 3, rng));
  const Tensor x = random_input({2, 2, 4, 4}, 101);
  rpol::testing::check_model_gradients(m, x, cyclic_labels(2, 3), 5e-2, 2e-3, 5);
}

TEST(Conv2d, GradientCheckStride2NoBias) {
  Rng rng(8);
  Model m("t");
  m.add(std::make_unique<Conv2d>(Conv2dSpec{2, 2, 3, 2, 1}, rng, /*bias=*/false));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Linear>(2 * 2 * 2, 2, rng));
  const Tensor x = random_input({2, 2, 4, 4}, 102);
  rpol::testing::check_model_gradients(m, x, cyclic_labels(2, 2), 5e-2, 2e-3, 3);
}

// ---------------------------------------------------------------------------
// Bitwise parity with the im2col + GEMM oracle (test_util.h).
//
// Conv2d and Linear run only the blocked/packed kernels (tensor/layout.h).
// The determinism contract fixes their bits to those of im2col + GEMM and
// of the unpacked matmul_nt, the references these tests call "fallback".
// Outputs and gradients are compared with ASSERT_EQ on raw floats.

TEST(Conv2d, DirectPathBitwiseMatchesFallbackForwardBackward) {
  // Four small specs at batch 2 on 8x8, then every conv_pool conv at
  // batch 1 and 3 on its own plane size.
  struct Case {
    Conv2dSpec spec;
    std::int64_t batch, in_size;
  };
  std::vector<Case> cases = {
      {{5, 7, 3, 1, 1}, 2, 8},   // unaligned channels
      {{8, 16, 3, 2, 1}, 2, 8},  // stride 2
      {{8, 16, 1, 1, 0}, 2, 8},  // 1x1
      {{3, 12, 1, 2, 0}, 2, 8},  // 1x1 stride 2 (ResNet projection shortcut)
  };
  for (const rpol::testing::ConvCase& c : rpol::testing::mini_resnet18_w8_convs()) {
    cases.push_back({c.spec, 1, c.in_size});
    cases.push_back({c.spec, 3, c.in_size});
  }
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (const Case& c : cases) {
    const Conv2dSpec& spec = c.spec;
    SCOPED_TRACE(std::to_string(spec.in_channels) + "->" +
                 std::to_string(spec.out_channels) + " k" +
                 std::to_string(spec.kernel) + " s" +
                 std::to_string(spec.stride) + " batch " +
                 std::to_string(c.batch) + " in " + std::to_string(c.in_size));
    Rng rng(200);
    Conv2d conv(spec, rng, /*bias=*/true);
    conv.bias().value = random_input({spec.out_channels}, 203, 0.5F);
    conv.bias().mark_updated();
    const Tensor x =
        random_input({c.batch, spec.in_channels, c.in_size, c.in_size}, 201);
    Rng grng(202);
    const Tensor dy =
        Tensor::randn(conv.output_shape(x.shape()), grng, 0.5F);
    const Tensor y_ref = rpol::testing::conv_ref_forward(
        x, conv.weight().value, conv.bias().value, spec);
    const rpol::testing::ConvRefGrads ref =
        rpol::testing::conv_ref_backward(x, conv.weight().value, dy, spec);

    const Tensor y = conv.forward(x, true);
    const Tensor dx = conv.backward(dy);

    ASSERT_EQ(y.shape(), y_ref.shape());
    for (std::int64_t i = 0; i < y_ref.numel(); ++i) {
      ASSERT_EQ(bits(y.at(i)), bits(y_ref.at(i))) << "forward el " << i;
    }
    ASSERT_EQ(dx.shape(), ref.dx.shape());
    for (std::int64_t i = 0; i < ref.dx.numel(); ++i) {
      ASSERT_EQ(bits(dx.at(i)), bits(ref.dx.at(i))) << "dX el " << i;
    }
    for (std::int64_t i = 0; i < ref.dw.numel(); ++i) {
      ASSERT_EQ(bits(conv.weight().grad.at(i)), bits(ref.dw.at(i)))
          << "dW el " << i;
    }
    for (std::int64_t i = 0; i < ref.db.numel(); ++i) {
      ASSERT_EQ(bits(conv.bias().grad.at(i)), bits(ref.db.at(i)))
          << "db el " << i;
    }
  }
}

TEST(Linear, PackedPathBitwiseMatchesFallback) {
  Rng rng(210);
  Linear fc(13, 11, rng);  // unaligned: final panel is zero-padded
  fc.bias().value = random_input({11}, 212, 0.5F);
  fc.bias().mark_updated();
  const Tensor x = random_input({5, 13}, 211);

  Tensor y_ref = matmul_nt(x, fc.weight().value);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 11; ++j) y_ref.at2(i, j) += fc.bias().value.at(j);
  }
  const Tensor y = fc.forward(x, true);
  ASSERT_EQ(y.shape(), y_ref.shape());
  for (std::int64_t i = 0; i < y_ref.numel(); ++i) {
    ASSERT_EQ(y.at(i), y_ref.at(i)) << "el " << i;
  }
}

TEST(Linear, PackCacheInvalidatesOnOptimizerStep) {
  Rng rng(212);
  Linear fc(6, 4, rng);
  const Tensor x = random_input({2, 6}, 213);
  const Tensor y0 = fc.forward(x, true);  // populates the pack cache
  std::vector<Param*> params;
  fc.collect_params(params);
  // Give the weight a nonzero gradient and step: the version bump must
  // invalidate the cached panels, so the next forward sees new weights.
  fc.weight().grad.fill(1.0F);
  Sgd opt(params, /*lr=*/0.5F);
  opt.step();
  const Tensor y1 = fc.forward(x, true);
  bool changed = false;
  for (std::int64_t i = 0; i < y0.numel(); ++i) {
    if (y0.at(i) != y1.at(i)) changed = true;
  }
  EXPECT_TRUE(changed) << "stale packed weights served after optimizer step";
}

TEST(Model, PackCacheInvalidatesAcrossStateReload) {
  // Regression test for the full checkpoint round trip: every Param mutation
  // path — optimizer steps AND load_state_vector — must bump the version so
  // the pack caches never serve panels built from stale weights. Observed
  // via the rebuild/hit counters (write-only, so enabling obs here cannot
  // perturb the numerics under test).
  obs::set_enabled(true);

  auto build = [](std::uint64_t seed) {
    Rng r(seed);
    Model m("t");
    m.add(std::make_unique<Conv2d>(Conv2dSpec{2, 8, 3, 1, 1}, r));
    m.add(std::make_unique<Flatten>());
    m.add(std::make_unique<Linear>(8 * 4 * 4, 3, r));
    return m;
  };
  Model m = build(218);
  const Tensor x = random_input({2, 2, 4, 4}, 219);

  Sgd opt(m.trainable_params(), /*lr=*/0.1F);
  auto train_step = [&] {
    (void)m.forward(x, true);  // builds packs against the current versions
    for (Param* p : m.trainable_params()) p->grad.fill(0.25F);
    opt.step();
  };

  train_step();
  const std::vector<float> snapshot = m.state_vector();
  const Tensor y_at_snapshot = m.forward(x, false);

  train_step();  // moves past the snapshot; packs now hold newer weights

  const std::uint64_t rebuilds_before =
      obs::counter("tensor.pack.rebuild").value();
  m.load_state_vector(snapshot);
  const Tensor y_reloaded = m.forward(x, false);
  EXPECT_GT(obs::counter("tensor.pack.rebuild").value(), rebuilds_before)
      << "load_state_vector did not invalidate the pack caches";
  ASSERT_EQ(y_reloaded.numel(), y_at_snapshot.numel());
  for (std::int64_t i = 0; i < y_reloaded.numel(); ++i) {
    ASSERT_EQ(y_reloaded.at(i), y_at_snapshot.at(i))
        << "stale panel reuse after reload, el " << i;
  }

  // A fresh model fed the same state must agree bitwise — the reloaded
  // model's caches carry no history.
  Model fresh = build(999);
  fresh.load_state_vector(snapshot);
  const Tensor y_fresh = fresh.forward(x, false);
  for (std::int64_t i = 0; i < y_reloaded.numel(); ++i) {
    ASSERT_EQ(y_reloaded.at(i), y_fresh.at(i)) << "el " << i;
  }

  // Repeat forwards without mutation are hits, never rebuilds.
  const std::uint64_t rebuilds_stable =
      obs::counter("tensor.pack.rebuild").value();
  const std::uint64_t hits_before = obs::counter("tensor.pack.hit").value();
  (void)m.forward(x, false);
  EXPECT_EQ(obs::counter("tensor.pack.rebuild").value(), rebuilds_stable);
  EXPECT_GT(obs::counter("tensor.pack.hit").value(), hits_before);

  obs::set_enabled(false);
  obs::Registry::instance().reset();
}

TEST(Conv2d, UnsupportedKernelSizeThrows) {
  // Only 1x1 and 3x3 have direct kernels; any other size is rejected when
  // the layer is built rather than computed some other way.
  Rng rng(214);
  EXPECT_THROW(Conv2d(Conv2dSpec{2, 2, 5, 1, 2}, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d(Conv2dSpec{3, 8, 7, 2, 3}, rng), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BatchNorm2d

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(2);
  const Tensor x = random_input({4, 2, 3, 3}, 9, 5.0F);
  const Tensor y = bn.forward(x, /*training=*/true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::int64_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t n = 0; n < 4; ++n)
      for (std::int64_t h = 0; h < 3; ++h)
        for (std::int64_t w = 0; w < 3; ++w) {
          sum += y.at4(n, c, h, w);
          sq += static_cast<double>(y.at4(n, c, h, w)) * y.at4(n, c, h, w);
        }
    const double mean = sum / 36.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / 36.0 - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  const Tensor x = random_input({8, 1, 2, 2}, 10, 2.0F);
  // Train several times so running stats move toward batch stats.
  for (int i = 0; i < 50; ++i) bn.forward(x, true);
  const Tensor y_eval = bn.forward(x, /*training=*/false);
  const Tensor y_train = bn.forward(x, /*training=*/true);
  for (std::int64_t i = 0; i < y_eval.numel(); ++i) {
    EXPECT_NEAR(y_eval.at(i), y_train.at(i), 0.15F);
  }
}

TEST(BatchNorm2d, GradientCheck) {
  Rng rng(11);
  Model m("t");
  m.add(std::make_unique<Conv2d>(Conv2dSpec{1, 2, 3, 1, 1}, rng, false));
  m.add(std::make_unique<BatchNorm2d>(2));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Linear>(2 * 3 * 3, 2, rng));
  const Tensor x = random_input({4, 1, 3, 3}, 103);
  // BatchNorm couples examples, finite differences are noisier: relax tol.
  rpol::testing::check_model_gradients(m, x, cyclic_labels(4, 2), 8e-2, 5e-3, 7);
}

TEST(BatchNorm2d, BuffersAreNonTrainable) {
  BatchNorm2d bn(3);
  std::vector<Param*> params;
  bn.collect_params(params);
  ASSERT_EQ(params.size(), 4u);
  EXPECT_TRUE(params[0]->trainable);   // gamma
  EXPECT_TRUE(params[1]->trainable);   // beta
  EXPECT_FALSE(params[2]->trainable);  // running mean
  EXPECT_FALSE(params[3]->trainable);  // running var
}

// ---------------------------------------------------------------------------
// ReLU / pooling / flatten

TEST(ReLU, ForwardAndBackwardMask) {
  ReLU relu;
  const Tensor x({4}, {-1.0F, 2.0F, -3.0F, 4.0F});
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y.at(0), 0.0F);
  EXPECT_EQ(y.at(1), 2.0F);
  const Tensor g({4}, {10, 10, 10, 10});
  const Tensor dx = relu.backward(g);
  EXPECT_EQ(dx.at(0), 0.0F);
  EXPECT_EQ(dx.at(1), 10.0F);
  EXPECT_EQ(dx.at(2), 0.0F);
  EXPECT_EQ(dx.at(3), 10.0F);
}

// ReLU's rule, element by element: y = x where x > 0 and +0 everywhere
// else (NaN and -0 included); the mask is 1 where x > 0 and +0 elsewhere,
// and backward multiplies the incoming gradient by it. The layer must
// match this bit for bit at every length, whatever its vector width.
TEST(ReLU, MatchesScalarRuleBitwiseAtEveryLength) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      nan,  -nan, 0.0F,  -0.0F, inf,   -inf,  sub,   -sub,
      std::numeric_limits<float>::min() / 2.0F,  // a larger subnormal
      -std::numeric_limits<float>::min() / 2.0F,
      1.5F, -2.25F, std::numeric_limits<float>::max(),
      -std::numeric_limits<float>::max()};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 33; ++n) lengths.push_back(n);
  lengths.push_back(4097);
  Rng rng(240);
  for (const std::int64_t n : lengths) {
    SCOPED_TRACE("length " + std::to_string(n));
    Tensor x({n});
    Tensor g({n});
    for (std::int64_t i = 0; i < n; ++i) {
      // Specials at shifting offsets, so each lands in every vector lane
      // and in the scalar tail at some length; random values elsewhere.
      const std::uint64_t pick = rng.next_below(2 * specials.size());
      x.at(i) = pick < specials.size()
                    ? specials[static_cast<std::size_t>(pick)]
                    : rng.next_normal();
      const std::uint64_t gpick = rng.next_below(2 * specials.size());
      g.at(i) = gpick < specials.size()
                    ? specials[static_cast<std::size_t>(gpick)]
                    : rng.next_normal();
    }
    ReLU relu;
    const Tensor y = relu.forward(x, true);
    const Tensor dx = relu.backward(g);
    ASSERT_EQ(y.shape(), x.shape());
    ASSERT_EQ(dx.shape(), g.shape());
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = x.at(i);
      const float want_y = v > 0.0F ? v : 0.0F;
      const float mask = v > 0.0F ? 1.0F : 0.0F;
      ASSERT_EQ(bits(y.at(i)), bits(want_y)) << "forward el " << i;
      ASSERT_EQ(bits(dx.at(i)), bits(g.at(i) * mask)) << "backward el " << i;
    }
  }
}

TEST(MaxPool2d, SelectsMaxAndRoutesGradient) {
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y.at(0), 5.0F);
  const Tensor g({1, 1, 1, 1}, {7.0F});
  const Tensor dx = pool.backward(g);
  EXPECT_EQ(dx.at(0), 0.0F);
  EXPECT_EQ(dx.at(1), 7.0F);
  EXPECT_EQ(dx.at(2), 0.0F);
}

TEST(MaxPool2d, OddSpatialThrows) {
  MaxPool2d pool;
  Tensor x({1, 1, 3, 3});
  EXPECT_THROW(pool.forward(x, true), std::invalid_argument);
}

TEST(GlobalAvgPool, AveragesAndBackpropagates) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = gap.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_NEAR(y.at2(0, 0), 2.5F, 1e-6F);
  EXPECT_NEAR(y.at2(0, 1), 25.0F, 1e-6F);
  const Tensor g({1, 2}, {4.0F, 8.0F});
  const Tensor dx = gap.backward(g);
  EXPECT_NEAR(dx.at4(0, 0, 0, 0), 1.0F, 1e-6F);
  EXPECT_NEAR(dx.at4(0, 1, 1, 1), 2.0F, 1e-6F);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flatten;
  const Tensor x = random_input({2, 3, 4, 4}, 12);
  const Tensor y = flatten.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor dx = flatten.backward(y);
  EXPECT_EQ(dx.shape(), x.shape());
}

// ---------------------------------------------------------------------------
// Residual blocks

TEST(BasicBlock, IdentitySkipWhenShapesMatch) {
  Rng rng(13);
  BasicBlock block(4, 4, 1, rng);
  EXPECT_EQ(block.output_shape({1, 4, 4, 4}), (Shape{1, 4, 4, 4}));
}

TEST(BasicBlock, ProjectionSkipOnStride) {
  Rng rng(14);
  BasicBlock block(4, 8, 2, rng);
  EXPECT_EQ(block.output_shape({1, 4, 4, 4}), (Shape{1, 8, 2, 2}));
}

TEST(BasicBlock, GradientCheck) {
  Rng rng(15);
  Model m("t");
  m.add(std::make_unique<BasicBlock>(2, 2, 1, rng));
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Linear>(2, 2, rng));
  const Tensor x = random_input({3, 2, 4, 4}, 104);
  rpol::testing::check_model_gradients(m, x, cyclic_labels(3, 2), 8e-2, 5e-3, 11);
}

TEST(BasicBlock, ProjectionGradientCheck) {
  Rng rng(16);
  Model m("t");
  m.add(std::make_unique<BasicBlock>(2, 4, 2, rng));
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Linear>(4, 2, rng));
  const Tensor x = random_input({3, 2, 4, 4}, 105);
  rpol::testing::check_model_gradients(m, x, cyclic_labels(3, 2), 8e-2, 5e-3, 13);
}

TEST(BottleneckBlock, ExpansionShape) {
  Rng rng(17);
  BottleneckBlock block(4, 2, 1, rng);
  EXPECT_EQ(block.output_shape({1, 4, 4, 4}), (Shape{1, 8, 4, 4}));
}

TEST(BottleneckBlock, GradientCheck) {
  Rng rng(18);
  Model m("t");
  m.add(std::make_unique<BottleneckBlock>(2, 1, 1, rng));
  m.add(std::make_unique<GlobalAvgPool>());
  m.add(std::make_unique<Linear>(4, 2, rng));
  const Tensor x = random_input({2, 2, 4, 4}, 106);
  rpol::testing::check_model_gradients(m, x, cyclic_labels(2, 2), 8e-2, 5e-3, 9);
}

TEST(Sequential, EmptyIsIdentity) {
  Sequential seq;
  const Tensor x = random_input({2, 3}, 19);
  const Tensor y = seq.forward(x, true);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(y.at(i), x.at(i));
}

// ---------------------------------------------------------------------------
// Loss

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy loss;
  const Tensor logits({2, 4});  // all zeros
  const float l = loss.forward(logits, {0, 3});
  EXPECT_NEAR(l, std::log(4.0F), 1e-5F);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  SoftmaxCrossEntropy loss;
  const Tensor logits = random_input({3, 5}, 20);
  loss.forward(logits, {0, 2, 4});
  const Tensor grad = loss.backward();
  for (std::int64_t r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 5; ++c) sum += grad.at2(r, c);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, ShapeMismatchThrows) {
  SoftmaxCrossEntropy loss;
  const Tensor logits({2, 3});
  EXPECT_THROW(loss.forward(logits, {0}), std::invalid_argument);
}

TEST(Accuracy, CountsCorrectPredictions) {
  const Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0, 1}), 0.0);
  EXPECT_NEAR(accuracy(logits, {0, 0, 0}), 2.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace rpol::nn
