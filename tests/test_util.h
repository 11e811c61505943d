// Shared test helpers: numeric gradient checking and the im2col + GEMM
// convolution oracle.

#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/loss.h"
#include "nn/model.h"
#include "tensor/ops.h"

namespace rpol::testing {

// Central-difference gradient check for a model under softmax-CE loss.
// Verifies dL/dtheta for a subset of parameter entries (stride-sampled to
// keep runtime bounded). Tolerances are loose because the model runs in
// fp32 while finite differences amplify rounding.
inline void check_model_gradients(nn::Model& model, const Tensor& input,
                                  const std::vector<std::int64_t>& labels,
                                  double rel_tol = 5e-2, double abs_tol = 1e-3,
                                  std::int64_t stride = 7) {
  nn::SoftmaxCrossEntropy loss;

  auto forward_loss = [&]() {
    const Tensor logits = model.forward(input, /*training=*/true);
    return static_cast<double>(loss.forward(logits, labels));
  };

  // Analytic gradients.
  model.zero_grads();
  forward_loss();
  model.backward(loss.backward());

  std::int64_t checked = 0;
  for (nn::Param* p : model.params()) {
    if (!p->trainable) continue;
    for (std::int64_t i = 0; i < p->value.numel(); i += stride) {
      const float original = p->value.at(i);
      const float eps = std::max(1e-3F, std::abs(original) * 1e-3F);
      // Every direct write to p->value must bump the version, or the
      // perturbed forwards would run against stale packed weights
      // (tensor/packcache.h).
      p->value.at(i) = original + eps;
      p->mark_updated();
      const double loss_plus = forward_loss();
      p->value.at(i) = original - eps;
      p->mark_updated();
      const double loss_minus = forward_loss();
      p->value.at(i) = original;
      p->mark_updated();
      const double numeric = (loss_plus - loss_minus) / (2.0 * eps);
      const double analytic = static_cast<double>(p->grad.at(i));
      const double denom = std::max({std::abs(numeric), std::abs(analytic), 1e-8});
      if (std::abs(numeric - analytic) > abs_tol &&
          std::abs(numeric - analytic) / denom > rel_tol) {
        ADD_FAILURE() << "gradient mismatch in " << p->name << "[" << i
                      << "]: analytic=" << analytic << " numeric=" << numeric;
        return;
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 0) << "no parameters were gradient-checked";
}

// ---------------------------------------------------------------------------
// im2col + GEMM convolution oracle. The direct kernels (tensor/layout.h) and
// nn::Conv2d must match it BITWISE: checkpoint bytes are defined by these
// semantics, so tests compare raw floats with ASSERT_EQ, not tolerances.

// (N, C, H, W) <-> (C, N*H*W), the GEMM's column order (img*H + y)*W + x.
inline Tensor nchw_to_gemm(const Tensor& nchw) {
  const std::int64_t n = nchw.dim(0), c = nchw.dim(1);
  const std::int64_t hw = nchw.dim(2) * nchw.dim(3);
  Tensor out({c, n * hw});
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t i = 0; i < hw; ++i)
        out.at2(ch, img * hw + i) = nchw.at((img * c + ch) * hw + i);
  return out;
}

// Forward: matmul(W, im2col(X)), plus bias (may be empty) once per output
// element after the full accumulation, reordered to NCHW.
inline Tensor conv_ref_forward(const Tensor& x, const Tensor& w,
                               const Tensor& bias, const Conv2dSpec& spec) {
  Tensor gemm = matmul(w, im2col(x, spec));
  const std::int64_t n = x.dim(0);
  const std::int64_t oh = spec.out_size(x.dim(2)), ow = spec.out_size(x.dim(3));
  const std::int64_t hw = oh * ow;
  Tensor out({n, spec.out_channels, oh, ow});
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t oc = 0; oc < spec.out_channels; ++oc)
      for (std::int64_t i = 0; i < hw; ++i) {
        float v = gemm.at2(oc, img * hw + i);
        if (!bias.empty()) v += bias.at(oc);
        out.at((img * spec.out_channels + oc) * hw + i) = v;
      }
  return out;
}

// A conv spec and the square input it runs on.
struct ConvCase {
  Conv2dSpec spec;
  std::int64_t in_size = 0;
};

// Every conv MiniResNet18 (width 8, one block per stage) runs on a 16x16
// input — the conv_pool model — plus two unaligned channel counts.
inline std::vector<ConvCase> mini_resnet18_w8_convs() {
  return {
      {{3, 8, 3, 1, 1}, 16},   {{8, 8, 3, 1, 1}, 16},
      {{8, 16, 3, 2, 1}, 16},  {{16, 16, 3, 1, 1}, 8},
      {{16, 32, 3, 2, 1}, 8},  {{32, 32, 3, 1, 1}, 4},
      {{32, 64, 3, 2, 1}, 4},  {{64, 64, 3, 1, 1}, 2},
      {{8, 16, 1, 2, 0}, 16},  {{16, 32, 1, 2, 0}, 8},
      {{32, 64, 1, 2, 0}, 4},  {{5, 7, 3, 1, 1}, 16},
      {{3, 12, 1, 2, 0}, 16},
  };
}

struct ConvRefGrads {
  Tensor dx;  // NCHW, like x
  Tensor dw;  // (O, C*k*k), like w
  Tensor db;  // (O)
};

// Backward: dW = matmul_nt(dY, im2col(X)), dX = col2im(matmul_tn(W, dY)),
// db summed in double over (img, y, x) in ascending order.
inline ConvRefGrads conv_ref_backward(const Tensor& x, const Tensor& w,
                                      const Tensor& dy, const Conv2dSpec& spec) {
  const Tensor dy_gemm = nchw_to_gemm(dy);
  ConvRefGrads g;
  g.dw = matmul_nt(dy_gemm, im2col(x, spec));
  g.dx = col2im(matmul_tn(w, dy_gemm), spec, x.shape());
  g.db = Tensor({spec.out_channels});
  for (std::int64_t oc = 0; oc < spec.out_channels; ++oc) {
    double acc = 0.0;
    for (std::int64_t j = 0; j < dy_gemm.dim(1); ++j) acc += dy_gemm.at2(oc, j);
    g.db.at(oc) = static_cast<float>(acc);
  }
  return g;
}

}  // namespace rpol::testing
