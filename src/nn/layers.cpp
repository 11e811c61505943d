#include "nn/layers.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
// ReLU's AVX2 loops (RPOL_SIMD=ON); each lane computes what the scalar
// loop computes for its element.
#define RPOL_NN_AVX2 1
#endif

namespace rpol::nn {

namespace {

// Parallel loops in this file partition disjoint output slices (a channel,
// an (img, ch) plane, or an element range) across the deterministic thread
// pool; per-element accumulation stays serial and fixed-order, so results
// are bit-identical for any RPOL_THREADS setting.

// Bias gradient: db[oc] += sum over (img, y, x) of dY, accumulated in
// double in ascending j = (img*oh + y)*ow + x order.
void conv_bias_grad_nchw(const Tensor& grad_output, std::int64_t out_channels,
                         Tensor& bias_grad) {
  const std::int64_t n = grad_output.dim(0);
  const std::int64_t hw = grad_output.dim(2) * grad_output.dim(3);
  const float* pg = grad_output.data();
  float* pbg = bias_grad.data();
  runtime::parallel_for(
      0, out_channels, 1, [&](std::int64_t oc0, std::int64_t oc1) {
        for (std::int64_t oc = oc0; oc < oc1; ++oc) {
          double acc = 0.0;
          for (std::int64_t img = 0; img < n; ++img) {
            const float* plane = pg + (img * out_channels + oc) * hw;
            for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
          }
          pbg[oc] += static_cast<float>(acc);
        }
      });
}

}  // namespace

// ---------------------------------------------------------------------------
// Conv2d

Conv2d::Conv2d(Conv2dSpec spec, Rng& rng, bool bias, std::string name)
    : spec_(spec), has_bias_(bias), name_(std::move(name)) {
  if (!layout::direct_conv_supports(spec_)) {
    throw std::invalid_argument(name_ + ": no direct kernel for a " +
                                std::to_string(spec_.kernel) + "x" +
                                std::to_string(spec_.kernel) +
                                " convolution (1x1 and 3x3 only)");
  }
  const std::int64_t fan_in = spec_.in_channels * spec_.kernel * spec_.kernel;
  const float he_std = std::sqrt(2.0F / static_cast<float>(fan_in));
  weight_ = Param(name_ + ".weight",
                  Tensor::randn({spec_.out_channels, fan_in}, rng, he_std));
  if (has_bias_) {
    bias_ = Param(name_ + ".bias", Tensor::zeros({spec_.out_channels}));
  }
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 4) throw std::invalid_argument("Conv2d expects NCHW");
  return {input_shape[0], spec_.out_channels, spec_.out_size(input_shape[2]),
          spec_.out_size(input_shape[3])};
}

const layout::ConvWeightPack& Conv2d::weight_pack() {
  return pack_cache_.get(weight_.value, weight_.version,
                         [this](const Tensor& w) {
                           return layout::make_conv_weight_pack(w, spec_);
                         });
}

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  const layout::ConvWeightPack& pack = weight_pack();
  cached_input_blocked_ = layout::nchw_to_nchw8c(input, spec_.padding);
  account_scratch();
  Tensor out_blocked = layout::conv2d_direct_forward(
      cached_input_blocked_, pack.blocked,
      has_bias_ ? bias_.value : Tensor(), spec_, input.dim(2), input.dim(3));
  return layout::nchw8c_to_nchw(out_blocked, spec_.out_channels);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const layout::ConvWeightPack& pack = weight_pack();
  const std::int64_t in_h = cached_input_shape_[2];
  const std::int64_t in_w = cached_input_shape_[3];
  const Tensor grad_blocked = layout::nchw_to_nchw8c(grad_output);
  layout::conv2d_direct_backward_weights(grad_blocked, cached_input_blocked_,
                                         spec_, in_h, in_w, weight_.grad);
  if (has_bias_) {
    conv_bias_grad_nchw(grad_output, spec_.out_channels, bias_.grad);
  }
  Tensor dx = layout::conv2d_direct_backward_data(
      grad_output, pack.ihwo8i, spec_, cached_input_shape_);
  // Released, not kept: the next forward allocates a fresh blocked input.
  cached_input_blocked_ = Tensor();
  account_scratch();
  return dx;
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

// ---------------------------------------------------------------------------
// Linear

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               std::string name)
    : in_features_(in_features), out_features_(out_features),
      name_(std::move(name)) {
  const float he_std = std::sqrt(2.0F / static_cast<float>(in_features));
  weight_ = Param(name_ + ".weight",
                  Tensor::randn({out_features_, in_features_}, rng, he_std));
  bias_ = Param(name_ + ".bias", Tensor::zeros({out_features_}));
}

Shape Linear::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 2) throw std::invalid_argument("Linear expects (N, F)");
  return {input_shape[0], out_features_};
}

Tensor Linear::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 2 || input.dim(1) != in_features_) {
    throw std::invalid_argument("Linear input shape mismatch: " +
                                shape_to_string(input.shape()));
  }
  cached_input_ = input;
  const PackedPanels& panels = pack_cache_.get(
      weight_.value, weight_.version,
      [](const Tensor& w) { return pack_nt_panels(w); });
  Tensor out = matmul_nt_packed(input, panels);
  const std::int64_t n = out.dim(0);
  float* po = out.data();
  const float* pb = bias_.value.data();
  runtime::parallel_for(0, n, 8, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* row = po + i * out_features_;
      for (std::int64_t j = 0; j < out_features_; ++j) row[j] += pb[j];
    }
  });
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  // dW += dY^T X ; db += colsum(dY) ; dX = dY W
  weight_.grad += matmul_tn(grad_output, cached_input_);
  const std::int64_t n = grad_output.dim(0);
  const float* pg = grad_output.data();
  float* pbg = bias_.grad.data();
  runtime::parallel_for(0, out_features_, 4, [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < n; ++i) acc += pg[i * out_features_ + j];
      pbg[j] += static_cast<float>(acc);
    }
  });
  return matmul(grad_output, weight_.value);
}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ---------------------------------------------------------------------------
// BatchNorm2d

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps,
                         std::string name)
    : channels_(channels), momentum_(momentum), eps_(eps), name_(std::move(name)) {
  gamma_ = Param(name_ + ".gamma", Tensor::full({channels_}, 1.0F));
  beta_ = Param(name_ + ".beta", Tensor::zeros({channels_}));
  running_mean_ = Param(name_ + ".running_mean", Tensor::zeros({channels_}),
                        /*train=*/false);
  running_var_ = Param(name_ + ".running_var", Tensor::full({channels_}, 1.0F),
                       /*train=*/false);
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw std::invalid_argument("BatchNorm2d input shape mismatch");
  }
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t count = n * h * w;
  Tensor out(input.shape());

  cached_mean_.assign(static_cast<std::size_t>(channels_), 0.0F);
  cached_inv_std_.assign(static_cast<std::size_t>(channels_), 0.0F);

  const std::int64_t hw = h * w;
  const float* pin = input.data();
  float* pout = out.data();
  // Per-channel statistics and normalization: each channel is owned by one
  // thread, with serial fixed-order (img, y, x) accumulation — bitwise
  // deterministic for any thread count.
  runtime::parallel_for(0, channels_, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      float mean = 0.0F, var = 0.0F;
      if (training) {
        double sum = 0.0;
        for (std::int64_t img = 0; img < n; ++img) {
          const float* plane = pin + (img * channels_ + c) * hw;
          for (std::int64_t i = 0; i < hw; ++i) sum += plane[i];
        }
        mean = static_cast<float>(sum / static_cast<double>(count));
        double sq = 0.0;
        for (std::int64_t img = 0; img < n; ++img) {
          const float* plane = pin + (img * channels_ + c) * hw;
          for (std::int64_t i = 0; i < hw; ++i) {
            const double d = plane[i] - mean;
            sq += d * d;
          }
        }
        var = static_cast<float>(sq / static_cast<double>(count));
        running_mean_.value.at(c) =
            (1.0F - momentum_) * running_mean_.value.at(c) + momentum_ * mean;
        running_var_.value.at(c) =
            (1.0F - momentum_) * running_var_.value.at(c) + momentum_ * var;
      } else {
        mean = running_mean_.value.at(c);
        var = running_var_.value.at(c);
      }
      const float inv_std = 1.0F / std::sqrt(var + eps_);
      cached_mean_[static_cast<std::size_t>(c)] = mean;
      cached_inv_std_[static_cast<std::size_t>(c)] = inv_std;
      const float g = gamma_.value.at(c), b = beta_.value.at(c);
      for (std::int64_t img = 0; img < n; ++img) {
        const float* plane = pin + (img * channels_ + c) * hw;
        float* out_plane = pout + (img * channels_ + c) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          out_plane[i] = g * (plane[i] - mean) * inv_std + b;
        }
      }
    }
  });
  cached_input_ = input;
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  const Tensor& x = cached_input_;
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t count = n * h * w;
  Tensor dx(x.shape());

  const std::int64_t hw = h * w;
  const float* px = x.data();
  const float* pg = grad_output.data();
  float* pdx = dx.data();
  runtime::parallel_for(0, channels_, 1, [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t c = c0; c < c1; ++c) {
      const float mean = cached_mean_[static_cast<std::size_t>(c)];
      const float inv_std = cached_inv_std_[static_cast<std::size_t>(c)];
      const float g = gamma_.value.at(c);
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (std::int64_t img = 0; img < n; ++img) {
        const std::int64_t base = (img * channels_ + c) * hw;
        const float* gp = pg + base;
        const float* xp = px + base;
        for (std::int64_t i = 0; i < hw; ++i) {
          const float dy = gp[i];
          const float xhat = (xp[i] - mean) * inv_std;
          sum_dy += dy;
          sum_dy_xhat += static_cast<double>(dy) * xhat;
        }
      }
      gamma_.grad.at(c) += static_cast<float>(sum_dy_xhat);
      beta_.grad.at(c) += static_cast<float>(sum_dy);

      const float inv_count = 1.0F / static_cast<float>(count);
      for (std::int64_t img = 0; img < n; ++img) {
        const std::int64_t base = (img * channels_ + c) * hw;
        const float* gp = pg + base;
        const float* xp = px + base;
        float* dp = pdx + base;
        for (std::int64_t i = 0; i < hw; ++i) {
          const float dy = gp[i];
          const float xhat = (xp[i] - mean) * inv_std;
          dp[i] = g * inv_std *
                  (dy - static_cast<float>(sum_dy) * inv_count -
                   xhat * static_cast<float>(sum_dy_xhat) * inv_count);
        }
      }
    }
  });
  return dx;
}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

// ---------------------------------------------------------------------------
// ReLU

// y = x where x > 0, else +0 (NaN, -0 and negatives); the mask is 1 where
// x > 0, else +0. On AVX2 an ordered greater-than compare gives all-ones
// lanes exactly where the scalar `x > 0` holds (false for NaN), and ANDing
// with it keeps x's bits or clears them to +0 — the scalar rule's values,
// without its data-dependent branch. The scalar loop runs the tails and
// the RPOL_SIMD=OFF build.
Tensor ReLU::forward(const Tensor& input, bool /*training*/) {
  Tensor out = input;
  cached_mask_ = Tensor(input.shape());
  float* po = out.data();
  float* pm = cached_mask_.data();
  const std::int64_t n = input.numel();
  runtime::parallel_for(0, n, 4096, [&](std::int64_t i0, std::int64_t i1) {
    std::int64_t i = i0;
#ifdef RPOL_NN_AVX2
    const __m256 zero = _mm256_setzero_ps();
    const __m256 one = _mm256_set1_ps(1.0F);
    for (; i + 8 <= i1; i += 8) {
      const __m256 v = _mm256_loadu_ps(po + i);
      const __m256 pos = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
      _mm256_storeu_ps(po + i, _mm256_and_ps(v, pos));
      _mm256_storeu_ps(pm + i, _mm256_and_ps(one, pos));
    }
#endif
    for (; i < i1; ++i) {
      if (po[i] > 0.0F) {
        pm[i] = 1.0F;
      } else {
        po[i] = 0.0F;
      }
    }
  });
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  Tensor dx = grad_output;
  const float* pm = cached_mask_.data();
  float* pd = dx.data();
  const std::int64_t n = dx.numel();
  runtime::parallel_for(0, n, 4096, [&](std::int64_t i0, std::int64_t i1) {
    std::int64_t i = i0;
#ifdef RPOL_NN_AVX2
    for (; i + 8 <= i1; i += 8) {
      _mm256_storeu_ps(pd + i, _mm256_mul_ps(_mm256_loadu_ps(pd + i),
                                             _mm256_loadu_ps(pm + i)));
    }
#endif
    for (; i < i1; ++i) pd[i] *= pm[i];
  });
  return dx;
}

// ---------------------------------------------------------------------------
// MaxPool2d (2x2, stride 2)

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
  return {input_shape[0], input_shape[1], input_shape[2] / 2, input_shape[3] / 2};
}

Tensor MaxPool2d::forward(const Tensor& input, bool /*training*/) {
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t h = input.dim(2), w = input.dim(3);
  if (h % 2 != 0 || w % 2 != 0) {
    throw std::invalid_argument("MaxPool2d expects even spatial dims");
  }
  const std::int64_t oh = h / 2, ow = w / 2;
  cached_input_shape_ = input.shape();
  Tensor out({n, c, oh, ow});
  cached_argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  const float* pin = input.data();
  float* pout = out.data();
  std::int64_t* pargmax = cached_argmax_.data();
  // One (img, ch) plane per thread; the output index is computed directly
  // from (img, ch, y, x) so partitioning cannot reorder writes.
  runtime::parallel_for(0, n * c, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const float* in_plane = pin + slice * h * w;
      float* out_plane = pout + slice * oh * ow;
      std::int64_t* arg_plane = pargmax + slice * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          float best = -1e30F;
          std::int64_t best_idx = 0;
          for (std::int64_t dy = 0; dy < 2; ++dy) {
            for (std::int64_t dx = 0; dx < 2; ++dx) {
              const std::int64_t yy = 2 * y + dy, xx = 2 * x + dx;
              const float v = in_plane[yy * w + xx];
              if (v > best) {
                best = v;
                best_idx = slice * h * w + yy * w + xx;
              }
            }
          }
          out_plane[y * ow + x] = best;
          arg_plane[y * ow + x] = best_idx;
        }
      }
    }
  });
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor dx(cached_input_shape_);
  const float* pg = grad_output.data();
  float* pd = dx.data();
  const std::int64_t n = cached_input_shape_[0], c = cached_input_shape_[1];
  const std::int64_t total = static_cast<std::int64_t>(cached_argmax_.size());
  const std::int64_t per_slice = total / (n * c);
  const std::int64_t* pargmax = cached_argmax_.data();
  // Argmax indices recorded for a slice always point into that slice's
  // input plane, so the scatter-add partitions cleanly by (img, ch).
  runtime::parallel_for(0, n * c, 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t i = s0 * per_slice; i < s1 * per_slice; ++i) {
      pd[pargmax[i]] += pg[i];
    }
  });
  return dx;
}

// ---------------------------------------------------------------------------
// GlobalAvgPool

Shape GlobalAvgPool::output_shape(const Shape& input_shape) const {
  return {input_shape[0], input_shape[1]};
}

Tensor GlobalAvgPool::forward(const Tensor& input, bool /*training*/) {
  const std::int64_t n = input.dim(0), c = input.dim(1);
  const std::int64_t h = input.dim(2), w = input.dim(3);
  cached_input_shape_ = input.shape();
  Tensor out({n, c});
  const float inv = 1.0F / static_cast<float>(h * w);
  const std::int64_t hw = h * w;
  const float* pin = input.data();
  float* pout = out.data();
  runtime::parallel_for(0, n * c, 4, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const float* plane = pin + slice * hw;
      double acc = 0.0;
      for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
      pout[slice] = static_cast<float>(acc) * inv;
    }
  });
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const std::int64_t n = cached_input_shape_[0], c = cached_input_shape_[1];
  const std::int64_t h = cached_input_shape_[2], w = cached_input_shape_[3];
  Tensor dx(cached_input_shape_);
  const float inv = 1.0F / static_cast<float>(h * w);
  const std::int64_t hw = h * w;
  const float* pg = grad_output.data();
  float* pd = dx.data();
  runtime::parallel_for(0, n * c, 4, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t slice = s0; slice < s1; ++slice) {
      const float g = pg[slice] * inv;
      float* plane = pd + slice * hw;
      for (std::int64_t i = 0; i < hw; ++i) plane[i] = g;
    }
  });
  return dx;
}

// ---------------------------------------------------------------------------
// Dropout

Dropout::Dropout(float rate, std::uint64_t seed, std::string name)
    : rate_(rate), seed_(seed), name_(std::move(name)),
      counter_(name_ + ".counter", Tensor::zeros({1}), /*train=*/false) {
  if (rate_ < 0.0F || rate_ >= 1.0F) {
    throw std::invalid_argument("dropout rate must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training || rate_ == 0.0F) {
    cached_mask_ = Tensor();  // marks "identity" for backward
    return input;
  }
  const std::int64_t step = static_cast<std::int64_t>(counter_.value.at(0));
  counter_.value.at(0) = static_cast<float>(step + 1);

  Rng rng(derive_seed(seed_, static_cast<std::uint64_t>(step)));
  cached_mask_ = Tensor(input.shape());
  const float keep_scale = 1.0F / (1.0F - rate_);
  float* pm = cached_mask_.data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    pm[i] = rng.next_float() < rate_ ? 0.0F : keep_scale;
  }
  Tensor out = input;
  float* po = out.data();
  for (std::int64_t i = 0; i < out.numel(); ++i) po[i] *= pm[i];
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (cached_mask_.empty()) return grad_output;  // eval / rate 0 pass-through
  Tensor dx = grad_output;
  const float* pm = cached_mask_.data();
  float* pd = dx.data();
  for (std::int64_t i = 0; i < dx.numel(); ++i) pd[i] *= pm[i];
  return dx;
}

void Dropout::collect_params(std::vector<Param*>& out) {
  out.push_back(&counter_);
}

// ---------------------------------------------------------------------------
// Flatten

Shape Flatten::output_shape(const Shape& input_shape) const {
  if (input_shape.size() == 2) return input_shape;
  std::int64_t features = 1;
  for (std::size_t i = 1; i < input_shape.size(); ++i) features *= input_shape[i];
  return {input_shape[0], features};
}

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  return input.reshaped(output_shape(input.shape()));
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(cached_input_shape_);
}

}  // namespace rpol::nn
