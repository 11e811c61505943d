// Primitive layers: convolution, linear, batch norm, activations, pooling.

#pragma once

#include "nn/layer.h"
#include "tensor/layout.h"
#include "tensor/ops.h"
#include "tensor/packcache.h"

namespace rpol::nn {

// 2-D convolution (square kernel/stride). Weight layout:
// (out_channels, in_channels * kernel * kernel); He init.
//
// Runs only the blocked direct kernels of tensor/layout.h: the input is
// reordered to nChw8c once per call, the weights are packed to OIhw8i8o
// + W^T and cached across steps keyed by the weight version, and no
// column matrix is ever built. Those kernels exist for 1x1 and 3x3
// kernels; the constructor throws std::invalid_argument for any other size.
class Conv2d : public Layer {
 public:
  Conv2d(Conv2dSpec spec, Rng& rng, bool bias = true, std::string name = "conv");

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

  const Conv2dSpec& spec() const { return spec_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  bool has_bias() const { return has_bias_; }

 private:
  Conv2dSpec spec_;
  Param weight_;
  Param bias_;
  bool has_bias_;
  std::string name_;
  // Forward cache of the blocked input; backward releases it.
  Tensor cached_input_blocked_;
  Shape cached_input_shape_;
  // Packed weight forms, rebuilt only when weight_.version changes.
  PackCache<layout::ConvWeightPack> pack_cache_;
  // Charges the forward cache's capacity to the "scratch" memory tag
  // (obs/mem.h): 0 between a backward and the next forward.
  obs::MemScope scratch_mem_{obs::MemTag::kScratch};

  const layout::ConvWeightPack& weight_pack();
  void account_scratch() {
    scratch_mem_.set(
        static_cast<std::uint64_t>(cached_input_blocked_.vec().capacity()) *
        sizeof(float));
  }
};

// Fully connected layer: y = x W^T + b, W is (out_features, in_features).
// The forward GEMM runs against a panel-packed W (ops.h PackedPanels)
// cached across steps keyed by the weight version.
class Linear : public Layer {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         std::string name = "linear");

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Param weight_;
  Param bias_;
  std::string name_;
  Tensor cached_input_;
  PackCache<PackedPanels> pack_cache_;
};

// Spatial batch normalization over (N, H, W) per channel, with running
// statistics kept as non-trainable params so they travel with checkpoints.
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1F,
                       float eps = 1e-5F, std::string name = "bn");

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override { return input_shape; }

 private:
  std::int64_t channels_;
  float momentum_;
  float eps_;
  Param gamma_;
  Param beta_;
  Param running_mean_;  // non-trainable buffer
  Param running_var_;   // non-trainable buffer
  std::string name_;
  // Forward cache (training mode).
  Tensor cached_input_;
  std::vector<float> cached_mean_;
  std::vector<float> cached_inv_std_;
};

class ReLU : public Layer {
 public:
  explicit ReLU(std::string name = "relu") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override { return input_shape; }

 private:
  std::string name_;
  Tensor cached_mask_;
};

// 2x2 max pooling with stride 2 (the only configuration VGG needs).
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::string name = "maxpool") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

 private:
  std::string name_;
  Shape cached_input_shape_;
  std::vector<std::int64_t> cached_argmax_;
};

// Global average pooling: (N, C, H, W) -> (N, C).
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name = "gap") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

 private:
  std::string name_;
  Shape cached_input_shape_;
};

// Deterministic inverted dropout.
//
// Stochastic layers are a hazard for replay-based verification: if the
// dropout masks were drawn from hidden RNG state, the manager could never
// re-execute a training step exactly. This implementation derives each
// step's mask from PRF-style seeding of (layer seed, step counter), and the
// counter itself is a non-trainable parameter — checkpointed with the rest
// of the training state — so re-execution from any checkpoint resumes the
// exact mask sequence.
class Dropout : public Layer {
 public:
  Dropout(float rate, std::uint64_t seed, std::string name = "dropout");

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(std::vector<Param*>& out) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override { return input_shape; }

  float rate() const { return rate_; }
  // Forward passes executed in training mode so far (fp32 storage caps the
  // faithful range at 2^24 steps — far beyond any simulated epoch).
  std::int64_t counter() const {
    return static_cast<std::int64_t>(counter_.value.at(0));
  }

 private:
  float rate_;
  std::uint64_t seed_;
  std::string name_;
  Param counter_;        // non-trainable, 1 element
  Tensor cached_mask_;   // scaled keep-mask of the last training forward
};

// Reshapes (N, C, H, W) -> (N, C*H*W); identity on rank-2 input.
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name = "flatten") : name_(std::move(name)) {}
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

 private:
  std::string name_;
  Shape cached_input_shape_;
};

}  // namespace rpol::nn
