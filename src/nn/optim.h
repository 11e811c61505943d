// First-order optimizers: SGD, SGD with momentum, RMSprop, Adam.
//
// The paper evaluates reproduction errors under SGDM (the default training
// optimizer, lr 0.1 / momentum 0.9), RMSprop, and Adam (Sec. VII-C).
//
// For RPoL's verification, the optimizer *state* (momentum / second-moment
// slots, Adam's step counter) is part of the training state: re-executing a
// checkpointed step must start from the exact same slots. Optimizers
// therefore expose state_vector()/load_state_vector() mirroring Model.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace rpol::nn {

class Optimizer {
 public:
  // Binds to a parameter set; pointers must outlive the optimizer.
  explicit Optimizer(std::vector<Param*> params);
  virtual ~Optimizer() = default;

  // Applies one update using the parameters' current gradients. Only
  // trainable parameters are touched.
  virtual void step() = 0;

  virtual std::string name() const = 0;

  // Adjusts the learning rate for subsequent steps (schedules are driven by
  // the caller; the rate is NOT part of the serialized optimizer state
  // because it is a pure function of the step index and the hyperparams).
  virtual void set_learning_rate(float lr) = 0;

  // Adds weight_decay * w to every trainable gradient (decoupled so every
  // optimizer kind shares the same L2 semantics). Call before step().
  void apply_weight_decay(float weight_decay);

  void zero_grad();

  // Flattened optimizer state (slot tensors + counters); empty for plain SGD.
  virtual std::vector<float> state_vector() const;
  virtual void load_state_vector(const std::vector<float>& state);
  // Length of state_vector() (the step counter plus every slot), without
  // building it.
  std::size_t state_size() const;

 protected:
  std::vector<Param*> params_;           // trainable only
  std::vector<Param*> all_params_;       // as given (for zero_grad)
  std::vector<Tensor> slots_;            // per-parameter state tensors
  std::vector<Tensor> slots2_;           // second slot bank (Adam)
  std::int64_t step_count_ = 0;

  void init_slots(bool second_bank);
};

class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Param*> params, float lr);
  void step() override;
  void set_learning_rate(float lr) override { lr_ = lr; }
  std::string name() const override { return "sgd"; }

 private:
  float lr_;
};

// SGD with (heavy-ball) momentum: v = mu*v + g; w -= lr*v.
class SgdMomentum : public Optimizer {
 public:
  SgdMomentum(std::vector<Param*> params, float lr, float momentum = 0.9F);
  void step() override;
  void set_learning_rate(float lr) override { lr_ = lr; }
  std::string name() const override { return "sgdm"; }

 private:
  float lr_;
  float momentum_;
};

class RmsProp : public Optimizer {
 public:
  RmsProp(std::vector<Param*> params, float lr, float rho = 0.99F,
          float eps = 1e-8F);
  void step() override;
  void set_learning_rate(float lr) override { lr_ = lr; }
  std::string name() const override { return "rmsprop"; }

 private:
  float lr_;
  float rho_;
  float eps_;
};

class Adam : public Optimizer {
 public:
  Adam(std::vector<Param*> params, float lr, float beta1 = 0.9F,
       float beta2 = 0.999F, float eps = 1e-8F);
  void step() override;
  void set_learning_rate(float lr) override { lr_ = lr; }
  std::string name() const override { return "adam"; }

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
};

// Optimizer kinds, for configuration sweeps (Sec. VII-C).
enum class OptimizerKind { kSgd, kSgdMomentum, kRmsProp, kAdam };

std::string optimizer_kind_name(OptimizerKind kind);

std::unique_ptr<Optimizer> make_optimizer(OptimizerKind kind,
                                          std::vector<Param*> params, float lr);

}  // namespace rpol::nn
