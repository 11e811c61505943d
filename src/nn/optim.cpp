#include "nn/optim.h"

#include <cmath>
#include <stdexcept>

namespace rpol::nn {

Optimizer::Optimizer(std::vector<Param*> params) : all_params_(std::move(params)) {
  for (Param* p : all_params_) {
    if (p->trainable) params_.push_back(p);
  }
}

void Optimizer::apply_weight_decay(float weight_decay) {
  if (weight_decay == 0.0F) return;
  for (Param* p : params_) {
    p->grad.add_scaled(p->value, weight_decay);
  }
}

void Optimizer::zero_grad() {
  for (Param* p : all_params_) p->grad.zero();
}

void Optimizer::init_slots(bool second_bank) {
  slots_.clear();
  slots2_.clear();
  for (Param* p : params_) {
    slots_.emplace_back(p->value.shape());
    if (second_bank) slots2_.emplace_back(p->value.shape());
  }
}

std::vector<float> Optimizer::state_vector() const {
  std::vector<float> out;
  out.push_back(static_cast<float>(step_count_));
  for (const Tensor& t : slots_) {
    out.insert(out.end(), t.vec().begin(), t.vec().end());
  }
  for (const Tensor& t : slots2_) {
    out.insert(out.end(), t.vec().begin(), t.vec().end());
  }
  return out;
}

std::size_t Optimizer::state_size() const {
  std::size_t n = 1;  // step_count_
  for (const Tensor& t : slots_) n += static_cast<std::size_t>(t.numel());
  for (const Tensor& t : slots2_) n += static_cast<std::size_t>(t.numel());
  return n;
}

void Optimizer::load_state_vector(const std::vector<float>& state) {
  std::size_t offset = 0;
  if (state.empty()) throw std::invalid_argument("optimizer state empty");
  step_count_ = static_cast<std::int64_t>(state[offset++]);
  auto load_bank = [&](std::vector<Tensor>& bank) {
    for (Tensor& t : bank) {
      const std::size_t n = static_cast<std::size_t>(t.numel());
      if (offset + n > state.size()) {
        throw std::invalid_argument("optimizer state too short");
      }
      std::copy(state.begin() + static_cast<std::ptrdiff_t>(offset),
                state.begin() + static_cast<std::ptrdiff_t>(offset + n),
                t.vec().begin());
      offset += n;
    }
  };
  load_bank(slots_);
  load_bank(slots2_);
  if (offset != state.size()) {
    throw std::invalid_argument("optimizer state too long");
  }
}

// ---------------------------------------------------------------------------

Sgd::Sgd(std::vector<Param*> params, float lr)
    : Optimizer(std::move(params)), lr_(lr) {}

void Sgd::step() {
  ++step_count_;
  for (Param* p : params_) {
    p->value.add_scaled(p->grad, -lr_);
    p->mark_updated();
  }
}

SgdMomentum::SgdMomentum(std::vector<Param*> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  init_slots(/*second_bank=*/false);
}

void SgdMomentum::step() {
  ++step_count_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& v = slots_[i];
    Param* p = params_[i];
    v *= momentum_;
    v += p->grad;
    p->value.add_scaled(v, -lr_);
    p->mark_updated();
  }
}

RmsProp::RmsProp(std::vector<Param*> params, float lr, float rho, float eps)
    : Optimizer(std::move(params)), lr_(lr), rho_(rho), eps_(eps) {
  init_slots(/*second_bank=*/false);
}

void RmsProp::step() {
  ++step_count_;
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& s = slots_[i];
    Param* p = params_[i];
    float* ps = s.data();
    const float* pg = p->grad.data();
    float* pv = p->value.data();
    const std::int64_t n = s.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      ps[j] = rho_ * ps[j] + (1.0F - rho_) * pg[j] * pg[j];
      pv[j] -= lr_ * pg[j] / (std::sqrt(ps[j]) + eps_);
    }
    p->mark_updated();
  }
}

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  init_slots(/*second_bank=*/true);
}

void Adam::step() {
  ++step_count_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  const float corrected_lr =
      static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& m = slots_[i];
    Tensor& v = slots2_[i];
    Param* p = params_[i];
    float* pm = m.data();
    float* pv = v.data();
    const float* pg = p->grad.data();
    float* pw = p->value.data();
    const std::int64_t n = m.numel();
    for (std::int64_t j = 0; j < n; ++j) {
      pm[j] = beta1_ * pm[j] + (1.0F - beta1_) * pg[j];
      pv[j] = beta2_ * pv[j] + (1.0F - beta2_) * pg[j] * pg[j];
      pw[j] -= corrected_lr * pm[j] / (std::sqrt(pv[j]) + eps_);
    }
    p->mark_updated();
  }
}

std::string optimizer_kind_name(OptimizerKind kind) {
  switch (kind) {
    case OptimizerKind::kSgd: return "sgd";
    case OptimizerKind::kSgdMomentum: return "sgdm";
    case OptimizerKind::kRmsProp: return "rmsprop";
    case OptimizerKind::kAdam: return "adam";
  }
  return "unknown";
}

std::unique_ptr<Optimizer> make_optimizer(OptimizerKind kind,
                                          std::vector<Param*> params, float lr) {
  switch (kind) {
    case OptimizerKind::kSgd:
      return std::make_unique<Sgd>(std::move(params), lr);
    case OptimizerKind::kSgdMomentum:
      return std::make_unique<SgdMomentum>(std::move(params), lr);
    case OptimizerKind::kRmsProp:
      return std::make_unique<RmsProp>(std::move(params), lr);
    case OptimizerKind::kAdam:
      return std::make_unique<Adam>(std::move(params), lr);
  }
  throw std::invalid_argument("unknown optimizer kind");
}

}  // namespace rpol::nn
