#include "core/executor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "runtime/thread_pool.h"

namespace rpol::core {

std::vector<float> extract_trainable(const std::vector<float>& model_state,
                                     const std::vector<bool>& mask) {
  if (model_state.size() != mask.size()) {
    throw std::invalid_argument("trainable mask size mismatch");
  }
  // One insert per maximal trainable run: a model's mask is a few long
  // runs (weights) between short gaps (BatchNorm buffers).
  std::vector<float> out;
  out.reserve(model_state.size());
  const auto first = mask.begin(), last = mask.end();
  for (auto run = std::find(first, last, true); run != last;) {
    const auto end = std::find(run, last, false);
    out.insert(out.end(), model_state.begin() + (run - first),
               model_state.begin() + (end - first));
    run = std::find(end, last, true);
  }
  return out;
}

double trainable_distance(const std::vector<float>& a,
                          const std::vector<float>& b,
                          const std::vector<bool>& mask) {
  if (a.size() != b.size() || a.size() != mask.size()) {
    throw std::invalid_argument("trainable_distance size mismatch");
  }
  // Verifier hot path (checkpoint distance): blocked parallel reduction.
  // Block boundaries are FIXED (independent of thread count); each block's
  // partial sum is accumulated serially and the partials are combined in
  // block order, so the result is bit-identical for any RPOL_THREADS.
  constexpr std::int64_t kBlock = 4096;
  const std::int64_t total = static_cast<std::int64_t>(a.size());
  const std::int64_t blocks = (total + kBlock - 1) / kBlock;
  if (blocks <= 0) return 0.0;
  std::vector<double> partial(static_cast<std::size_t>(blocks), 0.0);
  runtime::parallel_for(0, blocks, 1, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t blk = b0; blk < b1; ++blk) {
      const std::int64_t lo = blk * kBlock;
      const std::int64_t hi = std::min(total, lo + kBlock);
      double acc = 0.0;
      for (std::int64_t i = lo; i < hi; ++i) {
        const std::size_t idx = static_cast<std::size_t>(i);
        if (!mask[idx]) continue;
        const double d = static_cast<double>(a[idx]) - b[idx];
        acc += d * d;
      }
      partial[static_cast<std::size_t>(blk)] = acc;
    }
  });
  double acc = 0.0;
  for (const double p : partial) acc += p;
  return std::sqrt(acc);
}

namespace {
std::unique_ptr<nn::Optimizer> build_optimizer(nn::Model& model,
                                               const Hyperparams& hp) {
  switch (hp.optimizer) {
    case nn::OptimizerKind::kSgdMomentum:
      return std::make_unique<nn::SgdMomentum>(model.params(), hp.learning_rate,
                                               hp.momentum);
    default:
      return nn::make_optimizer(hp.optimizer, model.params(), hp.learning_rate);
  }
}
}  // namespace

StepExecutor::StepExecutor(const nn::ModelFactory& factory, const Hyperparams& hp)
    : hp_(hp), model_(factory()) {
  optimizer_ = build_optimizer(model_, hp_);
}

TrainState StepExecutor::save_state() {
  return {model_.state_vector(), optimizer_->state_vector()};
}

void StepExecutor::load_state(const TrainState& state) {
  model_.load_state_vector(state.model);
  optimizer_->load_state_vector(state.optimizer);
}

bool StepExecutor::fits(const TrainState& state) {
  return state.model.size() == model_.trainable_mask().size() &&
         state.optimizer.size() == optimizer_->state_size();
}

float StepExecutor::run_steps(std::int64_t first_step, std::int64_t count,
                              const data::DatasetView& dataset,
                              const DeterministicSelector& selector,
                              sim::DeviceExecution* device) {
  if (count <= 0) throw std::invalid_argument("step count must be positive");
  double loss_acc = 0.0;
  nn::SoftmaxCrossEntropy loss;
  std::vector<std::int64_t> labels;
  for (std::int64_t m = first_step; m < first_step + count; ++m) {
    const auto indices =
        selector.batch_indices(m, hp_.batch_size, dataset.size());
    Tensor batch = dataset.make_batch(indices, labels);
    if (hp_.augment_hflip && batch.rank() == 4) {
      // Deterministic horizontal flips, one PRF coin per batch element.
      const std::int64_t h = batch.dim(2), w = batch.dim(3);
      for (std::int64_t n = 0; n < batch.dim(0); ++n) {
        if (!selector.augment_flip(m, n)) continue;
        for (std::int64_t c = 0; c < batch.dim(1); ++c) {
          for (std::int64_t y = 0; y < h; ++y) {
            for (std::int64_t x = 0; x < w / 2; ++x) {
              std::swap(batch.at4(n, c, y, x), batch.at4(n, c, y, w - 1 - x));
            }
          }
        }
      }
    }
    model_.zero_grads();
    const Tensor logits = model_.forward(batch, /*training=*/true);
    loss_acc += loss.forward(logits, labels);
    model_.backward(loss.backward());
    if (device != nullptr) device->perturb_gradients(model_.params());
    optimizer_->apply_weight_decay(hp_.weight_decay);
    optimizer_->set_learning_rate(hp_.lr_at_step(m));
    optimizer_->step();
  }
  return static_cast<float>(loss_acc / static_cast<double>(count));
}

double StepExecutor::evaluate(const data::DatasetView& dataset,
                              std::int64_t batch_size) {
  std::int64_t correct_weighted = 0;
  std::int64_t total = 0;
  std::vector<std::int64_t> labels;
  for (std::int64_t start = 0; start < dataset.size(); start += batch_size) {
    const std::int64_t take = std::min(batch_size, dataset.size() - start);
    std::vector<std::int64_t> indices(static_cast<std::size_t>(take));
    for (std::int64_t i = 0; i < take; ++i) indices[static_cast<std::size_t>(i)] = start + i;
    const Tensor batch = dataset.make_batch(indices, labels);
    const Tensor logits = model_.forward(batch, /*training=*/false);
    correct_weighted += static_cast<std::int64_t>(
        nn::accuracy(logits, labels) * static_cast<double>(take) + 0.5);
    total += take;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(correct_weighted) /
                          static_cast<double>(total);
}

}  // namespace rpol::core
