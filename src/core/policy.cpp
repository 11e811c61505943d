#include "core/policy.h"

#include <cmath>
#include <stdexcept>

namespace rpol::core {

namespace {
std::vector<std::int64_t> checkpoint_steps(const Hyperparams& hp) {
  return hp.checkpoint_boundaries();
}
}  // namespace

float run_honest_transitions(StepExecutor& executor,
                             const EpochContext& context,
                             sim::DeviceExecution& device,
                             std::int64_t transitions_to_run,
                             CheckpointSink& sink) {
  if (context.dataset == nullptr) throw std::invalid_argument("missing dataset");
  const auto steps = checkpoint_steps(executor.hyperparams());
  const auto total_transitions = static_cast<std::int64_t>(steps.size()) - 1;
  if (transitions_to_run < 0 || transitions_to_run > total_transitions) {
    throw std::invalid_argument("bad transition count");
  }
  const DeterministicSelector selector(context.nonce);

  executor.load_state(context.initial);
  sink.append(context.initial);

  double loss_acc = 0.0;
  for (std::int64_t j = 0; j < transitions_to_run; ++j) {
    const std::int64_t first = steps[static_cast<std::size_t>(j)];
    const std::int64_t count = steps[static_cast<std::size_t>(j + 1)] - first;
    loss_acc += executor.run_steps(first, count, *context.dataset, selector,
                                   &device);
    sink.append(executor.save_state());
  }
  return transitions_to_run > 0
             ? static_cast<float>(loss_acc /
                                  static_cast<double>(transitions_to_run))
             : 0.0F;
}

StreamedTraceInfo WorkerPolicy::stream_trace(StepExecutor& executor,
                                             const EpochContext& context,
                                             sim::DeviceExecution& device,
                                             CheckpointSink& sink) {
  // Generic fallback: materialize, then replay through the sink. Bitwise
  // identical to produce_trace by construction, but NOT bounded-memory —
  // policies with a sequential structure override this.
  EpochTrace trace = produce_trace(executor, context, device);
  for (TrainState& state : trace.checkpoints) sink.append(std::move(state));
  StreamedTraceInfo info;
  info.step_of = std::move(trace.step_of);
  info.mean_loss = trace.mean_loss;
  return info;
}

EpochTrace HonestPolicy::produce_trace(StepExecutor& executor,
                                       const EpochContext& context,
                                       sim::DeviceExecution& device) {
  // The streamed epoch, with the in-memory trace as its sink.
  EpochTrace trace;
  StreamedTraceInfo info =
      HonestPolicy::stream_trace(executor, context, device, trace);
  trace.step_of = std::move(info.step_of);
  trace.mean_loss = info.mean_loss;
  return trace;
}

StreamedTraceInfo HonestPolicy::stream_trace(StepExecutor& executor,
                                             const EpochContext& context,
                                             sim::DeviceExecution& device,
                                             CheckpointSink& sink) {
  StreamedTraceInfo info;
  info.step_of = checkpoint_steps(executor.hyperparams());
  info.mean_loss = run_honest_transitions(
      executor, context, device,
      static_cast<std::int64_t>(info.step_of.size()) - 1, sink);
  return info;
}

EpochTrace ReplayPolicy::produce_trace(StepExecutor& executor,
                                       const EpochContext& context,
                                       sim::DeviceExecution& /*device*/) {
  // No training at all: every checkpoint is the initial global state, and
  // the "update" the manager would aggregate is zero.
  const auto steps = checkpoint_steps(executor.hyperparams());
  EpochTrace trace;
  trace.step_of = steps;
  trace.checkpoints.assign(steps.size(), context.initial);
  return trace;
}

EpochTrace FabricationPolicy::produce_trace(StepExecutor& executor,
                                            const EpochContext& context,
                                            sim::DeviceExecution& /*device*/) {
  const auto steps = checkpoint_steps(executor.hyperparams());

  EpochTrace trace;
  trace.step_of = steps;
  trace.checkpoints.push_back(context.initial);
  Rng rng(derive_seed(seed_, static_cast<std::uint64_t>(context.epoch)));
  for (std::size_t j = 1; j < steps.size(); ++j) {
    TrainState fake = trace.checkpoints.back();
    rng.add_normals(fake.model, step_scale_);
    trace.checkpoints.push_back(std::move(fake));
  }
  return trace;
}

EpochTrace StaleReplayPolicy::produce_trace(StepExecutor& executor,
                                            const EpochContext& context,
                                            sim::DeviceExecution& device) {
  if (!recorded_.has_value()) {
    HonestPolicy honest;
    recorded_ = honest.produce_trace(executor, context, device);
  }
  return *recorded_;
}

std::vector<float> spoof_next_weights(
    const std::vector<const std::vector<float>*>& history, double lambda) {
  if (history.empty()) throw std::invalid_argument("spoof needs history");
  const std::vector<float>& latest = *history.back();
  std::vector<float> next = latest;
  if (history.size() < 2) return next;

  // Weighted sum of recent checkpoint differences, newest first (Eq. 12).
  const std::size_t diffs = history.size() - 1;
  double weight_sum = 0.0;
  std::vector<double> weights(diffs);
  for (std::size_t j = 0; j < diffs; ++j) {
    weights[j] = std::pow(lambda, static_cast<double>(j));
    weight_sum += weights[j];
  }
  for (std::size_t j = 0; j < diffs; ++j) {
    const std::vector<float>& newer = *history[history.size() - 1 - j];
    const std::vector<float>& older = *history[history.size() - 2 - j];
    const float scale = static_cast<float>(weights[j] / weight_sum);
    for (std::size_t d = 0; d < next.size(); ++d) {
      next[d] += scale * (newer[d] - older[d]);
    }
  }
  return next;
}

EpochTrace SpoofPolicy::produce_trace(StepExecutor& executor,
                                      const EpochContext& context,
                                      sim::DeviceExecution& device) {
  const auto steps = checkpoint_steps(executor.hyperparams());
  const auto total = static_cast<std::int64_t>(steps.size()) - 1;
  const auto honest = static_cast<std::int64_t>(
      std::ceil(honest_fraction_ * static_cast<double>(total)));
  EpochTrace trace;
  trace.step_of = steps;
  trace.mean_loss =
      run_honest_transitions(executor, context, device, honest, trace);

  // Fabricate the remaining checkpoints by trajectory extrapolation. The
  // optimizer state is carried over unchanged — the attacker does not spend
  // compute on it, and it is hash-covered, so it stays self-consistent.
  for (std::int64_t j = honest; j < total; ++j) {
    std::vector<const std::vector<float>*> history;
    history.reserve(trace.checkpoints.size());
    for (const auto& c : trace.checkpoints) history.push_back(&c.model);
    TrainState fake;
    fake.model = spoof_next_weights(history, lambda_);
    fake.optimizer = trace.checkpoints.back().optimizer;
    trace.checkpoints.push_back(std::move(fake));
  }
  return trace;
}

}  // namespace rpol::core
