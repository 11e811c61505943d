// Worker behaviours: honest training and the paper's adversaries.
//
// All policies consume the same epoch context (initial global state, nonce,
// sub-dataset) and emit an EpochTrace — the checkpoint sequence they are
// willing to commit to. Dishonest policies fabricate some or all
// checkpoints:
//
//   * ReplayPolicy (Adv1, Sec. VII-E): submits the previous global model
//     untouched — every checkpoint equals the initial state, no compute.
//   * SpoofPolicy (Adv2, Sec. VII-D/E): honestly trains a prefix of the
//     transitions, then extrapolates the remaining checkpoints with the
//     momentum-style heuristic of Eq. (12):
//       c_{i+1} = c_i + sum_j K_j (c_{i-j} - c_{i-j-1}) / sum_j K_j,
//       K_j = lambda^j.
//     This is the strongest low-cost forgery the paper evaluates: spoofed
//     checkpoints drift along the recent optimization trajectory.

#pragma once

#include <string>

#include "core/commitment.h"

namespace rpol::core {

struct EpochContext {
  std::int64_t epoch = 0;
  std::uint64_t nonce = 0;               // N_t^w from the manager
  TrainState initial;                    // global model + fresh optimizer
  const data::DatasetView* dataset = nullptr;
};

// Trace metadata that travels alongside a streamed checkpoint sequence —
// everything EpochTrace carries except the checkpoints themselves.
struct StreamedTraceInfo {
  std::vector<std::int64_t> step_of;
  float mean_loss = 0.0F;
};

class WorkerPolicy {
 public:
  virtual ~WorkerPolicy() = default;
  virtual std::string name() const = 0;

  // Produces the epoch's checkpoint trace. `executor` is the worker's local
  // training engine; `device` its simulated hardware.
  virtual EpochTrace produce_trace(StepExecutor& executor,
                                   const EpochContext& context,
                                   sim::DeviceExecution& device) = 0;

  // Streams the epoch's checkpoints through `sink` instead of returning a
  // materialized EpochTrace (the streaming pipeline, core/ckptstore.h, tees
  // them into a CommitmentBuilder and a spill-backed CheckpointStore). The
  // default implementation calls produce_trace and replays it — correct for
  // every policy, bounded for none. HonestPolicy streams its one training
  // loop straight into the sink, so its resident set is one checkpoint;
  // both paths emit bitwise-identical states in the same order (§6, proven
  // by tests/runtime_determinism_test.cpp).
  virtual StreamedTraceInfo stream_trace(StepExecutor& executor,
                                         const EpochContext& context,
                                         sim::DeviceExecution& device,
                                         CheckpointSink& sink);

  // Fraction of transitions honestly computed (h_A of Sec. VI).
  virtual double honesty_ratio() const { return 1.0; }
};

class HonestPolicy : public WorkerPolicy {
 public:
  std::string name() const override { return "honest"; }
  EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                           sim::DeviceExecution& device) override;
  // Runs run_honest_transitions into `sink`: each checkpoint leaves the
  // policy the moment it is saved.
  StreamedTraceInfo stream_trace(StepExecutor& executor,
                                 const EpochContext& context,
                                 sim::DeviceExecution& device,
                                 CheckpointSink& sink) override;
};

class ReplayPolicy : public WorkerPolicy {
 public:
  std::string name() const override { return "adv1_replay"; }
  EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                           sim::DeviceExecution& device) override;
  double honesty_ratio() const override { return 0.0; }
};

class SpoofPolicy : public WorkerPolicy {
 public:
  // honest_fraction of the transitions are trained for real; the rest are
  // extrapolated via Eq. (12) with coefficient decay `lambda`.
  SpoofPolicy(double honest_fraction, double lambda = 0.5)
      : honest_fraction_(honest_fraction), lambda_(lambda) {}

  std::string name() const override { return "adv2_spoof"; }
  EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                           sim::DeviceExecution& device) override;
  double honesty_ratio() const override { return honest_fraction_; }

 private:
  double honest_fraction_;
  double lambda_;
};

// Fabricates model updates out of thin air: checkpoints follow a random
// walk from the initial state with plausible step magnitudes but no
// training behind them ("directly fabricate model updates", Sec. III-B).
class FabricationPolicy : public WorkerPolicy {
 public:
  explicit FabricationPolicy(float step_scale = 0.01F, std::uint64_t seed = 99)
      : step_scale_(step_scale), seed_(seed) {}

  std::string name() const override { return "fabricate"; }
  EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                           sim::DeviceExecution& device) override;
  double honesty_ratio() const override { return 0.0; }

 private:
  float step_scale_;
  std::uint64_t seed_;
};

// Cross-epoch replay: trains honestly ONCE, then re-submits that first
// trace every epoch (the classic replay attack of Sec. III-B). Defeated by
// the per-epoch nonce N_t^w: re-execution under the new nonce selects
// different batches, so the stale transitions no longer reproduce, and the
// stale C_0 no longer hash-matches the current global state.
class StaleReplayPolicy : public WorkerPolicy {
 public:
  std::string name() const override { return "stale_replay"; }
  EpochTrace produce_trace(StepExecutor& executor, const EpochContext& context,
                           sim::DeviceExecution& device) override;
  double honesty_ratio() const override { return 0.0; }

 private:
  std::optional<EpochTrace> recorded_;
};

// Eq. (12): extrapolates the next model vector from the history
// {c_1, ..., c_i} (c_i most recent). Requires history.size() >= 1; with a
// single point it degenerates to a copy.
std::vector<float> spoof_next_weights(
    const std::vector<const std::vector<float>*>& history, double lambda);

// The one honest training loop: appends context.initial, then trains the
// first `transitions_to_run` transitions and appends each resulting
// checkpoint to `sink` as soon as it is saved. Returns the mean training
// loss over the transitions run (0 when none).
float run_honest_transitions(StepExecutor& executor,
                             const EpochContext& context,
                             sim::DeviceExecution& device,
                             std::int64_t transitions_to_run,
                             CheckpointSink& sink);

}  // namespace rpol::core
