// Deterministic training-step execution.
//
// StepExecutor is the single implementation of "run training steps
// [first, first+count) from a given state" used by BOTH sides of the
// protocol: workers training an epoch (src/core/worker.h) and the manager
// re-executing sampled checkpoints (src/core/verifier.h). Sharing the code
// path guarantees the only divergence between the two executions is the
// simulated device nondeterminism — exactly the reproduction error the
// protocol must tolerate.
//
// A TrainState snapshot contains everything re-execution needs: the model
// state vector (weights + BatchNorm buffers) and the optimizer state
// (momentum slots, step counters).

#pragma once

#include <memory>

#include "core/detsel.h"
#include "core/task.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "sim/device.h"

namespace rpol::core {

struct TrainState {
  std::vector<float> model;      // Model::state_vector()
  std::vector<float> optimizer;  // Optimizer::state_vector()

  std::uint64_t byte_size() const {
    return static_cast<std::uint64_t>(model.size() + optimizer.size()) *
           sizeof(float);
  }
};

// Custody of an epoch's ordered checkpoint sequence has two realizations,
// each both a sink and a source: the in-memory EpochTrace
// (core/commitment.h) and the spill-to-disk CheckpointStore
// (core/ckptstore.h).

// Read-only random access to the sequence. fetch() returns a COPY so a
// spill-backed source can serve evicted checkpoints from disk; callers hold
// at most the checkpoints they are actively re-executing, which is what
// makes verification memory-bounded (ROADMAP item 5).
class CheckpointSource {
 public:
  virtual ~CheckpointSource() = default;
  virtual std::int64_t num_checkpoints() const = 0;
  // Checkpoint `index` in [0, num_checkpoints()); throws std::out_of_range
  // outside that window.
  virtual TrainState fetch(std::int64_t index) const = 0;
};

// Receives checkpoints one at a time, in order, as a policy produces them.
// The state is taken by value, so a producer that is done with it moves it
// in and no custody copies a checkpoint it could have moved.
class CheckpointSink {
 public:
  virtual ~CheckpointSink() = default;
  virtual void append(TrainState state) = 0;
};

// Extracts the trainable-weight subvector of a model state (mask from
// Model::trainable_mask()). Verification distances and LSH digests operate
// on this subset: buffer (BatchNorm statistics) divergence scales with
// activation magnitudes rather than with the training step and is covered
// by the exact SHA hashes instead.
std::vector<float> extract_trainable(const std::vector<float>& model_state,
                                     const std::vector<bool>& mask);

// Euclidean distance between two model states restricted to the trainable
// subset — the paper's reproduction-error measure over model weights.
double trainable_distance(const std::vector<float>& a,
                          const std::vector<float>& b,
                          const std::vector<bool>& mask);

class StepExecutor {
 public:
  StepExecutor(const nn::ModelFactory& factory, const Hyperparams& hp);

  const Hyperparams& hyperparams() const { return hp_; }
  nn::Model& model() { return model_; }
  const std::vector<bool>& trainable_mask() { return model_.trainable_mask(); }

  TrainState save_state();
  void load_state(const TrainState& state);
  // True when `state` has this executor's model and optimizer lengths, the
  // only shape load_state() accepts.
  bool fits(const TrainState& state);

  // Runs steps m = first_step .. first_step+count-1 with batches selected by
  // `selector` over `dataset`. `device` injects simulated hardware noise
  // into the gradients (may be null for an idealized deterministic run).
  // Returns the mean training loss across the executed steps.
  float run_steps(std::int64_t first_step, std::int64_t count,
                  const data::DatasetView& dataset,
                  const DeterministicSelector& selector,
                  sim::DeviceExecution* device);

  // Accuracy of the current model over a dataset view (eval mode).
  double evaluate(const data::DatasetView& dataset, std::int64_t batch_size = 64);

 private:
  Hyperparams hp_;
  nn::Model model_;
  std::unique_ptr<nn::Optimizer> optimizer_;
};

}  // namespace rpol::core
