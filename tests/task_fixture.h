// Shared tiny training task for protocol-level tests: an MLP on Gaussian
// blobs, small enough that full epochs take milliseconds but structured
// exactly like the paper's tasks (deterministic factory, i.i.d. partitions,
// checkpointed SGDM training on noisy simulated devices).

#pragma once

#include "core/sharded_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/models.h"

namespace rpol::testing {

struct TinyTask {
  data::Dataset dataset;
  nn::ModelFactory factory;
  core::Hyperparams hp;

  static TinyTask make(std::uint64_t seed = 21, std::int64_t steps = 10,
                       std::int64_t interval = 3) {
    data::SyntheticBlobConfig data_cfg;
    data_cfg.num_classes = 4;
    data_cfg.num_examples = 512;
    data_cfg.features = 16;
    // Moderate separation + lr: the task must NOT converge within one
    // epoch, so gradient magnitudes (and hence simulated reproduction
    // errors) stay comparable across i.i.d. sub-tasks — the regime the
    // paper's CIFAR/ImageNet tasks live in.
    data_cfg.class_separation = 1.5F;
    data_cfg.seed = derive_seed(seed, 1);

    TinyTask task{data::make_synthetic_blobs(data_cfg),
                  nn::mlp_factory(16, {16}, 4, derive_seed(seed, 2)),
                  core::Hyperparams{}};
    task.hp.learning_rate = 0.02F;
    task.hp.batch_size = 16;
    task.hp.steps_per_epoch = steps;
    task.hp.checkpoint_interval = interval;
    return task;
  }

  core::EpochContext context(std::uint64_t nonce,
                             const data::DatasetView& view) const {
    core::StepExecutor executor(factory, hp);
    core::EpochContext ctx;
    ctx.nonce = nonce;
    ctx.initial = executor.save_state();
    ctx.dataset = &view;
    return ctx;
  }
};

}  // namespace rpol::testing
