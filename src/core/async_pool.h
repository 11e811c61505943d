// Asynchronous pooled learning — the paper's remaining future-work item
// ("this work focuses on data-parallelism-based distributed learning with
// synchronous model updating ... how to support other learning paradigms
// will be studied in the future", Sec. II-A).
//
// Workers run at their own cadence: a worker grabs the current global state,
// trains a full local epoch (its speed determines how many scheduler ticks
// that takes), and submits whenever it finishes. The manager verifies each
// submission with the standard RPoL machinery — nothing about commitments,
// sampling, or re-execution changes, because each submission is
// self-contained (base state + nonce + trace) — and applies accepted
// updates immediately with staleness-discounted weights:
//
//   theta <- theta + eta * gamma^staleness * (theta_w - base_w)
//
// where staleness counts how many global updates landed while the worker
// was training. This is the classic async-SGD staleness discount; gamma = 1
// recovers undiscounted Hogwild-style application.

#pragma once

#include "core/verifier.h"
#include "fault/fault.h"
#include "obs/health.h"

namespace rpol::core {

struct AsyncWorkerSpec {
  std::unique_ptr<WorkerPolicy> policy;
  sim::DeviceProfile device;
  // Scheduler ticks one local epoch takes on this worker (>= 1): slower
  // hardware => larger period => staler submissions.
  std::int64_t period = 1;
};

struct AsyncPoolConfig {
  Hyperparams hp;
  std::int64_t ticks = 20;             // total scheduler ticks to simulate
  std::int64_t samples_q = 3;
  double beta = 1e-3;                  // verification distance threshold
  double eta = 1.0;                    // global learning rate
  double staleness_discount = 0.6;     // gamma
  std::uint64_t seed = 7;
  bool verify = true;                  // false = insecure async baseline
  // Fault environment on the submission path (nullptr = lossless). A
  // submission that exhausts the retry budget is lost for that cadence slot;
  // eviction_threshold consecutive failed submissions OF ONE KIND (all lost
  // to transport, or all verify-rejected — obs/health.h keeps the two strike
  // budgets separate) retire the worker and the pool keeps ticking with the
  // survivors.
  const fault::FaultPlan* fault_plan = nullptr;
  fault::RetryPolicy retry;
  std::int64_t eviction_threshold = 3;
};

struct AsyncSubmission {
  std::int64_t tick = 0;        // when it was applied
  std::size_t worker = 0;
  std::int64_t staleness = 0;   // global updates since the worker's base
  bool accepted = false;
  bool delivered = true;        // false: lost to transport, never verified
};

struct AsyncRunReport {
  std::vector<AsyncSubmission> submissions;
  std::vector<double> accuracy_curve;  // test accuracy after each tick
  double final_accuracy = 0.0;
  std::int64_t rejected = 0;
  std::int64_t applied = 0;
  std::int64_t lost = 0;               // submissions lost to transport
  std::int64_t retransmissions = 0;
  std::int64_t evicted_workers = 0;    // evicted by the end of the run
};

class AsyncMiningPool {
 public:
  AsyncMiningPool(AsyncPoolConfig config, nn::ModelFactory factory,
                  const data::Dataset& train, data::DatasetView test,
                  std::vector<AsyncWorkerSpec> workers);

  AsyncRunReport run();

  const std::vector<float>& global_model() const { return global_model_; }
  bool worker_evicted(std::size_t worker) const {
    return health_.evicted(worker);
  }
  // Per-worker health scores and windowed submission stats (obs/health.h);
  // the eviction strike counters live here too.
  const obs::HealthRegistry& health() const { return health_; }

 private:
  struct InFlight {
    TrainState base;
    std::uint64_t nonce = 0;
    std::int64_t started_at_version = 0;
    std::int64_t finish_tick = 0;
  };

  AsyncPoolConfig config_;
  nn::ModelFactory factory_;
  data::DatasetView test_;
  std::vector<data::DatasetView> partitions_;
  std::vector<AsyncWorkerSpec> workers_;
  std::vector<InFlight> jobs_;

  StepExecutor manager_executor_;
  std::unique_ptr<Verifier> verifier_;
  std::vector<float> global_model_;
  std::vector<float> fresh_optimizer_;
  std::int64_t global_version_ = 0;
  obs::HealthRegistry health_;

  TrainState current_state() const;
};

}  // namespace rpol::core
