// The pool's epoch loop: a sharded mining-pool manager with admission
// control.
//
// MiningPool (core/pool.h) holds the protocol state and exposes each epoch
// as phases; ShardedPool runs them, and is the only code that does. At
// mining-pool scale (10^3..10^4 workers, Sec. II) the manager becomes the
// bottleneck long before the workers do, so ShardedPool spreads the
// manager's work across S shards while keeping the protocol — and the bits:
//
//   * PARTITIONING  Workers are split into S contiguous shards; each shard
//     owns a private Verifier (same sampling seed in every shard — sampled
//     indices depend only on (epoch, worker), never on shard layout) and
//     drives the per-worker phases of core/pool.h's phase API through
//     runtime::parallel_for. All cross-worker state (health, aggregation,
//     network counters) stays in MiningPool::finish_epoch, which merges
//     per-worker slots in worker-index order — so an epoch is bitwise
//     identical at ANY shard and thread count (§6; pinned by
//     tests/runtime_determinism_test.cpp). The default is one shard, where
//     parallel_for runs inline.
//
//   * ADMISSION CONTROL  Each shard fronts its verifier with a bounded
//     submission queue (queue_capacity; 0 = unbounded). Submissions arrive
//     in one burst per epoch (lockstep protocol) in worker order; overflow
//     is governed by AdmissionPolicy:
//       kRequeue  the excess waits in a backlog and re-enters as the
//                 verifier drains — every submission is still verified in
//                 worker order, so verdicts match the unbounded run bitwise
//                 and only the admission counters record the pressure;
//       kReject   the excess is shed with SessionStatus::kAdmissionRejected.
//                 Shed submissions are excluded from aggregation but do NOT
//                 strike the worker's health record (manager overload is
//                 not worker misbehavior — finish_epoch skips them).
//     The verifier drains the queue in worker order. Counters surface as
//     EpochReport::admission_* and the pool.admission.* metrics
//     (docs/observability.md).

#pragma once

#include "core/pool.h"

namespace rpol::core {

// What a shard does with a submission that arrives while its queue is full.
enum class AdmissionPolicy : int {
  kRequeue = 0,  // hold in a backlog; verify once capacity frees (lossless)
  kReject,       // shed with kAdmissionRejected (load shedding)
};

struct ShardedPoolConfig {
  PoolConfig base;
  // Manager shard count, clamped to [1, num_workers].
  int shards = 1;
  // Per-shard submission-queue capacity; 0 = unbounded.
  std::size_t queue_capacity = 0;
  AdmissionPolicy overflow = AdmissionPolicy::kRequeue;
};

// Shard-count resolution used by the constructor, exposed for tests and
// harnesses: `configured` clamped to [1, workers].
int resolve_shards(int configured, std::size_t workers);

// Contiguous half-open worker range [begin, end) owned by one shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

class ShardedPool {
 public:
  ShardedPool(ShardedPoolConfig config, nn::ModelFactory factory,
              const data::Dataset& train, data::DatasetView test,
              std::vector<WorkerSpec> workers);

  // config.base.epochs epochs of run_epoch, with the run's totals.
  PoolRunReport run();

  // One epoch: prepare -> sharded train -> sharded admit+verify -> finish.
  // Bitwise identical for any shard count.
  EpochReport run_epoch(std::int64_t epoch);

  int shards() const { return static_cast<int>(verifiers_.size()); }
  // Balanced contiguous partition: the first (workers % shards) shards get
  // one extra worker.
  ShardRange shard_range(int shard) const;

  // The protocol state and phase API (health, global model, config).
  MiningPool& pool() { return pool_; }
  const MiningPool& pool() const { return pool_; }

 private:
  // Per-shard admission tallies, merged into the workspace (and from there
  // into the EpochReport) in shard order after the parallel region — shard
  // threads never write shared counters.
  struct ShardTally {
    std::int64_t enqueued = 0;
    std::int64_t requeued = 0;
    std::int64_t rejected = 0;
    std::int64_t max_depth = 0;
  };

  ShardedPoolConfig cfg_;
  MiningPool pool_;
  std::vector<std::unique_ptr<Verifier>> verifiers_;  // one per shard
  // Each shard verifier's model+optimizer image, for the pool's lifetime.
  obs::MemScope verifier_mem_{obs::MemTag::kCheckpoint};

  // Admission control + verification for one shard (runs on the shard's
  // thread; touches only this shard's slots and verifier).
  ShardTally admit_and_verify_shard(EpochWorkspace& ws, int shard);
  void publish_admission_metrics(const EpochWorkspace& ws) const;
};

}  // namespace rpol::core
