// The pool's epoch loop: a sharded mining-pool manager.
//
// MiningPool (core/pool.h) holds the protocol state and exposes each epoch
// as phases; ShardedPool runs them, and is the only code that does. At
// mining-pool scale (10^3..10^4 workers, Sec. II) the manager becomes the
// bottleneck long before the workers do, so ShardedPool spreads the
// manager's work across S shards while keeping the protocol — and the bits.
//
// Workers are split into S contiguous shards; each shard owns a private
// Verifier (same sampling seed in every shard — sampled indices depend only
// on (epoch, worker), never on shard layout) and drives the per-worker
// phases of core/pool.h's phase API through runtime::parallel_for, verifying
// its workers in worker order. All cross-worker state (health, aggregation,
// WAN byte totals) stays in MiningPool::finish_epoch, which merges
// per-worker slots in worker-index order — so an epoch is bitwise identical
// at ANY shard and thread count (§6; pinned by
// tests/runtime_determinism_test.cpp). The default is one shard, where
// parallel_for runs inline.

#pragma once

#include "core/pool.h"

namespace rpol::core {

struct ShardedPoolConfig {
  PoolConfig base;
  // Manager shard count, clamped to [1, num_workers].
  int shards = 1;
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

  // One epoch: prepare -> sharded train -> sharded verify -> finish.
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
  MiningPool pool_;
  std::vector<std::unique_ptr<Verifier>> verifiers_;  // one per shard
  // Each shard verifier's model+optimizer image, for the pool's lifetime.
  obs::MemScope verifier_mem_{obs::MemTag::kCheckpoint};
};

}  // namespace rpol::core
