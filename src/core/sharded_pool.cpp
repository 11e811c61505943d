#include "core/sharded_pool.h"

#include <algorithm>

#include "runtime/thread_pool.h"

namespace rpol::core {

int resolve_shards(int configured, std::size_t workers) {
  const int max_shards =
      static_cast<int>(std::max<std::size_t>(workers, 1));
  return std::clamp(configured, 1, max_shards);
}

ShardedPool::ShardedPool(ShardedPoolConfig config, nn::ModelFactory factory,
                         const data::Dataset& train, data::DatasetView test,
                         std::vector<WorkerSpec> workers)
    : pool_(std::move(config.base), std::move(factory), train,
            std::move(test), std::move(workers)) {
  const int shards = resolve_shards(config.shards, pool_.num_workers());
  verifiers_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) verifiers_.push_back(pool_.make_verifier());
  verifier_mem_.set(pool_.state_bytes() * static_cast<std::uint64_t>(shards));
}

ShardRange ShardedPool::shard_range(int shard) const {
  const std::size_t n = pool_.num_workers();
  const std::size_t s = static_cast<std::size_t>(shards());
  const std::size_t i = static_cast<std::size_t>(shard);
  const std::size_t base = n / s;
  const std::size_t rem = n % s;
  ShardRange r;
  r.begin = i * base + std::min(i, rem);
  r.end = r.begin + base + (i < rem ? 1 : 0);
  return r;
}

EpochReport ShardedPool::run_epoch(std::int64_t epoch) {
  std::unique_ptr<EpochWorkspace> ws = pool_.prepare_epoch(epoch);
  // Runs fn(shard, w) for every worker: shards in parallel, each shard's
  // workers in worker order on one thread. Slots of distinct workers are
  // disjoint (pool.h), so shard threads never contend.
  auto by_shard = [&](const auto& fn) {
    runtime::parallel_for(0, shards(), 1, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        const ShardRange r = shard_range(static_cast<int>(i));
        for (std::size_t w = r.begin; w < r.end; ++w) {
          fn(static_cast<std::size_t>(i), w);
        }
      }
    });
  };
  by_shard([&](std::size_t, std::size_t w) {
    pool_.train_commit_worker(*ws, w);
  });
  // verify_worker skips kBaseline and slots with nothing to judge.
  for (auto& v : verifiers_) pool_.configure_epoch_verifier(*ws, *v);
  by_shard([&](std::size_t shard, std::size_t w) {
    pool_.verify_worker(*ws, w, *verifiers_[shard]);
  });
  return pool_.finish_epoch(*ws);
}

PoolRunReport ShardedPool::run() {
  PoolRunReport report;
  for (std::int64_t t = 0; t < pool_.config().epochs; ++t) {
    report.epochs.push_back(run_epoch(t));
    report.total_bytes += report.epochs.back().bytes_this_epoch;
    report.total_session_failures += report.epochs.back().session_failures;
    report.total_retransmissions += report.epochs.back().retransmissions;
  }
  report.final_accuracy =
      report.epochs.empty() ? 0.0 : report.epochs.back().test_accuracy;
  return report;
}

}  // namespace rpol::core
