#include "core/sharded_pool.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "obs/obs.h"
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
    : cfg_(std::move(config)),
      pool_(cfg_.base, std::move(factory), train, std::move(test),
            std::move(workers)) {
  const int shards = resolve_shards(cfg_.shards, pool_.num_workers());
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

ShardedPool::ShardTally ShardedPool::admit_and_verify_shard(EpochWorkspace& ws,
                                                           int shard) {
  ShardTally tally;
  if (!ws.needs_rpol) return tally;  // kBaseline: no verification, no queue
  const ShardRange r = shard_range(shard);
  Verifier& verifier = *verifiers_[static_cast<std::size_t>(shard)];

  // Arrival burst: every surviving submission of the shard, in worker
  // order (the lockstep protocol delivers them all at the end of the
  // training phase). Worker order in, worker order out — so under
  // kRequeue the verification ORDER is independent of queue_capacity and
  // the verdict stream matches the unbounded run bitwise.
  const std::size_t cap = cfg_.queue_capacity == 0
                              ? std::numeric_limits<std::size_t>::max()
                              : cfg_.queue_capacity;
  std::deque<std::size_t> queue;
  std::deque<std::size_t> backlog;
  for (std::size_t w = r.begin; w < r.end; ++w) {
    EpochWorkspace::WorkerSlot& slot = ws.slots[w];
    // Lost sessions and submissions rejected before verification never
    // reach the queue.
    if (!slot.awaits_verdict()) continue;
    if (queue.size() < cap) {
      queue.push_back(w);
      ++tally.enqueued;
      tally.max_depth = std::max(tally.max_depth,
                                 static_cast<std::int64_t>(queue.size()));
    } else if (cfg_.overflow == AdmissionPolicy::kRequeue) {
      slot.status = SessionStatus::kRequeued;
      backlog.push_back(w);
      ++tally.requeued;
    } else {
      // Load shedding: delivered but never judged. finish_epoch excludes
      // the submission from aggregation AND from health strikes.
      slot.status = SessionStatus::kAdmissionRejected;
      slot.accepted = false;
      ++tally.rejected;
    }
  }

  // Drain in order, readmitting from the backlog as capacity frees
  // (kRequeue keeps submissions alive; kReject already shed its overflow at
  // arrival, so its backlog is empty).
  while (!queue.empty()) {
    const std::size_t w = queue.front();
    queue.pop_front();
    pool_.verify_worker(ws, w, verifier);
    while (!backlog.empty() && queue.size() < cap) {
      queue.push_back(backlog.front());
      backlog.pop_front();
      ++tally.enqueued;  // a requeued submission enqueues twice by design
      tally.max_depth = std::max(tally.max_depth,
                                 static_cast<std::int64_t>(queue.size()));
    }
  }
  return tally;
}

void ShardedPool::publish_admission_metrics(const EpochWorkspace& ws) const {
  // Decision-blind telemetry (§6): counters mirror what the report already
  // states; nothing downstream reads them back.
  if (ws.admission_enqueued > 0) {
    obs::count("pool.admission.enqueued",
               static_cast<std::uint64_t>(ws.admission_enqueued));
  }
  if (ws.admission_requeued > 0) {
    obs::count("pool.admission.requeued",
               static_cast<std::uint64_t>(ws.admission_requeued));
  }
  if (ws.admission_rejected > 0) {
    obs::count("pool.admission.rejected",
               static_cast<std::uint64_t>(ws.admission_rejected));
  }
  if (obs::enabled()) {
    obs::gauge("pool.admission.max_queue_depth")
        .set(static_cast<double>(ws.max_queue_depth));
  }
}

EpochReport ShardedPool::run_epoch(std::int64_t epoch) {
  const int s = shards();
  std::unique_ptr<EpochWorkspace> ws = pool_.prepare_epoch(epoch);

  // Steps 1-2, sharded: slots of distinct workers are disjoint (pool.h),
  // so shard threads never contend.
  runtime::parallel_for(0, s, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const ShardRange r = shard_range(static_cast<int>(i));
      for (std::size_t w = r.begin; w < r.end; ++w) {
        pool_.train_commit_worker(*ws, w);
      }
    }
  });

  // Step 3, sharded: per-shard verifier + bounded admission queue.
  for (auto& v : verifiers_) pool_.configure_epoch_verifier(*ws, *v);
  std::vector<ShardTally> tallies(static_cast<std::size_t>(s));
  runtime::parallel_for(0, s, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      tallies[static_cast<std::size_t>(i)] =
          admit_and_verify_shard(*ws, static_cast<int>(i));
    }
  });
  for (const ShardTally& t : tallies) {
    ws->admission_enqueued += t.enqueued;
    ws->admission_requeued += t.requeued;
    ws->admission_rejected += t.rejected;
    ws->max_queue_depth = std::max(ws->max_queue_depth, t.max_depth);
  }

  publish_admission_metrics(*ws);
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
