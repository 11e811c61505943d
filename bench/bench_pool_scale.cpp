// Sharded-manager scale bench: submissions/sec and peak RSS for a
// mining-pool-sized worker set (ISSUE 10 / Sec. II's 10^3..10^4 regime)
// driven through core/sharded_pool.h with bounded admission queues.
//
// Two regimes bracket the manager's operating envelope:
//   * verifier_bound  — lossless transport: wall time is dominated by
//     sampled re-execution, i.e. the work the shards exist to spread;
//   * network_bound   — a drop/delay-heavy fault plan: sessions burn their
//     retry budgets, so the manager spends its time on retransmitted legs
//     and failed sessions rather than verification.
//
// Emits rpol.bench.v1 rows (obs/benchreg.h): per-regime submissions/sec
// (higher is better) plus an explicit peak-RSS row, so the tier-1 advisory
// bench-diff can flag both throughput and memory regressions
// (`rpol bench-diff --mem-tolerance`). Every record's env column also
// carries peak_rss_bytes automatically.
//
// Scale knobs: --workers N (default 1024, the ISSUE's >= 1k floor),
// --epochs N (default 2), --shards N (default 8).

#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/sharded_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fault/fault.h"
#include "nn/models.h"
#include "obs/mem.h"

namespace {
using namespace rpol;

struct ScaleConfig {
  std::size_t workers = 1024;
  std::int64_t epochs = 2;
  int shards = 8;
};

struct RegimeResult {
  double subs_per_s = 0.0;
  double wall_s = 0.0;
  std::int64_t submissions = 0;       // sessions that completed every leg
  std::int64_t accepted = 0;
  std::int64_t session_failures = 0;
  std::int64_t retransmissions = 0;
  std::int64_t requeued = 0;
  std::int64_t max_queue_depth = 0;
  std::uint64_t wan_bytes = 0;
};

// One full sharded run; submissions/sec counts sessions the manager fully
// processed (delivered AND verified) per wall-clock second.
RegimeResult run_regime(const ScaleConfig& scale,
                        const fault::FaultPlan* plan) {
  // The per-worker task is deliberately tiny: the bench loads the MANAGER
  // (admission, sharded verification, health bookkeeping), not the workers.
  data::SyntheticBlobConfig data_cfg;
  data_cfg.num_classes = 4;
  data_cfg.num_examples = static_cast<std::int64_t>(8 * (scale.workers + 1));
  data_cfg.features = 8;
  data_cfg.class_separation = 1.5F;
  data_cfg.seed = 9001;
  const data::Dataset dataset = data::make_synthetic_blobs(data_cfg);
  const data::TrainTestSplit split =
      data::train_test_split(dataset, 0.125, 17);

  core::ShardedPoolConfig cfg;
  cfg.base.scheme = core::Scheme::kRPoLv2;
  cfg.base.hp.learning_rate = 0.02F;
  cfg.base.hp.batch_size = 8;
  cfg.base.hp.steps_per_epoch = 2;
  cfg.base.hp.checkpoint_interval = 1;
  cfg.base.epochs = scale.epochs;
  cfg.base.samples_q = 1;
  cfg.base.seed = 71;
  cfg.base.fault_plan = plan;
  cfg.base.eviction_threshold = 3;
  cfg.shards = scale.shards;
  cfg.queue_capacity = 64;
  cfg.overflow = core::AdmissionPolicy::kRequeue;

  std::vector<core::WorkerSpec> workers;
  const auto devices = sim::all_devices();
  for (std::size_t w = 0; w < scale.workers; ++w) {
    core::WorkerSpec spec;
    spec.policy = std::make_unique<core::HonestPolicy>();
    spec.device = devices[w % devices.size()];
    workers.push_back(std::move(spec));
  }

  core::ShardedPool pool(std::move(cfg), nn::mlp_factory(8, {8}, 4, 33),
                         dataset, split.test, std::move(workers));

  const double start = bench::now_seconds();
  const core::PoolRunReport report = pool.run();
  const double wall = bench::now_seconds() - start;

  RegimeResult r;
  r.wall_s = wall;
  for (const core::EpochReport& epoch : report.epochs) {
    for (const bool p : epoch.participated) r.submissions += p ? 1 : 0;
    for (const bool a : epoch.accepted) r.accepted += a ? 1 : 0;
    r.session_failures += epoch.session_failures;
    r.retransmissions += epoch.retransmissions;
    r.requeued += epoch.admission_requeued;
    r.max_queue_depth = std::max(r.max_queue_depth, epoch.max_queue_depth);
    r.wan_bytes += epoch.bytes_this_epoch;
  }
  r.subs_per_s = wall > 0.0 ? static_cast<double>(r.submissions) / wall : 0.0;
  return r;
}

void print_regime(const char* name, const RegimeResult& r) {
  std::printf("%-16s %10.0f subs/s  wall %6.2fs  verified %6lld  "
              "failed %5lld  retrans %6lld  requeued %6lld  depth<=%lld  "
              "WAN %.1f MB\n",
              name, r.subs_per_s, r.wall_s,
              static_cast<long long>(r.submissions),
              static_cast<long long>(r.session_failures),
              static_cast<long long>(r.retransmissions),
              static_cast<long long>(r.requeued),
              static_cast<long long>(r.max_queue_depth),
              static_cast<double>(r.wan_bytes) / (1024.0 * 1024.0));
}

}  // namespace

int main(int argc, char** argv) {
  ScaleConfig scale;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      scale.workers = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      scale.epochs = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      scale.shards = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--workers N] [--epochs N] [--shards N]\n",
                   argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "Pool scale — sharded manager throughput at " +
          std::to_string(scale.workers) + " workers, " +
          std::to_string(scale.shards) + " shards",
      "Sec. II mining-pool scale (10^3..10^4 workers), ISSUE 10 tentpole");

  // Verifier-bound: perfect transport, all time in sampled re-execution.
  const RegimeResult verifier_bound = run_regime(scale, nullptr);

  // Network-bound: heavy drop/delay burns retry budgets on every leg.
  fault::FaultProfile lossy;
  lossy.drop = 0.25;
  lossy.delay = 0.10;
  const fault::FaultPlan plan = fault::FaultPlan::transport(lossy, 4242);
  const RegimeResult network_bound = run_regime(scale, &plan);

  std::printf("\n%zu workers over %d shards, %lld epochs, queue cap 64 "
              "(requeue)\n\n",
              scale.workers, scale.shards,
              static_cast<long long>(scale.epochs));
  print_regime("verifier_bound", verifier_bound);
  print_regime("network_bound", network_bound);

  const std::uint64_t peak_rss = obs::read_proc_rss().vm_hwm_bytes;
  std::printf("\npeak RSS: %.1f MB\n",
              static_cast<double>(peak_rss) / (1024.0 * 1024.0));

  bench::BenchRecorder recorder("bench_pool_scale");
  recorder.add("pool.scale.verifier_bound.subs_per_s", "subs/s",
               verifier_bound.subs_per_s, /*higher_is_better=*/true);
  recorder.add("pool.scale.network_bound.subs_per_s", "subs/s",
               network_bound.subs_per_s, /*higher_is_better=*/true);
  recorder.add("pool.scale.network_bound.retransmissions", "count",
               static_cast<double>(network_bound.retransmissions));
  recorder.add("pool.scale.peak_rss_bytes", "bytes",
               static_cast<double>(peak_rss));
  const std::string path = recorder.write();
  if (!path.empty()) std::printf("bench registry: %s\n", path.c_str());
  return 0;
}
