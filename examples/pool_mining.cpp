// Pool mining scenario: the workload from the paper's introduction — a
// mining pool of heterogeneous workers collaboratively trains a model for a
// PoUW task while a third of them try to freeload.
//
// Shows the high-level pool API: configure a scheme (Baseline / RPoLv1 /
// RPoLv2), register worker policies and devices, and run a ShardedPool, the
// pool's epoch loop, at its default one shard; the protocol state (health,
// global model) is read through pool(). Prints a per-epoch
// protocol report: adaptive alpha/beta, LSH parameters, detected cheaters,
// traffic, and test accuracy — then compares schemes.
//
// Run: ./build/examples/pool_mining
// With RPOL_TRACE=1 the run also writes rpol_trace.jsonl (protocol spans +
// metrics) and rpol_health.jsonl (per-worker health scores + memory
// accounting); summarize with `rpol trace` / `rpol health`.

#include <chrono>
#include <cstdio>
#include <optional>

#include "core/sharded_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "obs/health.h"
#include "obs/mem.h"
#include "obs/obs.h"

using namespace rpol;

namespace {

std::vector<core::WorkerSpec> build_workers() {
  // 9 workers: 3 replay freeloaders (Adv1), 6 honest, on mixed GPUs.
  std::vector<core::WorkerSpec> workers;
  const auto devices = sim::all_devices();
  for (std::size_t w = 0; w < 9; ++w) {
    core::WorkerSpec spec;
    if (w < 3) {
      spec.policy = std::make_unique<core::ReplayPolicy>();
    } else {
      spec.policy = std::make_unique<core::HonestPolicy>();
    }
    spec.device = devices[w % devices.size()];
    workers.push_back(std::move(spec));
  }
  return workers;
}

}  // namespace

int main() {
  // Shared task: 10-class blobs, split 80/20 train/test.
  data::SyntheticBlobConfig data_cfg;
  data_cfg.num_examples = 4096;
  data_cfg.num_classes = 10;
  data_cfg.features = 32;
  data_cfg.class_separation = 1.2F;
  const data::Dataset dataset = data::make_synthetic_blobs(data_cfg);
  const data::TrainTestSplit split = data::train_test_split(dataset, 0.2, 11);

  core::Hyperparams hp;
  hp.learning_rate = 0.015F;
  hp.batch_size = 32;
  hp.steps_per_epoch = 10;
  hp.checkpoint_interval = 2;

  const nn::ModelFactory factory = nn::mlp_factory(32, {32, 16}, 10, 5);

  double baseline_acc = 0.0;
  // Sample peak RSS while the RPoLv2 pool is built and run (write-only
  // observation); the summary rides along in the rpol.health.v1 export
  // below. The window brackets only the measured pool so its growth is
  // attributable to that pool's tagged subsystems.
  std::optional<obs::RssSampler> rss;
  for (const core::Scheme scheme :
       {core::Scheme::kBaseline, core::Scheme::kRPoLv2}) {
    core::PoolConfig cfg;
    cfg.scheme = scheme;
    cfg.hp = hp;
    cfg.epochs = 8;
    cfg.samples_q = 3;
    cfg.seed = 123;
    if (scheme == core::Scheme::kRPoLv2 && obs::enabled()) {
      rss.emplace(std::chrono::milliseconds(5));
    }
    core::ShardedPool pool({cfg}, factory, dataset, split.test,
                           build_workers());

    std::printf("\n=== scheme: %s ===\n", core::scheme_name(scheme).c_str());
    std::printf("%-7s %-10s %-10s %-12s %-12s %-10s %-10s\n", "epoch",
                "test acc", "rejected", "alpha", "beta", "LSH(k,l)", "MB/epoch");
    const core::PoolRunReport report = pool.run();
    for (const auto& e : report.epochs) {
      char lsh_desc[16] = "-";
      if (scheme == core::Scheme::kRPoLv2) {
        std::snprintf(lsh_desc, sizeof lsh_desc, "(%d,%d)", e.lsh_params.k,
                      e.lsh_params.l);
      }
      std::printf("%-7lld %-10.4f %lld/9%-6s %-12.2e %-12.2e %-10s %-10.2f\n",
                  static_cast<long long>(e.epoch), e.test_accuracy,
                  static_cast<long long>(e.rejected_count), "",
                  e.alpha, e.beta, lsh_desc,
                  static_cast<double>(e.bytes_this_epoch) / (1024.0 * 1024.0));
    }
    if (scheme == core::Scheme::kBaseline) {
      baseline_acc = report.final_accuracy;
    } else {
      std::printf("\nRPoLv2 final accuracy %.4f vs insecure baseline %.4f "
                  "(freeloaders excluded every epoch)\n",
                  report.final_accuracy, baseline_acc);
      // Export per-worker health + memory accounting from the RPoLv2 pool
      // (the pool is loop-scoped, so export before it is destroyed).
      if (rss.has_value()) rss->stop();
      obs::RssSampler::Summary rss_summary;
      if (rss.has_value()) rss_summary = rss->summary();
      const std::string health_path = obs::maybe_export_health(
          "rpol_health.jsonl", pool.pool().health(),
          rss.has_value() ? &rss_summary : nullptr);
      if (!health_path.empty()) {
        std::printf("health written to %s (summarize with `rpol health`)\n",
                    health_path.c_str());
      }
    }
  }
  const std::string trace_path = obs::maybe_export("rpol_trace.jsonl");
  if (!trace_path.empty()) {
    std::printf("trace written to %s (summarize with `rpol trace`)\n",
                trace_path.c_str());
  }
  return 0;
}
