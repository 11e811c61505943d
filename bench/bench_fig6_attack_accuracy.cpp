// Figure 6: global-model test accuracy with and without RPoL verification
// under different attack settings.
//
// Pools of 10 workers containing a fraction (10%..90%) of adversaries:
//   * Adv1 — replays the previous global model without training;
//   * Adv2 — trains 10% of the steps and fakes the rest via Eq. (12).
// Schemes: BL (insecure baseline, everything aggregated), RPoLv1, RPoLv2
// (detected submissions excluded from aggregation).
//
// Findings to reproduce: verified pools always beat the baseline; the gap
// grows with the adversary fraction; RPoLv1 and RPoLv2 coincide.
//
// Substitution note (DESIGN.md §1): this protocol-heavy sweep (31 pool
// runs) uses the MLP-on-blobs task; the attack/aggregation dynamics are
// architecture-independent and the conv tasks exercise the same protocol in
// the Fig. 3/5 benches.

#include "bench_util.h"

namespace {
using namespace rpol;

constexpr std::size_t kWorkers = 10;
constexpr std::int64_t kEpochs = 10;

std::vector<core::WorkerSpec> build_workers(std::size_t num_adv, bool replay) {
  const auto devices = sim::all_devices();
  std::vector<core::WorkerSpec> specs;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    core::WorkerSpec spec;
    if (w < num_adv) {
      if (replay) {
        spec.policy = std::make_unique<core::ReplayPolicy>();
      } else {
        // Adv2: 10% of the training steps, rest spoofed (Sec. VII-E).
        spec.policy = std::make_unique<core::SpoofPolicy>(0.1, 0.5);
      }
    } else {
      spec.policy = std::make_unique<core::HonestPolicy>();
    }
    spec.device = devices[w % devices.size()];
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct RunResult {
  double final_accuracy = 0.0;
  std::vector<double> curve;
  std::int64_t total_rejections = 0;
};

RunResult run_pool(const bench::BenchTask& task, core::Scheme scheme,
                   std::size_t num_adv, bool replay) {
  core::PoolConfig cfg;
  cfg.scheme = scheme;
  cfg.hp = task.hp;
  cfg.epochs = kEpochs;
  cfg.samples_q = 3;
  cfg.seed = 2024;
  core::ShardedPool pool({cfg}, task.factory, task.dataset, task.split.test,
                         build_workers(num_adv, replay));
  const core::PoolRunReport report = pool.run();
  RunResult result;
  result.final_accuracy = report.final_accuracy;
  for (const auto& e : report.epochs) {
    result.curve.push_back(e.test_accuracy);
    result.total_rejections += e.rejected_count;
  }
  return result;
}

void run_attack_sweep(const bench::BenchTask& task, bool replay,
                      const char* label) {
  std::printf("\n[%s] final accuracy after %lld epochs (10 workers)\n", label,
              static_cast<long long>(kEpochs));
  std::printf("%-10s %-14s %-14s %-14s %-12s\n", "adv frac", "BL (insecure)",
              "RPoLv1", "RPoLv2", "rejections/epoch");
  for (const std::size_t num_adv : {1u, 3u, 5u, 7u, 9u}) {
    const RunResult bl = run_pool(task, core::Scheme::kBaseline, num_adv, replay);
    const RunResult v1 = run_pool(task, core::Scheme::kRPoLv1, num_adv, replay);
    const RunResult v2 = run_pool(task, core::Scheme::kRPoLv2, num_adv, replay);
    std::printf("%-10.0f %-14.4f %-14.4f %-14.4f %.1f\n",
                100.0 * static_cast<double>(num_adv) / kWorkers,
                bl.final_accuracy, v1.final_accuracy, v2.final_accuracy,
                static_cast<double>(v2.total_rejections) / kEpochs);
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 6 — global model accuracy under Adv1/Adv2, BL vs RPoLv1 vs RPoLv2",
      "Sec. VII-E Fig. 6: verified pools preserve accuracy; gap grows with "
      "the adversary fraction; v1 == v2");

  const double bench_t0 = bench::now_seconds();
  const auto task = bench::make_mlp_task(6006, /*steps=*/8, /*interval=*/2);

  // Honest reference (no adversaries).
  const RunResult honest = run_pool(*task, core::Scheme::kBaseline, 0, false);
  std::printf("\nhonest pool reference accuracy: %.4f\n", honest.final_accuracy);
  std::printf("epoch curve:");
  for (const double a : honest.curve) std::printf(" %.3f", a);
  std::printf("\n");

  run_attack_sweep(*task, /*replay=*/true, "Adv1: replay previous global model");
  run_attack_sweep(*task, /*replay=*/false, "Adv2: 10% training + Eq.(12) spoof");

  // One detailed curve (50% Adv2) to show the per-epoch divergence.
  std::printf("\n[detail] accuracy per epoch at 50%% Adv2\n");
  const RunResult bl = run_pool(*task, core::Scheme::kBaseline, 5, false);
  const RunResult v2 = run_pool(*task, core::Scheme::kRPoLv2, 5, false);
  std::printf("%-8s %-12s %-12s\n", "epoch", "BL_Adv2", "RPoLv2");
  for (std::size_t e = 0; e < bl.curve.size(); ++e) {
    std::printf("%-8zu %-12.4f %-12.4f\n", e + 1, bl.curve[e], v2.curve[e]);
  }

  bench::BenchRecorder recorder("bench_fig6");
  recorder.add("honest_pool.final_acc", "acc", honest.final_accuracy,
               /*higher_is_better=*/true);
  recorder.add("adv2_50pct.v2.final_acc", "acc", v2.final_accuracy,
               /*higher_is_better=*/true);
  recorder.add("wall_s", "s", bench::now_seconds() - bench_t0);
  recorder.write();
  return 0;
}
