// Shared helpers for the experiment-reproduction benches: task builders
// matching the paper's setups (at Mini scale) and table formatting.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (Sec. VII); see DESIGN.md's per-experiment index. Binaries
// print self-describing text tables so `for b in build/bench/*; do $b; done`
// yields a full experiment log.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "obs/benchreg.h"
#include "sim/stats.h"

namespace rpol::bench {

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Quantile summary over repeated timing samples. Quantiles come from
// sim::percentile so every number called "p50"/"p95" in this repo — bench
// tables and the trace analyzer alike — uses the same R-7 definition.
struct LatencySummary {
  double best = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double worst = 0.0;
};

// Empty input returns all zeros instead of throwing: soak benches in
// network-bound regimes can legitimately end a window with zero completed
// samples, and a summary row of zeros reads better than an aborted bench.
// Sorts ONCE and reads every quantile off the sorted sample
// (sim::percentile_sorted), instead of re-sorting per quantile.
inline LatencySummary summarize_latencies(const std::vector<double>& samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.best = sorted.front();
  s.p50 = sim::percentile_sorted(sorted, 50.0);
  s.p95 = sim::percentile_sorted(sorted, 95.0);
  s.worst = sorted.back();
  return s;
}

// A complete training task: dataset + splits + deterministic model factory.
// Heap-allocated (unique_ptr) so the split's views into the dataset stay
// valid for the task's lifetime.
struct BenchTask {
  std::string name;
  data::Dataset dataset;
  data::TrainTestSplit split;
  nn::ModelFactory factory;
  core::Hyperparams hp;
};

using BenchTaskPtr = std::unique_ptr<BenchTask>;

// "Task A": MiniResNet18 on a synthetic CIFAR-10-like set (10 classes).
// "Task B": MiniResNet50 on a synthetic CIFAR-100-like set (20 classes at
// Mini scale — 100 classes need more capacity than the Mini widths carry).
// The conv tasks run the real residual architectures; the MLP task drives
// protocol-heavy sweeps where architecture is irrelevant (DESIGN.md §1).
// Valid `which`: resnet18_c10, resnet18_c100, resnet50_c10, resnet50_c100,
// vgg16_c10.
// `phase_coded` selects fragile phase-coded classes (needed by the AMLayer
// address-replacing experiments); pass false for the robust random-carrier
// classes used in the reproduction-error experiments, where training must
// stay in the stable noise-propagation regime.
BenchTaskPtr make_conv_task(const std::string& which, std::uint64_t seed,
                            std::int64_t steps_per_epoch = 12,
                            std::int64_t checkpoint_interval = 3,
                            std::int64_t num_examples = 640,
                            bool phase_coded = true);

BenchTaskPtr make_mlp_task(std::uint64_t seed, std::int64_t steps_per_epoch = 20,
                           std::int64_t checkpoint_interval = 5);

// Collects this binary's headline numbers as rpol.bench.v1 records
// (src/obs/benchreg.h) and writes them into the benchmark registry, so the
// human-readable tables gain a machine-checkable counterpart that
// `rpol bench-diff` can gate on. Every record carries the environment
// fingerprint (thread count, build flavor, compiler).
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string bench) : bench_(std::move(bench)) {}

  // Headline scalar; `higher_is_better` steers the bench-diff direction
  // (false for latencies/bytes, true for throughput/accuracy). `threads` is
  // the thread count the measurement RAN WITH; 0 means "the ambient count at
  // add() time", which is only right when the record is added while that
  // configuration is still active. Harnesses that restore the thread count
  // before recording must pass the measurement-time value explicitly.
  void add(const std::string& name, const std::string& unit, double value,
           bool higher_is_better = false, int threads = 0);

  // Latency record: value = p50, full spread kept in stats.
  void add_latency(const std::string& name, const LatencySummary& summary,
                   int threads = 0);

  // Writes to RPOL_BENCH_FILE (or "BENCH_<bench>.json"), overlay-merging
  // over any existing file at that path so several binaries can feed one
  // registry. Returns the path written, "" on failure.
  std::string write() const;

  const obs::BenchReport& report() const { return report_; }

 private:
  std::string bench_;
  obs::BenchReport report_;
};

}  // namespace rpol::bench
