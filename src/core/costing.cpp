#include "core/costing.h"

#include <algorithm>
#include <stdexcept>

namespace rpol::core {

std::int64_t steps_per_worker_epoch(const CostScenario& scenario) {
  const std::int64_t examples_per_worker = static_cast<std::int64_t>(
      scenario.dataset.num_examples / scenario.num_workers);
  return std::max<std::int64_t>(1, examples_per_worker / scenario.batch_size);
}

std::int64_t checkpoints_per_epoch(const CostScenario& scenario) {
  const std::int64_t steps = steps_per_worker_epoch(scenario);
  return (steps + scenario.checkpoint_interval - 1) / scenario.checkpoint_interval +
         1;  // + initial state
}

EpochCostReport estimate_epoch_cost(const CostScenario& scenario) {
  if (scenario.num_workers == 0) throw std::invalid_argument("no workers");
  CostScenario s = scenario;
  if (s.worker_device.name.empty()) s.worker_device = sim::device_ga10();
  if (s.manager_device.name.empty()) s.manager_device = sim::device_g3090();

  EpochCostReport report;
  const double n = static_cast<double>(s.num_workers);
  const std::int64_t steps = steps_per_worker_epoch(s);
  const std::int64_t examples_per_worker = steps * s.batch_size;
  const std::uint64_t weight_bytes = s.model.weight_bytes;
  const bool is_v1 = s.scheme == Scheme::kRPoLv1;
  const bool is_v2 = s.scheme == Scheme::kRPoLv2;
  const bool verified = is_v1 || is_v2;

  // --- Compute ---------------------------------------------------------
  const double util = s.model.device_utilization_scale;
  report.worker_train_s = s.worker_device.compute_seconds(
      static_cast<double>(examples_per_worker) * s.model.train_flops_per_example /
      util);
  if (is_v2) {
    // Hashing each checkpoint: k*l projections of the weight vector,
    // 2 FLOPs per weight per projection.
    const double lsh_flops = static_cast<double>(checkpoints_per_epoch(s)) *
                             static_cast<double>(s.k_lsh) *
                             static_cast<double>(s.model.parameter_count) * 2.0;
    report.worker_lsh_s = s.worker_device.compute_seconds(lsh_flops);
  }
  if (verified) {
    // Re-execute q transitions (interval steps each) per worker.
    const double verify_examples =
        n * static_cast<double>(s.samples_q) *
        static_cast<double>(s.checkpoint_interval) *
        static_cast<double>(s.batch_size);
    report.manager_verify_s = s.manager_device.compute_seconds(
        verify_examples * s.model.train_flops_per_example / util);
  }
  if (is_v2) {
    // Adaptive calibration: the manager's own i.i.d. sub-task, trained
    // twice (top-2 devices) per epoch.
    const double manager_examples =
        static_cast<double>(s.dataset.num_examples) /
        (n + 1.0);
    report.manager_calibrate_s = 2.0 * s.manager_device.compute_seconds(
        manager_examples * s.model.train_flops_per_example / util);
  }

  // --- Communication ---------------------------------------------------
  // Every worker downloads the global model and uploads its update.
  report.download_bytes_total = static_cast<std::uint64_t>(n) * weight_bytes;
  std::uint64_t upload_per_worker = weight_bytes;  // the model update
  if (verified) {
    upload_per_worker += 32ULL * static_cast<std::uint64_t>(
        checkpoints_per_epoch(s));  // commitment hashes
    std::uint64_t proof_per_worker = 0;
    if (is_v1) {
      // q samples x (input + output) weight sets.
      proof_per_worker = static_cast<std::uint64_t>(s.samples_q) * 2ULL * weight_bytes;
    } else {
      // q samples x input weight set, plus double-checked outputs.
      proof_per_worker = static_cast<std::uint64_t>(s.samples_q) * weight_bytes;
      proof_per_worker += static_cast<std::uint64_t>(
          s.double_check_rate * static_cast<double>(s.samples_q) *
          static_cast<double>(weight_bytes));
    }
    upload_per_worker += proof_per_worker;
    report.proof_bytes_total =
        static_cast<std::uint64_t>(n) * proof_per_worker;
  }
  report.upload_bytes_total = static_cast<std::uint64_t>(n) * upload_per_worker;

  // --- Storage ---------------------------------------------------------
  if (verified) {
    report.storage_bytes_per_worker =
        static_cast<std::uint64_t>(checkpoints_per_epoch(s)) * 2ULL * weight_bytes;
    // 2x: model weights + same-sized optimizer (SGDM momentum) slots.
    if (is_v2) {
      report.storage_bytes_per_worker +=
          static_cast<std::uint64_t>(s.k_lsh) * s.model.parameter_count * 4ULL;
    }
  } else {
    report.storage_bytes_per_worker = weight_bytes;  // just the live model
  }

  // --- Epoch wall time ---------------------------------------------------
  const double t_down =
      sim::transfer_seconds(s.network, weight_bytes, s.num_workers);
  const double t_up =
      sim::transfer_seconds(s.network, upload_per_worker, s.num_workers);
  const std::size_t parallelism =
      s.manager_verify_parallelism != 0
          ? s.manager_verify_parallelism
          : std::max<std::size_t>(1, s.num_workers / 12);
  report.epoch_wall_s = t_down + report.worker_train_s + report.worker_lsh_s +
                        t_up +
                        report.manager_verify_s / static_cast<double>(parallelism);

  // --- Capital cost ------------------------------------------------------
  const double gpu_seconds = n * (report.worker_train_s + report.worker_lsh_s) +
                             report.manager_compute_s();
  report.capital.compute_usd = s.prices.compute_cost(gpu_seconds);
  report.capital.comm_usd = s.prices.comm_cost(report.upload_bytes_total);
  // Storage charged for the epoch duration expressed in months.
  const double months = report.epoch_wall_s / (30.0 * 24.0 * 3600.0);
  report.capital.storage_usd = s.prices.storage_cost(
      report.storage_bytes_per_worker * static_cast<std::uint64_t>(n),
      std::max(months, 1.0 / (30.0 * 24.0)));  // floor: one hour of storage
  return report;
}

}  // namespace rpol::core
