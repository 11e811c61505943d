// Table III: performance overhead of one ResNet50/ImageNet epoch with 100
// workers — computation (manager/worker), communication, per-worker
// storage, and capital cost at the paper's Alibaba-cloud prices.
//
// Shape to reproduce (paper Table III):
//   comp  M: 0 / 180s / 240s          W: 30s everywhere
//   comm  M&W: 8.8GB / 62GB / 35.6GB  (worker->manager volume)
//   storage W: 0.09GB / 4.5GB / 5.9GB
//   capital: $2.13 / $8.49 / $5.46    (v2 ~35% cheaper than v1)

#include "bench_util.h"
#include "core/costing.h"
#include "fault/fault.h"
#include "obs/obs.h"

namespace {
using namespace rpol;

core::CostScenario make_scenario(core::Scheme scheme) {
  core::CostScenario s;
  s.scheme = scheme;
  s.model = sim::real_resnet50();
  s.dataset = sim::real_imagenet();
  s.num_workers = 100;
  return s;
}

// Runs one scheme's estimate inside a span and mirrors the headline costs
// into the metrics registry, so the bench leaves the same kind of JSONL
// artifact as a traced protocol run.
core::EpochCostReport traced_estimate(core::Scheme scheme) {
  obs::Span span("cost_estimate");
  span.attr("scheme", core::scheme_name(scheme));
  const auto r = core::estimate_epoch_cost(make_scenario(scheme));
  const std::string prefix = "table3." + core::scheme_name(scheme);
  obs::gauge(prefix + ".manager_compute_s").set(r.manager_compute_s());
  obs::gauge(prefix + ".worker_compute_s").set(r.worker_train_s + r.worker_lsh_s);
  obs::gauge(prefix + ".upload_bytes").set(static_cast<double>(r.upload_bytes_total));
  obs::gauge(prefix + ".storage_bytes")
      .set(static_cast<double>(r.storage_bytes_per_worker));
  obs::gauge(prefix + ".capital_usd").set(r.capital.total());
  span.attr("capital_usd", r.capital.total());
  return r;
}

// Variant rows: communication overhead under a lossy transport. With a
// uniform drop probability p and the session retry budget, every message is
// transmitted E[T] = sum_{i<A} p^i times in expectation (fault/fault.h), so
// upload volume scales by that factor. Mirrored into the same table3.*
// gauge namespace so BENCH_table3_obs.jsonl carries the lossy rows too.
double lossy_upload_gb(const core::EpochCostReport& r, double drop_p,
                       int max_attempts, const std::string& scheme) {
  const double factor = fault::expected_transmissions(drop_p, max_attempts);
  const double bytes = static_cast<double>(r.upload_bytes_total) * factor;
  obs::gauge("table3." + scheme + ".upload_bytes_drop5").set(bytes);
  obs::gauge("table3." + scheme + ".retransmission_factor").set(factor);
  return bytes / (1024.0 * 1024.0 * 1024.0);
}

}  // namespace

int main() {
  bench::print_header(
      "Table III — overhead of ResNet50/ImageNet, one epoch, 100 workers",
      "Sec. VII-E Table III (paper: see header of each row)");

  obs::set_enabled(true);  // this bench always leaves a trace artifact
  const auto base = traced_estimate(core::Scheme::kBaseline);
  const auto v1 = traced_estimate(core::Scheme::kRPoLv1);
  const auto v2 = traced_estimate(core::Scheme::kRPoLv2);

  auto gb = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
  };

  std::printf("\n%-26s %-20s %-14s %-14s\n", "Overhead", "Baseline (insecure)",
              "RPoLv1", "RPoLv2");
  std::printf("%-26s %-20.0f %-14.0f %-14.0f\n", "Comp. manager (s)", 0.0,
              v1.manager_compute_s(), v2.manager_compute_s());
  std::printf("%-26s %-20.0f %-14.0f %-14.0f\n", "Comp. worker (s)",
              base.worker_train_s, v1.worker_train_s + v1.worker_lsh_s,
              v2.worker_train_s + v2.worker_lsh_s);
  std::printf("%-26s %-20.1f %-14.1f %-14.1f\n", "Comm. M&W (GB, uploads)",
              gb(base.upload_bytes_total), gb(v1.upload_bytes_total),
              gb(v2.upload_bytes_total));
  {
    // Lossy-transport variant: 5% uniform drop, default retry budget.
    const fault::RetryPolicy retry;
    const double drop = 0.05;
    const double f = fault::expected_transmissions(drop, retry.max_attempts);
    std::printf("%-26s %-20.1f %-14.1f %-14.1f\n",
                "  ... under 5% drop (GB)",
                lossy_upload_gb(base, drop, retry.max_attempts, "baseline"),
                lossy_upload_gb(v1, drop, retry.max_attempts, "rpol_v1"),
                lossy_upload_gb(v2, drop, retry.max_attempts, "rpol_v2"));
    std::printf("%-26s %.2f%% expected retransmission overhead (retry "
                "budget %d)\n",
                "", 100.0 * (f - 1.0), retry.max_attempts);
  }
  std::printf("%-26s %-20.2f %-14.2f %-14.2f\n", "Storage per worker (GB)",
              gb(base.storage_bytes_per_worker), gb(v1.storage_bytes_per_worker),
              gb(v2.storage_bytes_per_worker));
  std::printf("%-26s $%-19.2f $%-13.2f $%-13.2f\n", "Capital cost (epoch)",
              base.capital.total(), v1.capital.total(), v2.capital.total());
  std::printf("%-26s %-20s %-14.2f %-14.2f\n", "  of which compute ($)", "-",
              v1.capital.compute_usd, v2.capital.compute_usd);
  std::printf("%-26s %-20.2f %-14.2f %-14.2f\n", "  of which comm ($)",
              base.capital.comm_usd, v1.capital.comm_usd, v2.capital.comm_usd);

  std::printf("\nkey ratios (paper): v2 comm %.0f%% below v1 (paper ~42%%); "
              "v2 storage %.0f%% above v1 (paper ~30%%);\n"
              "v2 capital %.0f%% below v1 (paper ~35%%)\n",
              100.0 * (1.0 - static_cast<double>(v2.upload_bytes_total) /
                                 static_cast<double>(v1.upload_bytes_total)),
              100.0 * (static_cast<double>(v2.storage_bytes_per_worker) /
                           static_cast<double>(v1.storage_bytes_per_worker) -
                       1.0),
              100.0 * (1.0 - v2.capital.total() / v1.capital.total()));

  const char* trace_path = "BENCH_table3_obs.jsonl";
  if (obs::Registry::instance().export_jsonl_file(trace_path)) {
    std::printf("\nmetrics registry exported to %s (see `rpol trace`)\n",
                trace_path);
  }

  // rpol.bench.v1 records: the cost model is deterministic, so these values
  // only move when the protocol's cost structure changes — exactly what the
  // bench-diff gate should flag.
  bench::BenchRecorder recorder("bench_table3");
  struct SchemeRow {
    const char* name;
    const core::EpochCostReport* r;
  };
  for (const SchemeRow row : {SchemeRow{"baseline", &base},
                              SchemeRow{"v1", &v1}, SchemeRow{"v2", &v2}}) {
    const std::string p = std::string("resnet50.") + row.name;
    recorder.add(p + ".manager_compute_s", "s", row.r->manager_compute_s());
    recorder.add(p + ".upload_gb", "GB", gb(row.r->upload_bytes_total));
    recorder.add(p + ".storage_gb", "GB", gb(row.r->storage_bytes_per_worker));
    recorder.add(p + ".capital_usd", "USD", row.r->capital.total());
  }

  recorder.write();
  return 0;
}
