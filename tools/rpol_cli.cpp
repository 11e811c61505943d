// rpol — command-line front end to the RPoL library.
//
// Subcommands:
//   simulate    run a mining-pool simulation and print per-epoch reports
//   calibrate   run one adaptive-calibration pass (alpha/beta/LSH params)
//   economics   print Theorem-2/3 sampling tables for given parameters
//   costs       estimate real-scale epoch costs (Tables II/III model)
//   trace       summarize a JSONL trace produced with RPOL_TRACE=1
//   timeline    reconstruct per-epoch causal trees from a trace
//   health      summarize an rpol.health.v1 file (worker scores + memory)
//   bench-diff  compare two rpol.bench.v1 files with a tolerance gate
//   bench-merge overlay-merge rpol.bench.v1 files into one registry
//
// Examples:
//   rpol simulate --workers 8 --adversaries 3 --adv-type replay
//                 --scheme v2 --epochs 6
//   rpol economics --pr-beta 0.05 --target 0.01
//   rpol costs --model vgg16 --workers 100 --scheme v1
//   RPOL_TRACE=1 rpol simulate --epochs 2 && rpol trace --verify-refs
//   RPOL_TRACE=1 rpol simulate --epochs 2 && rpol health
//   rpol timeline --file rpol_trace.jsonl --export trace.perfetto.json
//   rpol bench-diff BENCH_baseline.json BENCH_current.json --tolerance 0.35
//                   --mem-tolerance 0.25
//
// `simulate` exports the registry to rpol_trace.jsonl (or RPOL_TRACE_FILE)
// when RPOL_TRACE is set; `trace`/`timeline` load and analyze such a file.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/costing.h"
#include "core/economics.h"
#include "core/rewards.h"
#include "core/sharded_pool.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/models.h"
#include "obs/analyze.h"
#include "obs/benchreg.h"
#include "obs/health.h"
#include "obs/health_read.h"
#include "obs/mem.h"
#include "obs/obs.h"
#include "obs/timeline.h"

namespace {
using namespace rpol;

// Minimal argument parser: `--key value` pairs, bare `--flag` switches
// (value "1" when the next token is another flag or the end), and anything
// without a leading `--` collected as a positional.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        positional_.emplace_back(argv[i]);
        continue;
      }
      const std::string key(argv[i] + 2);
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_.insert_or_assign(key, std::string(argv[i + 1]));
        ++i;
      } else {
        values_.insert_or_assign(key, std::string("1"));
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  long get_int(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stol(it->second);
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  bool has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

core::Scheme parse_scheme(const std::string& name) {
  if (name == "baseline") return core::Scheme::kBaseline;
  if (name == "v1") return core::Scheme::kRPoLv1;
  if (name == "v2") return core::Scheme::kRPoLv2;
  throw std::invalid_argument("unknown scheme: " + name +
                              " (want baseline|v1|v2)");
}

int cmd_simulate(const Args& args) {
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 6));
  const auto adversaries =
      static_cast<std::size_t>(args.get_int("adversaries", 2));
  const std::string adv_type = args.get("adv-type", "replay");
  const core::Scheme scheme = parse_scheme(args.get("scheme", "v2"));
  const auto epochs = args.get_int("epochs", 6);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  if (adversaries > workers) {
    throw std::invalid_argument("more adversaries than workers");
  }

  data::SyntheticBlobConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.num_examples = 4096;
  data_cfg.features = 32;
  data_cfg.class_separation = 1.2F;
  data_cfg.seed = derive_seed(seed, 1);
  const data::Dataset dataset = data::make_synthetic_blobs(data_cfg);
  const data::TrainTestSplit split =
      data::train_test_split(dataset, 0.2, derive_seed(seed, 2));

  core::PoolConfig cfg;
  cfg.scheme = scheme;
  cfg.hp.learning_rate = 0.015F;
  cfg.hp.batch_size = 32;
  cfg.hp.steps_per_epoch = 10;
  cfg.hp.checkpoint_interval = 2;
  cfg.epochs = epochs;
  cfg.seed = seed;

  std::vector<core::WorkerSpec> specs;
  const auto devices = sim::all_devices();
  for (std::size_t w = 0; w < workers; ++w) {
    core::WorkerSpec spec;
    if (w < adversaries) {
      if (adv_type == "replay") {
        spec.policy = std::make_unique<core::ReplayPolicy>();
      } else if (adv_type == "spoof") {
        spec.policy = std::make_unique<core::SpoofPolicy>(0.1, 0.5);
      } else if (adv_type == "fabricate") {
        spec.policy = std::make_unique<core::FabricationPolicy>();
      } else {
        throw std::invalid_argument("unknown adv-type (replay|spoof|fabricate)");
      }
    } else {
      spec.policy = std::make_unique<core::HonestPolicy>();
    }
    spec.device = devices[w % devices.size()];
    specs.push_back(std::move(spec));
  }

  // Peak-RSS sampling rides along only when tracing is on: the sampler is
  // pure observation, but there is no reason to spin a thread otherwise.
  // Started before the pool is built so the executors' tagged allocations
  // fall inside the sampling window.
  std::optional<obs::RssSampler> rss;
  if (obs::enabled()) rss.emplace(std::chrono::milliseconds(10));
  core::ShardedPool pool({cfg},
                         nn::mlp_factory(32, {32, 16}, 10, derive_seed(seed, 3)),
                         dataset, split.test, std::move(specs));
  std::printf("scheme=%s workers=%zu adversaries=%zu (%s) epochs=%ld\n",
              core::scheme_name(scheme).c_str(), workers, adversaries,
              adv_type.c_str(), epochs);
  std::printf("%-7s %-10s %-10s %-12s %-12s %-10s\n", "epoch", "test acc",
              "rejected", "alpha", "beta", "MB");
  const core::PoolRunReport report = pool.run();
  if (rss.has_value()) rss->stop();
  for (const auto& e : report.epochs) {
    std::printf("%-7lld %-10.4f %lld/%zu%-5s %-12.2e %-12.2e %-10.2f\n",
                static_cast<long long>(e.epoch), e.test_accuracy,
                static_cast<long long>(e.rejected_count), workers, "", e.alpha,
                e.beta,
                static_cast<double>(e.bytes_this_epoch) / (1024.0 * 1024.0));
  }
  const auto counts = core::verified_epoch_counts(report);
  const auto payout = core::distribute_rewards(10'000, counts);
  std::printf("final accuracy %.4f; reward split (10000 units, 2.5%% fee):",
              report.final_accuracy);
  for (const auto p : payout.worker_payouts) {
    std::printf(" %llu", static_cast<unsigned long long>(p));
  }
  std::printf("\n");
  const std::string trace_path = obs::maybe_export("rpol_trace.jsonl");
  if (!trace_path.empty()) {
    std::printf("trace written to %s (summarize with `rpol trace --file %s`)\n",
                trace_path.c_str(), trace_path.c_str());
  }
  obs::RssSampler::Summary rss_summary;
  if (rss.has_value()) rss_summary = rss->summary();
  const std::string health_path = obs::maybe_export_health(
      "rpol_health.jsonl", pool.pool().health(),
      rss.has_value() ? &rss_summary : nullptr);
  if (!health_path.empty()) {
    std::printf("health written to %s (summarize with `rpol health --file "
                "%s`)\n",
                health_path.c_str(), health_path.c_str());
  }
  return 0;
}

int cmd_trace(const Args& args) {
  const std::string path = args.get("file", "rpol_trace.jsonl");
  const bool strict = args.has("strict");
  const obs::Trace trace = obs::load_trace_file(path, strict);
  std::printf("trace %s: %zu spans, %zu counters, %zu histograms\n",
              path.c_str(), trace.spans.size(), trace.counters.size(),
              trace.histograms.size());
  obs::print_trace_summary(trace, stdout);
  int rc = 0;
  if (trace.skipped_lines > 0) {
    // Already detailed by print_trace_summary; --strict would have thrown
    // before reaching here, so this only flags the tolerant path's verdict.
    std::printf("note: %zu malformed line(s) skipped (rerun with --strict to "
                "fail on them)\n",
                trace.skipped_lines);
  }
  if (args.has("verify-refs")) {
    const obs::RefCheck refs = obs::verify_refs(trace);
    if (refs.ok()) {
      std::printf("verify-refs: OK — every parent/link among %zu spans "
                  "resolves in-file\n",
                  refs.total_spans);
    } else {
      std::printf("verify-refs: FAILED — %zu orphan parent(s), %zu orphan "
                  "link(s) out of %zu spans\n",
                  refs.orphan_parents.size(), refs.orphan_links.size(),
                  refs.total_spans);
      for (const auto id : refs.orphan_parents) {
        std::printf("  span %llu: parent missing\n",
                    static_cast<unsigned long long>(id));
      }
      for (const auto id : refs.orphan_links) {
        std::printf("  span %llu: link missing\n",
                    static_cast<unsigned long long>(id));
      }
      rc = 1;
    }
  }
  return rc;
}

int cmd_timeline(const Args& args) {
  const std::string path = args.get("file", "rpol_trace.jsonl");
  const obs::Trace trace = obs::load_trace_file(path, args.has("strict"));
  const obs::TimelineReport report = obs::build_timeline(trace);
  obs::print_timeline(report, stdout);
  const std::string export_path = args.get("export", "");
  if (!export_path.empty()) {
    if (!obs::export_chrome_trace_file(trace, export_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", export_path.c_str());
      return 1;
    }
    std::printf("\nChrome-trace JSON written to %s (open in Perfetto or "
                "chrome://tracing)\n",
                export_path.c_str());
  }
  return report.refs.ok() ? 0 : 1;
}

int cmd_health(const Args& args) {
  const std::string path = args.get("file", "rpol_health.jsonl");
  const obs::HealthReport report =
      obs::load_health_file(path, args.has("strict"));
  std::printf("health %s:\n", path.c_str());
  obs::print_health_report(report, stdout);
  return 0;
}

int cmd_bench_diff(const Args& args) {
  if (args.positional().size() != 2) {
    std::fprintf(stderr,
                 "usage: rpol bench-diff <baseline.json> <current.json> "
                 "[--tolerance 0.xx] [--mem-tolerance 0.xx]\n");
    return 2;
  }
  const obs::BenchReport baseline = obs::load_bench_file(args.positional()[0]);
  const obs::BenchReport current = obs::load_bench_file(args.positional()[1]);
  const double tolerance = args.get_double("tolerance", 0.35);
  // Default 0 keeps memory advisory (ratio column only, never gates).
  const double mem_tolerance = args.get_double("mem-tolerance", 0.0);
  const obs::BenchDiffResult diff =
      obs::diff_bench(baseline, current, tolerance, mem_tolerance);
  obs::print_bench_diff(diff, stdout);
  return diff.ok() ? 0 : 1;
}

int cmd_bench_merge(const Args& args) {
  const std::string out = args.get("out", "");
  if (out.empty() || args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: rpol bench-merge --out <merged.json> <in.json>...\n");
    return 2;
  }
  obs::BenchReport merged;
  for (const auto& path : args.positional()) {
    merged = obs::merge_bench_reports(merged, obs::load_bench_file(path));
  }
  if (!obs::write_bench_json_file(merged, out)) {
    std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("merged %zu file(s) -> %s (%zu records)\n",
              args.positional().size(), out.c_str(), merged.records.size());
  return 0;
}

int cmd_calibrate(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double beta_x = args.get_double("beta-x", 5.0);
  const auto k_lsh = static_cast<int>(args.get_int("k-lsh", 16));

  data::SyntheticBlobConfig data_cfg;
  data_cfg.num_examples = 2048;
  data_cfg.seed = derive_seed(seed, 1);
  const data::Dataset dataset = data::make_synthetic_blobs(data_cfg);
  const data::DatasetView view = data::DatasetView::whole(dataset);
  const nn::ModelFactory factory =
      nn::mlp_factory(32, {32, 16}, 10, derive_seed(seed, 2));
  core::Hyperparams hp;
  hp.learning_rate = 0.01F;
  hp.batch_size = 32;
  hp.steps_per_epoch = 15;
  hp.checkpoint_interval = 3;

  core::StepExecutor init(factory, hp);
  core::EpochContext ctx;
  ctx.nonce = derive_seed(seed, 3);
  ctx.initial = init.save_state();
  ctx.dataset = &view;

  core::CalibrationConfig ccfg;
  ccfg.beta_x = beta_x;
  ccfg.k_lsh = k_lsh;
  const core::CalibrationResult result = core::calibrate_epoch(
      factory, hp, ctx, sim::device_g3090(), sim::device_ga10(), seed, ccfg);
  std::printf("per-transition reproduction errors:");
  for (const double e : result.errors) std::printf(" %.3e", e);
  std::printf("\nmax error  %.4e\nalpha      %.4e\nbeta       %.4e (x%.1f)\n",
              result.max_error, result.alpha, result.beta, beta_x);
  std::printf("LSH params r=%.4f k=%d l=%d  Pr(alpha)=%.3f Pr(beta)=%.3f\n",
              result.lsh.params.r, result.lsh.params.k, result.lsh.params.l,
              result.lsh.pr_alpha, result.lsh.pr_beta);
  return 0;
}

int cmd_economics(const Args& args) {
  const double pr_beta = args.get_double("pr-beta", 0.05);
  const double target = args.get_double("target", 0.01);
  core::EconomicParams params;
  params.c_train = args.get_double("c-train", 0.88);
  params.pr_lsh_beta = pr_beta;
  std::printf("%-12s %-22s %-14s %-18s\n", "honesty h", "q (soundness target)",
              "q (economic)", "net gain @ q_econ");
  for (double h = 0.1; h <= 0.91; h += 0.1) {
    const auto q_sound = core::required_samples(target, h, pr_beta);
    const auto q_econ = core::economic_samples(h, params);
    std::printf("%-12.1f %-22lld %-14lld %-18.4f\n", h,
                static_cast<long long>(q_sound), static_cast<long long>(q_econ),
                core::expected_net_gain(h, q_econ, params));
  }
  return 0;
}

int cmd_costs(const Args& args) {
  core::CostScenario s;
  const std::string model = args.get("model", "resnet50");
  if (model == "resnet18") {
    s.model = sim::real_resnet18();
  } else if (model == "resnet50") {
    s.model = sim::real_resnet50();
  } else if (model == "vgg16") {
    s.model = sim::real_vgg16();
  } else {
    throw std::invalid_argument("unknown model (resnet18|resnet50|vgg16)");
  }
  s.dataset = sim::real_imagenet();
  s.num_workers = static_cast<std::size_t>(args.get_int("workers", 100));
  s.scheme = parse_scheme(args.get("scheme", "v2"));
  s.samples_q = args.get_int("q", 3);
  s.checkpoint_interval = args.get_int("interval", 5);

  const auto r = core::estimate_epoch_cost(s);
  const double gb = 1024.0 * 1024.0 * 1024.0;
  std::printf("%s on ImageNet, %zu workers, %s:\n", s.model.name.c_str(),
              s.num_workers, core::scheme_name(s.scheme).c_str());
  std::printf("  epoch wall time     %.0f s\n", r.epoch_wall_s);
  std::printf("  worker train        %.1f s (+%.1f s LSH)\n", r.worker_train_s,
              r.worker_lsh_s);
  std::printf("  manager compute     %.0f s (verify %.0f + calibrate %.0f)\n",
              r.manager_compute_s(), r.manager_verify_s, r.manager_calibrate_s);
  std::printf("  uploads             %.1f GB (proofs %.1f GB)\n",
              static_cast<double>(r.upload_bytes_total) / gb,
              static_cast<double>(r.proof_bytes_total) / gb);
  std::printf("  storage per worker  %.2f GB\n",
              static_cast<double>(r.storage_bytes_per_worker) / gb);
  std::printf("  capital cost        $%.2f (compute %.2f, comm %.2f, storage "
              "%.2f)\n",
              r.capital.total(), r.capital.compute_usd, r.capital.comm_usd,
              r.capital.storage_usd);
  return 0;
}

void usage() {
  std::printf(
      "rpol <command> [--flag value ...]\n"
      "commands:\n"
      "  simulate   --workers N --adversaries N --adv-type replay|spoof|fabricate\n"
      "             --scheme baseline|v1|v2 --epochs E --seed S\n"
      "  calibrate  --seed S --beta-x X --k-lsh K\n"
      "  economics  --pr-beta P --target T --c-train C\n"
      "  costs      --model resnet18|resnet50|vgg16 --workers N --scheme v1|v2\n"
      "             --q Q --interval I\n"
      "  trace      --file rpol_trace.jsonl [--strict] [--verify-refs]\n"
      "  timeline   --file rpol_trace.jsonl [--export out.perfetto.json]\n"
      "  health     --file rpol_health.jsonl [--strict]\n"
      "  bench-diff <baseline.json> <current.json> [--tolerance 0.xx]\n"
      "             [--mem-tolerance 0.xx]\n"
      "  bench-merge --out merged.json <in.json>...\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "calibrate") return cmd_calibrate(args);
    if (command == "economics") return cmd_economics(args);
    if (command == "costs") return cmd_costs(args);
    if (command == "trace") return cmd_trace(args);
    if (command == "timeline") return cmd_timeline(args);
    if (command == "health") return cmd_health(args);
    if (command == "bench-diff") return cmd_bench_diff(args);
    if (command == "bench-merge") return cmd_bench_merge(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
