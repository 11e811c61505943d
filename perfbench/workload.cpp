// Workload runner: runs ONE workload in this process and writes its
// measurements as JSON (read by run.py, which owns the benchmark command
// line, the correctness gate and the final report).
//
//   perfbench_workload --workload conv_pool|wide_stream|session_wire
//                    --seed N --seconds T --mode untraced|traced|gate
//                    --out result.json --scratch DIR [--short]
//
// Modes:
//   untraced  end-to-end run with tracing off: ShardedPool::run_epoch at
//             the default shard count, or run_protocol_session rounds;
//   traced    the same schedule with obs enabled, driven through the pool's
//             phase API with a benchmark span around every call, followed
//             by standalone probes of the layers below the pool; exports
//             the spans as rpol.trace.v2 JSONL;
//   gate      a traced phase-API run of the warm-up unit only, used for
//             its fingerprint (decision-blindness check).
// An untraced run sets up several times and reports the median set-up time.
//
// Every unit of work (a pool epoch, or a round of sessions) records a
// fingerprint: the SHA-256 of the global model after it, every submission's
// status, and the manager<->worker bytes. Exact metrics are computed over a
// fixed schedule (warm-up + min_units), so they depend on the seed only;
// units past it run while --seconds lasts and only add timing samples.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/calibrate.h"
#include "core/ckptstore.h"
#include "core/session.h"
#include "core/sharded_pool.h"
#include "core/wire.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "metrics.h"
#include "nn/loss.h"
#include "obs/timeline.h"
#include "runtime/thread_pool.h"

namespace rpol::perfbench {
namespace {

using core::SessionStatus;

constexpr int kThreads = 2;
constexpr std::size_t kChunkBytes = 64 * 1024;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Mode { kUntraced, kTraced, kGate };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Mode mode = Mode::kUntraced;
  std::string out;
  std::string scratch;
  bool short_run = false;    // exact schedule of one timed unit
  bool warmup_only = false;  // stop after the warm-up unit
};

// ---------------------------------------------------------------------------
// Peers and their expected outcomes.

enum class Peer { kHonest, kReplay, kSpoof, kStale, kForged, kWithhold, kOversized };

const char* peer_name(Peer p) {
  switch (p) {
    case Peer::kHonest: return "honest";
    case Peer::kReplay: return "replay";
    case Peer::kSpoof: return "spoof";
    case Peer::kStale: return "stale_commitment";
    case Peer::kForged: return "forged_state";
    case Peer::kWithhold: return "proof_withholding";
    case Peer::kOversized: return "oversized_payload";
  }
  return "?";
}

bool is_honest(Peer p) { return p == Peer::kHonest; }

std::unique_ptr<core::WorkerPolicy> make_policy(Peer p) {
  switch (p) {
    case Peer::kReplay: return std::make_unique<core::ReplayPolicy>();
    case Peer::kSpoof: return std::make_unique<core::SpoofPolicy>(0.5);
    default: return std::make_unique<core::HonestPolicy>();
  }
}

fault::Byzantine byzantine_of(Peer p) {
  switch (p) {
    case Peer::kStale: return fault::Byzantine::kStaleCommitmentReplay;
    case Peer::kForged: return fault::Byzantine::kForgedCheckpointState;
    case Peer::kWithhold: return fault::Byzantine::kProofWithholding;
    case Peer::kOversized: return fault::Byzantine::kOversizedPayload;
    default: return fault::Byzantine::kNone;
  }
}

// ---------------------------------------------------------------------------
// Results.

struct Fingerprint {
  std::string model_sha;
  std::string statuses;  // per submission: core::SessionStatus digit, E = threw
  std::uint64_t wan_bytes = 0;
};

struct Result {
  std::vector<TimedUnit> units;
  std::vector<Fingerprint> prints;
  std::int64_t deterministic_units = 0;
  VerdictTally tally;
  std::int64_t replay_accepted = 0;
  std::uint64_t wan_bytes = 0;  // over the deterministic units
  double final_accuracy = 0.0;
  double setup_s = 0.0;
  double data_build_s = 0.0;
  std::map<std::string, double> layers;  // traced mode
  double phase_coverage = -1.0;          // traced mode, -1 = not measured
  std::vector<std::string> report;       // human-readable lines
};

std::string model_sha(const std::vector<float>& model) {
  Sha256 h;
  core::update_with_floats(h, model);
  return digest_to_hex(h.finish());
}

void add_line(Result& r, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void add_line(Result& r, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  r.report.emplace_back(buf);
}

// Median with its sample count, recorded as a per-layer metric and a line.
void put_median(Result& r, const std::string& name, const std::string& unit,
                const std::vector<double>& samples, double scale = 1.0) {
  const double m = median(samples) * scale;
  r.layers[name] = m;
  add_line(r, "  %-34s %12.6g %-6s (median, n=%zu)", name.c_str(), m,
           unit.c_str(), samples.size());
}

void put_value(Result& r, const std::string& name, const std::string& unit,
               double v, const char* how) {
  r.layers[name] = v;
  add_line(r, "  %-34s %12.6g %-6s (%s)", name.c_str(), v, unit.c_str(), how);
}

// ---------------------------------------------------------------------------
// Data.

struct TaskData {
  data::Dataset full;        // train + test examples
  data::TrainTestSplit split;
  data::Dataset train;       // the train view, materialized for the pool
};

std::unique_ptr<TaskData> finish_task_data(data::Dataset full,
                                           std::uint64_t split_seed) {
  auto d = std::make_unique<TaskData>();
  d->full = std::move(full);
  d->split = data::train_test_split(d->full, 0.2, split_seed);
  const data::DatasetView& tv = d->split.train;
  const std::int64_t numel = d->full.example_numel();
  std::vector<float> examples(static_cast<std::size_t>(tv.size() * numel));
  std::vector<std::int64_t> labels(static_cast<std::size_t>(tv.size()));
  for (std::int64_t i = 0; i < tv.size(); ++i) {
    d->full.copy_example(tv.parent_index(i),
                         examples.data() + static_cast<std::size_t>(i * numel));
    labels[static_cast<std::size_t>(i)] = d->full.label(tv.parent_index(i));
  }
  d->train = data::Dataset(d->full.example_shape(), std::move(examples),
                           std::move(labels), d->full.num_classes());
  return d;
}

// ---------------------------------------------------------------------------
// Workload definitions. Why each exists is in README.md.

struct Workload {
  std::unique_ptr<TaskData> data;
  nn::ModelFactory factory;
  core::ShardedPoolConfig pool;      // pool workloads (and the pool probe)
  std::vector<Peer> peers;
  std::vector<sim::DeviceProfile> devices;
  std::int64_t min_units = 1;        // timed units in the exact schedule
  std::int64_t max_units = 1;
  bool sessions = false;             // session_wire
  core::Hyperparams hp;
};

std::vector<sim::DeviceProfile> spread_devices(std::size_t n) {
  const std::vector<sim::DeviceProfile> all = sim::all_devices();
  std::vector<sim::DeviceProfile> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(all[i % all.size()]);
  return out;
}

core::PoolConfig base_pool_config(std::uint64_t seed, const core::Hyperparams& hp) {
  core::PoolConfig cfg;
  cfg.scheme = core::Scheme::kRPoLv2;
  cfg.hp = hp;
  cfg.samples_q = 3;
  cfg.calibrate_every_epoch = true;
  cfg.seed = derive_seed(seed, 0x9001);
  // Above any epoch count a run reaches, so adversaries are judged in every
  // timed epoch instead of being evicted partway through.
  cfg.eviction_threshold = 1000000;
  return cfg;
}

Workload make_conv_pool(std::uint64_t seed) {
  Workload w;
  data::SyntheticImageConfig dc;
  dc.num_classes = 10;
  dc.num_examples = 1600;
  dc.channels = 3;
  dc.image_size = 16;
  dc.noise_stddev = 0.8F;
  dc.seed = derive_seed(seed, 0xDA);
  w.data = finish_task_data(data::make_synthetic_images(dc), derive_seed(seed, 0x51));
  nn::ModelConfig mc;
  mc.image_size = 16;
  mc.num_classes = 10;
  mc.width = 8;
  mc.seed = derive_seed(seed, 0x30);
  w.factory = nn::mini_resnet18_factory(mc, 1);
  w.hp.learning_rate = 0.05F;
  w.hp.batch_size = 32;
  w.hp.steps_per_epoch = 12;
  w.hp.checkpoint_interval = 3;
  w.pool.base = base_pool_config(seed, w.hp);
  w.peers = {Peer::kHonest, Peer::kHonest, Peer::kHonest,
             Peer::kHonest, Peer::kReplay, Peer::kSpoof};
  w.devices = spread_devices(w.peers.size());
  w.min_units = 4;
  w.max_units = 40;
  return w;
}

Workload make_wide_stream(std::uint64_t seed) {
  Workload w;
  data::SyntheticBlobConfig dc;
  dc.num_classes = 10;
  dc.num_examples = 2500;
  dc.features = 64;
  dc.class_separation = 1.5F;
  dc.seed = derive_seed(seed, 0xDA);
  w.data = finish_task_data(data::make_synthetic_blobs(dc), derive_seed(seed, 0x51));
  w.factory = nn::mlp_factory(64, {512, 512}, 10, derive_seed(seed, 0x30));
  w.hp.learning_rate = 0.02F;
  w.hp.batch_size = 64;
  w.hp.steps_per_epoch = 20;
  w.hp.checkpoint_interval = 1;
  w.pool.base = base_pool_config(seed, w.hp);
  w.pool.base.streaming = true;
  w.pool.base.compact_commitments = true;
  // A few 2.4 MB checkpoints: every sampled fetch is a cold read.
  w.pool.base.ckpt_budget_bytes = 8ULL << 20;
  // Pool stores spill to TMPDIR, which run.py points into its scratch dir.
  w.peers = {Peer::kHonest, Peer::kHonest, Peer::kHonest, Peer::kSpoof};
  w.devices = spread_devices(w.peers.size());
  w.min_units = 5;
  w.max_units = 40;
  return w;
}

Workload make_session_wire(std::uint64_t seed) {
  Workload w;
  w.sessions = true;
  data::SyntheticBlobConfig dc;
  dc.num_classes = 10;
  dc.num_examples = 2000;
  dc.features = 64;
  dc.class_separation = 1.5F;
  dc.seed = derive_seed(seed, 0xDA);
  w.data = finish_task_data(data::make_synthetic_blobs(dc), derive_seed(seed, 0x51));
  w.factory = nn::mlp_factory(64, {512, 512}, 10, derive_seed(seed, 0x30));
  w.hp.learning_rate = 0.02F;
  w.hp.batch_size = 32;
  w.hp.steps_per_epoch = 4;
  w.hp.checkpoint_interval = 1;
  w.pool.base = base_pool_config(seed, w.hp);
  w.pool.base.samples_q = 2;
  w.peers = {Peer::kHonest, Peer::kHonest, Peer::kReplay,  Peer::kSpoof,
             Peer::kStale,  Peer::kForged, Peer::kWithhold, Peer::kOversized};
  w.devices = spread_devices(w.peers.size());
  w.min_units = 3;
  w.max_units = 40;
  return w;
}

// ---------------------------------------------------------------------------
// Unit bookkeeping shared by the pool and session loops.

Outcome outcome_of(SessionStatus s) {
  return static_cast<Outcome>(static_cast<int>(s));
}

struct UnitOutcome {
  double seconds = 0.0;
  std::vector<Outcome> statuses;
  std::uint64_t wan_bytes = 0;
  std::string model_sha;
  double accuracy = 0.0;
};

void record_unit(Result& r, const Workload& w, std::int64_t unit,
                 const UnitOutcome& u, const std::vector<Peer>& peers) {
  TimedUnit t;
  t.warmup = unit == 0;
  t.seconds = u.seconds;
  t.submissions = static_cast<std::int64_t>(u.statuses.size());
  r.units.push_back(t);
  Fingerprint f;
  f.model_sha = u.model_sha;
  f.wan_bytes = u.wan_bytes;
  for (Outcome s : u.statuses) {
    f.statuses.push_back(s == Outcome::kError ? 'E'
                                               : static_cast<char>('0' + static_cast<int>(s)));
  }
  r.prints.push_back(f);
  if (unit > w.min_units) return;  // past the exact schedule: timing only
  r.deterministic_units = unit + 1;
  r.wan_bytes += u.wan_bytes;
  r.final_accuracy = u.accuracy;
  for (std::size_t i = 0; i < u.statuses.size(); ++i) {
    const Peer p = peers[i % peers.size()];
    r.tally.record(is_honest(p), u.statuses[i]);
    if (p == Peer::kReplay && u.statuses[i] == Outcome::kAccepted) {
      ++r.replay_accepted;
    }
  }
}

// Keeps running units until the exact schedule is done and --seconds of
// timed work have passed (capped at max_units).
bool want_more(const Workload& w, const Options& o, std::int64_t next_unit,
               double timed_s) {
  if (next_unit == 0) return true;
  if (o.warmup_only) return false;
  if (next_unit <= w.min_units) return true;
  return !o.short_run && next_unit <= w.max_units && timed_s < o.seconds;
}

// ---------------------------------------------------------------------------
// Pool workloads.

std::vector<core::WorkerSpec> make_workers(const Workload& w) {
  std::vector<core::WorkerSpec> workers;
  for (std::size_t i = 0; i < w.peers.size(); ++i) {
    workers.push_back({make_policy(w.peers[i]), w.devices[i]});
  }
  return workers;
}

// Phase-level timings of a traced pool run, per timed (non-warm-up) unit.
struct PoolTrace {
  std::vector<double> prepare, train_commit, verify, finish, submission;
  double train_total = 0.0, verify_total = 0.0;
  std::int64_t subs = 0;          // deterministic-prefix submissions
  std::int64_t reexec_steps = 0;  // deterministic prefix
  std::int64_t double_checks = 0;
  std::int64_t retransmissions = 0;
  std::uint64_t proof_bytes = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t reloads = 0;
  std::uint64_t hot_peak = 0;
  std::map<Outcome, std::int64_t> status_counts;
  std::optional<lsh::LshConfig> lsh;  // last epoch's LSH family
  core::TrainState global;             // global state after the run
};

// Drives the pool. Untraced: ShardedPool::run_epoch. Traced/gate: the
// phase API through ShardedPool::pool(), one benchmark span per call,
// nested epoch -> phase -> worker.
void run_pool(const Options& o, const Workload& w, core::ShardedPool& pool,
              Result& r, PoolTrace* pt, double t_start) {
  core::MiningPool& mp = pool.pool();
  const bool phased = o.mode != Mode::kUntraced;
  std::unique_ptr<core::Verifier> verifier;
  if (phased) verifier = mp.make_verifier();
  double timed_s = 0.0;
  for (std::int64_t e = 0; want_more(w, o, e, timed_s); ++e) {
    const double t0 = now_s();
    core::EpochReport rep;
    if (!phased) {
      rep = pool.run_epoch(e);
    } else {
      obs::Span ep("bench.epoch", obs::TraceContext{}, -1, e);
      std::unique_ptr<core::EpochWorkspace> ws;
      double t = now_s();
      {
        obs::Span s("pool.prepare", ep, -1, e);
        ws = mp.prepare_epoch(e);
      }
      const double prep = now_s() - t;
      std::vector<double> tc(mp.num_workers()), vf(mp.num_workers());
      {
        obs::Span ph("pool.train_commit", ep, -1, e);
        for (std::size_t i = 0; i < mp.num_workers(); ++i) {
          obs::Span s("pool.train_commit_worker", ph, static_cast<std::int64_t>(i), e);
          t = now_s();
          mp.train_commit_worker(*ws, i);
          tc[i] = now_s() - t;
        }
      }
      {
        obs::Span ph("pool.verify", ep, -1, e);
        mp.configure_epoch_verifier(*ws, *verifier);
        for (std::size_t i = 0; i < mp.num_workers(); ++i) {
          obs::Span s("pool.verify_worker", ph, static_cast<std::int64_t>(i), e);
          t = now_s();
          mp.verify_worker(*ws, i, *verifier);
          vf[i] = now_s() - t;
        }
      }
      if (pt != nullptr && e <= w.min_units) {
        for (const auto& slot : ws->slots) {
          if (!slot.streamed.store) continue;
          const core::CkptStoreStats st = slot.streamed.store->stats();
          pt->spill_bytes += st.spill_bytes;
          pt->reloads += st.reloads;
          pt->hot_peak = std::max(pt->hot_peak, st.hot_bytes);
        }
      }
      if (pt != nullptr && ws->lsh_config) pt->lsh = ws->lsh_config;
      t = now_s();
      {
        obs::Span s("pool.finish", ep, -1, e);
        rep = mp.finish_epoch(*ws);
        ws.reset();
      }
      const double fin = now_s() - t;
      if (pt != nullptr && e > 0) {
        pt->prepare.push_back(prep);
        pt->finish.push_back(fin);
        for (std::size_t i = 0; i < tc.size(); ++i) {
          pt->train_commit.push_back(tc[i]);
          pt->verify.push_back(vf[i]);
          pt->submission.push_back(tc[i] + vf[i]);
          pt->train_total += tc[i];
          pt->verify_total += vf[i];
        }
      }
    }
    UnitOutcome u;
    u.seconds = now_s() - t0;
    for (SessionStatus st : rep.status) u.statuses.push_back(outcome_of(st));
    u.wan_bytes = rep.bytes_this_epoch;
    u.model_sha = model_sha(mp.global_model());
    u.accuracy = rep.test_accuracy;
    record_unit(r, w, e, u, w.peers);
    if (e == 0) {
      r.setup_s = now_s() - t_start;
    } else {
      timed_s += u.seconds;
    }
    if (pt != nullptr && e <= w.min_units) {
      pt->subs += static_cast<std::int64_t>(rep.status.size());
      pt->reexec_steps += rep.manager_reexecuted_steps;
      pt->double_checks += rep.double_checks;
      pt->retransmissions += rep.retransmissions;
      for (SessionStatus s : rep.status) ++pt->status_counts[outcome_of(s)];
      if (e == w.min_units) {
        pt->proof_bytes = obs::counter("bytes.proof_response").value();
      }
    }
  }
  if (pt != nullptr) {
    pt->global.model = mp.global_model();
    core::StepExecutor fresh(w.factory, w.hp);
    pt->global.optimizer = fresh.save_state().optimizer;
  }
}

// ---------------------------------------------------------------------------
// Session workload: rounds of run_protocol_session over every peer, with a
// transport fault plan on every message type, then FedAvg of the accepted
// updates and a test-set evaluation.

struct SessionSetup {
  core::SessionConfig base;
  std::vector<data::DatasetView> parts;  // [0] = manager, [1..] = peers
  core::TrainState global;
  std::vector<float> fresh_optimizer;
};

SessionSetup setup_sessions(const Workload& w, std::uint64_t seed) {
  SessionSetup s;
  s.parts = data::shuffle_and_partition(
      w.data->train, static_cast<std::int64_t>(w.peers.size()) + 1,
      derive_seed(seed, 0xDA7A));
  core::StepExecutor init(w.factory, w.hp);
  s.global = init.save_state();
  s.fresh_optimizer = s.global.optimizer;
  // One calibration on the manager's part sets beta and the LSH family.
  core::EpochContext ctx;
  ctx.nonce = derive_seed(seed, 0xB000);
  ctx.initial = s.global;
  ctx.dataset = &s.parts[0];
  const core::CalibrationResult cal = core::calibrate_epoch(
      w.factory, w.hp, ctx, sim::device_g3090(), sim::device_ga10(),
      derive_seed(seed, 0xC000), core::CalibrationConfig{});
  s.base.scheme = core::Scheme::kRPoLv2;
  s.base.samples_q = w.pool.base.samples_q;
  s.base.beta = cal.beta;
  s.base.sampling_seed = derive_seed(seed, 0x5A3B);
  lsh::LshConfig lc;
  lc.params = cal.lsh.params;
  lc.dim = init.model().num_trainable_parameters();
  lc.seed = derive_seed(seed, 0xD000);
  s.base.lsh = lc;
  s.base.chunk_bytes = kChunkBytes;
  // Legitimate proof responses carry whole states (unchunked); the cap
  // sits above them and below the oversized peer's payload.
  s.base.retry.max_message_bytes = 16ULL << 20;
  return s;
}

fault::FaultPlan session_plan(Peer p, std::uint64_t seed) {
  fault::FaultProfile noise;
  noise.drop = 0.02;
  noise.corrupt = 0.02;
  noise.truncate = 0.02;
  fault::FaultPlan plan = fault::FaultPlan::transport(noise, seed);
  plan.byzantine = byzantine_of(p);
  plan.oversized_payload_bytes = 20ULL << 20;
  return plan;
}

struct SessionTrace {
  std::vector<double> session_s;
  std::int64_t subs = 0;
  std::int64_t retries = 0;
  std::int64_t double_checks = 0;
  std::int64_t reexec_steps = 0;
  std::uint64_t proof_bytes = 0;
  std::map<Outcome, std::int64_t> status_counts;
};

// Re-executed steps so far, from the verifiers' own "reexecute" spans.
std::int64_t reexecuted_steps() {
  std::int64_t steps = 0;
  for (const auto& span : obs::Registry::instance().spans()) {
    if (span.name != "reexecute") continue;
    for (const auto& a : span.attrs) {
      if (a.key == "steps") steps += std::stoll(a.value);
    }
  }
  return steps;
}

void run_sessions(const Options& o, const Workload& w, SessionSetup& s,
                  Result& r, SessionTrace* st, double t_start) {
  const bool traced = o.mode != Mode::kUntraced;
  core::StepExecutor evaluator(w.factory, w.hp);
  core::TrainState round_start;
  double timed_s = 0.0;
  for (std::int64_t unit = 0; want_more(w, o, unit, timed_s); ++unit) {
    // Every round starts from the model the warm-up session left, so each
    // repeats the same work under fresh transport faults, and the beta
    // calibrated in set-up stays valid for it.
    if (unit == 1) round_start = s.global;
    if (unit > 1) s.global = round_start;
    const double t0 = now_s();
    // The warm-up unit is one honest session under the same transport
    // faults.
    const std::vector<Peer> peers =
        unit == 0 ? std::vector<Peer>{Peer::kHonest} : w.peers;
    UnitOutcome u;
    std::vector<const std::vector<float>*> accepted;
    std::vector<core::SessionOutcome> outs;
    outs.reserve(peers.size());
    {
      std::optional<obs::Span> round;
      if (traced) round.emplace("bench.round", obs::TraceContext{}, -1, unit);
      for (std::size_t i = 0; i < peers.size(); ++i) {
        const Peer p = peers[i];
        const std::uint64_t sid = static_cast<std::uint64_t>(unit) * 64 + i;
        core::SessionConfig cfg = s.base;
        const fault::FaultPlan plan = session_plan(p, derive_seed(o.seed, 0xFA000 + sid));
        cfg.fault_plan = &plan;
        std::optional<obs::Span> span;
        if (traced) {
          span.emplace("session.run", *round, static_cast<std::int64_t>(i), unit);
          cfg.trace_parent = span->context();
        }
        std::unique_ptr<core::WorkerPolicy> policy = make_policy(p);
        const std::uint64_t nonce = derive_seed(o.seed, 0xA000000 + sid);
        const double ts = now_s();
        Outcome status = Outcome::kError;
        try {
          outs.push_back(core::run_protocol_session(
              w.factory, w.hp, cfg, s.global, nonce, s.parts[1 + i % w.peers.size()],
              *policy, w.devices[i % w.devices.size()],
              derive_seed(o.seed, 0xE000000 + sid), sim::device_g3090(),
              derive_seed(o.seed, 0xF000000 + sid)));
          status = outcome_of(outs.back().status);
        } catch (const std::exception& e) {
          // Hostile input must end in a typed status; a call that throws
          // instead is a failed submission, reported and not retried.
          add_line(r, "unit %lld peer %zu (%s): run_protocol_session threw: %s",
                   static_cast<long long>(unit), i, peer_name(p), e.what());
        }
        if (st != nullptr && unit > 0) st->session_s.push_back(now_s() - ts);
        u.statuses.push_back(status);
        if (st != nullptr && unit <= w.min_units) {
          ++st->subs;
          ++st->status_counts[status];
        }
        if (status == Outcome::kError) continue;
        const core::SessionOutcome& out = outs.back();
        u.wan_bytes += out.bytes_to_worker + out.bytes_to_manager;
        if (out.accepted) accepted.push_back(&out.final_model);
        if (st != nullptr && unit <= w.min_units) {
          st->retries += out.total_retries;
          st->double_checks += out.double_checks;
          st->proof_bytes += out.bytes_by_type[static_cast<std::size_t>(
              core::MessageType::kProofResponse)];
        }
      }
      std::optional<obs::Span> fin;
      if (traced && round) fin.emplace("round.finish", *round, -1, unit);
      // FedAvg (Eq. 1 with eta = 1) over the accepted updates.
      if (!accepted.empty()) {
        std::vector<float>& g = s.global.model;
        for (std::size_t k = 0; k < g.size(); ++k) {
          double acc = 0.0;
          for (const auto* m : accepted) acc += (*m)[k];
          g[k] = static_cast<float>(acc / static_cast<double>(accepted.size()));
        }
      }
      s.global.optimizer = s.fresh_optimizer;
      evaluator.load_state(s.global);
      u.accuracy = evaluator.evaluate(w.data->split.test);
    }
    u.seconds = now_s() - t0;
    u.model_sha = model_sha(s.global.model);
    record_unit(r, w, unit, u, unit == 0 ? std::vector<Peer>{Peer::kHonest} : w.peers);
    if (st != nullptr && unit == w.min_units) st->reexec_steps = reexecuted_steps();
    if (unit == 0) {
      r.setup_s = now_s() - t_start;
    } else {
      timed_s += u.seconds;
    }
  }
}

// ---------------------------------------------------------------------------
// Standalone probes: the same public calls the protocol makes, timed on the
// workload's own model, data and states.

template <typename Fn>
std::vector<double> time_reps(Fn&& fn, int min_reps, int max_reps, double budget_s) {
  std::vector<double> out;
  const double start = now_s();
  for (int i = 0; i < max_reps; ++i) {
    if (i >= min_reps && now_s() - start > budget_s) break;
    const double t = now_s();
    fn(i);
    out.push_back(now_s() - t);
  }
  return out;
}

void run_probes(const Options& o, const Workload& w, const core::TrainState& global,
                const std::optional<lsh::LshConfig>& lsh_cfg,
                const data::DatasetView& part, Result& r) {
  add_line(r, "standalone layer probes (same public calls, this workload's states):");
  const core::Hyperparams& hp = w.hp;
  core::StepExecutor ex(w.factory, hp);
  const core::DeterministicSelector sel(derive_seed(o.seed, 0x7777));

  // executor / runtime / sim
  ex.load_state(global);
  const std::uint64_t pf0 = obs::counter("runtime.parallel_for.calls").value();
  const std::vector<double> plain = time_reps(
      [&](int i) { ex.run_steps(i, 1, part, sel, nullptr); }, 5, 60, 0.6);
  const std::uint64_t pf1 = obs::counter("runtime.parallel_for.calls").value();
  ex.load_state(global);
  sim::DeviceExecution dev(w.devices[0], derive_seed(o.seed, 0x7778));
  const std::vector<double> noisy = time_reps(
      [&](int i) { ex.run_steps(i, 1, part, sel, &dev); }, 5, 60, 0.6);
  put_median(r, "executor.step_ms", "ms", plain, 1e3);
  put_value(r, "runtime.parallel_for_per_step", "count",
            static_cast<double>(pf1 - pf0) / static_cast<double>(plain.size()),
            "exact, runtime.parallel_for.calls per step");
  put_value(r, "sim.perturb_ms_per_step", "ms",
            (median(noisy) - median(plain)) * 1e3, "median with device - without");

  // nn forward / backward
  {
    nn::Model model = w.factory();
    model.load_state_vector(global.model);
    std::vector<std::int64_t> idx, labels;
    for (std::int64_t i = 0; i < hp.batch_size; ++i) idx.push_back(i % part.size());
    const Tensor batch = part.make_batch(idx, labels);
    nn::SoftmaxCrossEntropy loss;
    std::vector<double> fwd, bwd;
    const double start = now_s();
    for (int i = 0; i < 60 && (i < 5 || now_s() - start < 0.8); ++i) {
      double t = now_s();
      const Tensor logits = model.forward(batch, /*training=*/true);
      fwd.push_back(now_s() - t);
      loss.forward(logits, labels);
      const Tensor grad = loss.backward();
      model.zero_grads();
      t = now_s();
      model.backward(grad);
      bwd.push_back(now_s() - t);
    }
    put_median(r, "nn.forward_ms", "ms", fwd, 1e3);
    put_median(r, "nn.backward_ms", "ms", bwd, 1e3);
  }

  // An honest epoch's checkpoint states: the inputs of every probe below.
  core::EpochContext ctx;
  ctx.epoch = 0;
  ctx.nonce = derive_seed(o.seed, 0x7779);
  ctx.initial = global;
  ctx.dataset = &part;
  core::HonestPolicy honest;
  sim::DeviceExecution dev2(w.devices[0], derive_seed(o.seed, 0x777A));
  const core::EpochTrace trace = honest.produce_trace(ex, ctx, dev2);
  const std::vector<bool>& mask = ex.trainable_mask();

  // calibrate
  const std::vector<double> cal = time_reps(
      [&](int i) {
        core::calibrate_epoch(w.factory, hp, ctx, sim::device_g3090(),
                              sim::device_ga10(),
                              derive_seed(o.seed, 0x7800 + static_cast<std::uint64_t>(i)),
                              w.pool.base.calibration);
      },
      1, 5, 2.0);
  put_median(r, "calibrate.s", "s", cal);

  // lsh: family construction and hashing
  lsh::LshConfig lc = lsh_cfg.value_or(lsh::LshConfig{});
  lc.dim = static_cast<std::int64_t>(core::extract_trainable(global.model, mask).size());
  std::optional<lsh::PStableLsh> hasher;
  const std::vector<double> builds =
      time_reps([&](int) { hasher.emplace(lc); }, 2, 5, 1.5);
  put_median(r, "lsh.build_ms", "ms", builds, 1e3);
  std::vector<std::vector<float>> weights;
  for (const auto& c : trace.checkpoints) {
    weights.push_back(core::extract_trainable(c.model, mask));
  }
  const std::vector<double> hashes = time_reps(
      [&](int i) { hasher->hash(weights[static_cast<std::size_t>(i) % weights.size()]); },
      5, 200, 0.5);
  put_median(r, "lsh.hash_ms", "ms", hashes, 1e3);

  // commitment (the path the workload uses) and SHA-256 state hashing
  const bool streamed = w.pool.base.streaming;
  const std::vector<double> commits = time_reps(
      [&](int) {
        if (streamed) {
          core::CommitmentBuilder b(core::CommitmentVersion::kV2, &*hasher, &mask);
          for (const auto& c : trace.checkpoints) b.add_checkpoint(c);
          b.finish();
        } else {
          core::commit_v2(trace, *hasher, &mask);
        }
      },
      2, 10, 1.0);
  put_median(r, "commit.s_per_sub", "s", commits);
  std::uint64_t hashed = 0;
  const double th = now_s();
  for (int rep = 0; rep < 50 && (rep < 2 || now_s() - th < 0.5); ++rep) {
    for (const auto& c : trace.checkpoints) {
      core::hash_state(c);
      hashed += c.byte_size();
    }
  }
  put_value(r, "crypto.hash_mb_per_s", "MB/s", hashed / 1e6 / (now_s() - th),
            "hash_state over the epoch's states");

  // checkpoint store: spill-through appends, then cold fetches
  {
    core::CkptStoreConfig sc;
    sc.budget_bytes = trace.checkpoints.front().byte_size();
    sc.spill_dir = o.scratch;
    core::CheckpointStore store(sc);
    const double ta = now_s();
    for (const auto& c : trace.checkpoints) store.append(c);
    const double append_s = now_s() - ta;
    put_value(r, "ckptstore.append_mb_per_s", "MB/s",
              store.stats().spill_bytes / 1e6 / append_s, "append of every state");
    std::vector<double> fetch;
    const std::int64_t n = store.num_checkpoints();
    for (std::int64_t i = 0; i + 1 < n; ++i) {
      const double t = now_s();
      store.fetch(i);
      fetch.push_back(now_s() - t);
    }
    put_median(r, "ckptstore.cold_fetch_ms", "ms", fetch, 1e3);
  }

  // wire: whole-state frames and 64 KiB chunk frames
  {
    std::uint64_t bytes = 0;
    double enc_s = 0.0, dec_s = 0.0;
    for (const auto& c : trace.checkpoints) {
      double t = now_s();
      const Bytes whole = core::encode_train_state(c);
      enc_s += now_s() - t;
      std::size_t off = 0;
      t = now_s();
      core::decode_train_state(whole, off);
      dec_s += now_s() - t;
      bytes += whole.size();
      const core::ChunkedStateEncoder enc(c, kChunkBytes);
      for (std::int64_t k = 0; k < enc.num_chunks(); ++k) {
        t = now_s();
        const Bytes frame = core::encode_state_chunk(enc.chunk(k));
        enc_s += now_s() - t;
        t = now_s();
        core::decode_state_chunk(frame);
        dec_s += now_s() - t;
        bytes += frame.size();
      }
    }
    put_value(r, "wire.encode_mb_per_s", "MB/s", bytes / 1e6 / enc_s,
              "encode_train_state + encode_state_chunk");
    put_value(r, "wire.decode_mb_per_s", "MB/s", bytes / 1e6 / dec_s,
              "decode_train_state + decode_state_chunk");
  }
}

// ---------------------------------------------------------------------------
// Traced-run reporting.

void put_statuses(Result& r, const std::map<Outcome, std::int64_t>& counts,
                  std::int64_t subs) {
  const double n = static_cast<double>(std::max<std::int64_t>(subs, 1));
  auto count = [&](Outcome s) {
    const auto it = counts.find(s);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (int s = 0; s <= static_cast<int>(SessionStatus::kRequeued); ++s) {
    put_value(r, std::string("session.status.") +
                     core::session_status_name(static_cast<SessionStatus>(s)),
              "count", count(static_cast<Outcome>(s)) / n, "exact, per submission");
  }
  put_value(r, "session.exceptions_per_sub", "count", count(Outcome::kError) / n,
            "exact, protocol calls that threw");
}

void put_pool_layers(Result& r, const Workload& w, const PoolTrace& pt,
                     bool pool_is_workload) {
  add_line(r, "pool phases (phase API through ShardedPool::pool()%s):",
           pool_is_workload ? "" : ", standalone on this workload's model");
  put_median(r, "pool.prepare_s", "s", pt.prepare);
  put_median(r, "pool.train_commit_s", "s", pt.train_commit);
  put_median(r, "pool.verify_s", "s", pt.verify);
  const TailPercentile tail = tail_percentile(pt.verify);
  if (tail.ok) {
    add_line(r, "  %-34s %12.6g %-6s (p%.0f of n=%zu, 10 samples beyond)",
             "pool.verify_s tail", tail.value, "s", tail.percentile,
             pt.verify.size());
  }
  put_median(r, "pool.finish_s", "s", pt.finish);
  put_value(r, "pool.verify_to_train", "ratio",
            pt.train_total > 0 ? pt.verify_total / pt.train_total : 0.0,
            "sum verify_worker / sum train_commit_worker");
  if (!pool_is_workload) return;
  const double subs = static_cast<double>(std::max<std::int64_t>(pt.subs, 1));
  double trained = 0.0;
  for (Peer p : w.peers) trained += make_policy(p)->honesty_ratio();
  const double epochs = static_cast<double>(pt.subs) / static_cast<double>(w.peers.size());
  put_value(r, "executor.steps_per_sub", "count",
            (trained * epochs * static_cast<double>(w.hp.steps_per_epoch) +
             static_cast<double>(pt.reexec_steps)) / subs,
            "worker steps (honesty_ratio) + re-executed steps");
  put_value(r, "verifier.reexec_steps_per_sub", "count", pt.reexec_steps / subs,
            "exact, EpochReport::manager_reexecuted_steps");
  put_value(r, "verifier.double_checks_per_sub", "count", pt.double_checks / subs,
            "exact, EpochReport::double_checks");
  put_value(r, "verifier.proof_mb_per_sub", "MB", pt.proof_bytes / 1e6 / subs,
            "exact, bytes.proof_response");
  put_value(r, "lsh.builds_per_sub", "count", 2.0 / static_cast<double>(w.peers.size()),
            "worker family in prepare_epoch + verifier family, per epoch");
  put_value(r, "ckptstore.spill_mb_per_sub", "MB", pt.spill_bytes / 1e6 / subs,
            "exact, CheckpointStore::stats");
  put_value(r, "ckptstore.reloads_per_sub", "count", pt.reloads / subs,
            "exact, CheckpointStore::stats");
  put_value(r, "ckptstore.hot_peak_mb", "MB", pt.hot_peak / 1e6,
            "largest hot cache, CheckpointStore::stats");
  put_median(r, "session.s", "s", pt.submission);
  put_value(r, "session.retries_per_sub", "count", pt.retransmissions / subs,
            "exact, EpochReport::retransmissions");
  put_statuses(r, pt.status_counts, pt.subs);
}

// Share of each bench.epoch covered by its phase spans, from the exported
// trace through the same reader `rpol timeline` uses.
double min_phase_coverage(const std::string& path) {
  const obs::Trace trace = obs::load_trace_file(path, /*strict=*/true);
  const obs::TimelineReport tl = obs::build_timeline(trace);
  double worst = 1.0;
  bool any = false;
  for (const auto& e : tl.epochs) {
    if (e.root_name != "bench.epoch") continue;
    worst = std::min(worst, e.attributed_share);
    any = true;
  }
  return any ? worst : 0.0;
}

// ---------------------------------------------------------------------------

Workload make_workload(const Options& o) {
  if (o.workload == "conv_pool") return make_conv_pool(o.seed);
  if (o.workload == "wide_stream") return make_wide_stream(o.seed);
  if (o.workload == "session_wire") return make_session_wire(o.seed);
  throw std::invalid_argument("unknown workload: " + o.workload);
}

// Set-up is repeated in an untraced run (the earlier ones are torn down
// after their warm-up) so setup_s is a median, not one cold start: at least
// kMinSetups times, and more while another would keep the total under
// kSetupBudgetS, so a short set-up is sampled often enough to steady its
// median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 9;
constexpr double kSetupBudgetS = 4.0;

bool last_setup(const Options& o, const std::vector<double>& setup_s) {
  if (o.mode != Mode::kUntraced) return true;
  const auto done = static_cast<int>(setup_s.size());
  if (done + 1 < kMinSetups) return false;
  if (done + 1 >= kMaxSetups) return true;
  double spent = 0.0;
  for (double t : setup_s) spent += t;
  return spent + setup_s.back() > kSetupBudgetS;
}

void report_settings(Result& r, const Workload& w, const core::ShardedPool* pool,
                     const SessionSetup* s) {
  if (pool != nullptr) {
    const bool st = w.pool.base.streaming;
    add_line(r, "settings: threads=%d shards=%d streaming=%d ckpt_budget_bytes=%llu "
             "spill_dir=%s",
             runtime::threads(), pool->shards(), st ? 1 : 0,
             static_cast<unsigned long long>(
                 st ? core::resolve_ckpt_budget(w.pool.base.ckpt_budget_bytes) : 0),
             st ? std::filesystem::temp_directory_path().c_str() : "-");
  } else {
    add_line(r, "settings: threads=%d chunk_bytes=%zu beta=%.6g lsh k=%d l=%d",
             runtime::threads(), s->base.chunk_bytes, s->base.beta,
             s->base.lsh->params.k, s->base.lsh->params.l);
  }
}

void put_session_layers(Result& r, const Workload& w, const SessionTrace& st) {
  const double reexec = static_cast<double>(st.reexec_steps);
  const double subs = static_cast<double>(std::max<std::int64_t>(st.subs, 1));
  add_line(r, "sessions (run_protocol_session):");
  put_median(r, "session.s", "s", st.session_s);
  put_value(r, "session.retries_per_sub", "count", st.retries / subs,
            "exact, SessionOutcome::total_retries");
  put_statuses(r, st.status_counts, st.subs);
  put_value(r, "verifier.double_checks_per_sub", "count", st.double_checks / subs,
            "exact, SessionOutcome::double_checks");
  put_value(r, "verifier.proof_mb_per_sub", "MB", st.proof_bytes / 1e6 / subs,
            "exact, proof-response bytes incl. retries");
  put_value(r, "verifier.reexec_steps_per_sub", "count", reexec / subs,
            "exact, steps of reexecute spans");
  put_value(r, "executor.steps_per_sub", "count",
            static_cast<double>(w.hp.steps_per_epoch) + reexec / subs,
            "worker steps + re-executed steps");
  put_value(r, "lsh.builds_per_sub", "count", 2.0,
            "worker family + manager family, per session");
  put_value(r, "ckptstore.spill_mb_per_sub", "MB", 0.0, "sessions keep no store");
  put_value(r, "ckptstore.reloads_per_sub", "count", 0.0, "sessions keep no store");
  put_value(r, "ckptstore.hot_peak_mb", "MB", 0.0, "sessions keep no store");
}

// The pool layer timed on session_wire's model, with the peers a pool can
// host (the byzantine scripts exist only in sessions).
void run_pool_probe(const Options& o, Result& r) {
  Workload pw = make_session_wire(o.seed);
  pw.peers = {Peer::kHonest, Peer::kHonest, Peer::kHonest, Peer::kReplay, Peer::kSpoof};
  pw.devices = spread_devices(pw.peers.size());
  pw.min_units = 2;
  core::ShardedPool pool(pw.pool, pw.factory, pw.data->train, pw.data->split.test,
                         make_workers(pw));
  Result unused;
  PoolTrace pt;
  Options po = o;
  po.short_run = true;
  run_pool(po, pw, pool, unused, &pt, now_s());
  put_pool_layers(r, pw, pt, /*pool_is_workload=*/false);
}

Result run(const Options& o) {
  claim_process_for(o.workload);
  runtime::set_threads(kThreads);
  const bool traced = o.mode == Mode::kTraced;
  obs::set_enabled(o.mode != Mode::kUntraced);
  Options run_opts = o;
  run_opts.warmup_only = o.mode == Mode::kGate;
  Options warmup_opts = o;
  warmup_opts.warmup_only = true;

  Result r;
  std::vector<double> setup_s;
  for (bool last = false; !last;) {
    last = last_setup(o, setup_s);
    Result discard;
    Result& out = last ? r : discard;
    const double t_start = now_s();
    Workload w;
    {
      std::optional<obs::Span> span;
      if (o.mode != Mode::kUntraced) span.emplace("data.build", obs::TraceContext{});
      w = make_workload(o);
    }
    out.data_build_s = now_s() - t_start;
    if (o.short_run) w.min_units = 1;
    const Options& uo = last ? run_opts : warmup_opts;
    if (!w.sessions) {
      core::ShardedPool pool(w.pool, w.factory, w.data->train, w.data->split.test,
                             make_workers(w));
      PoolTrace pt;
      run_pool(uo, w, pool, out, traced ? &pt : nullptr, t_start);
      setup_s.push_back(out.setup_s);
      if (!last) continue;
      report_settings(r, w, &pool, nullptr);
      if (traced) {
        put_pool_layers(r, w, pt, /*pool_is_workload=*/true);
        const auto parts = data::shuffle_and_partition(w.data->train, 2,
                                                       derive_seed(o.seed, 0x7A));
        run_probes(o, w, pt.global, pt.lsh, parts[1], r);
      }
    } else {
      SessionSetup s = setup_sessions(w, o.seed);
      SessionTrace st;
      run_sessions(uo, w, s, out, traced ? &st : nullptr, t_start);
      setup_s.push_back(out.setup_s);
      if (!last) continue;
      report_settings(r, w, nullptr, &s);
      if (traced) {
        put_session_layers(r, w, st);
        run_pool_probe(o, r);
        run_probes(o, w, s.global, s.base.lsh, s.parts[1], r);
      }
    }
    if (traced) put_value(r, "data.build_s", "s", r.data_build_s, "one build");
  }
  r.setup_s = median(setup_s);
  add_line(r, "setup: %zu set-up(s), median %.4f s", setup_s.size(), r.setup_s);
  if (traced) {
    const std::string path = o.scratch + "/trace.jsonl";
    if (!obs::Registry::instance().export_jsonl_file(path)) {
      throw std::runtime_error("cannot write trace " + path);
    }
    r.phase_coverage = min_phase_coverage(path);
    add_line(r, "trace: %s; least share of a bench.epoch covered by its "
             "phase spans %.4f", path.c_str(), r.phase_coverage);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Output.

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

void write_result(const Options& o, const Result& r) {
  std::ostringstream js;
  js.precision(17);
  js << "{\"workload\":" << json_str(o.workload) << ",\"pid\":" << ::getpid()
     << ",\"seed\":" << o.seed << ",\"setup_s\":" << r.setup_s
     << ",\"data_build_s\":" << r.data_build_s
     << ",\"deterministic_units\":" << r.deterministic_units << ",\"units\":[";
  for (std::size_t i = 0; i < r.units.size(); ++i) {
    js << (i ? "," : "") << "{\"warmup\":" << (r.units[i].warmup ? "true" : "false")
       << ",\"seconds\":" << r.units[i].seconds
       << ",\"subs\":" << r.units[i].submissions << "}";
  }
  js << "],\"prints\":[";
  for (std::size_t i = 0; i < r.prints.size(); ++i) {
    js << (i ? "," : "") << "{\"model_sha\":" << json_str(r.prints[i].model_sha)
       << ",\"statuses\":" << json_str(r.prints[i].statuses)
       << ",\"wan_bytes\":" << r.prints[i].wan_bytes << "}";
  }
  std::int64_t n_timed = 0;
  const double rate = subs_per_s(r.units, &n_timed);
  const VerdictTally& t = r.tally;
  js << "],\"subs_per_s\":" << rate << ",\"subs_per_s_n\":" << n_timed
     << ",\"wan_bytes\":" << r.wan_bytes
     << ",\"final_accuracy\":" << r.final_accuracy
     << ",\"peak_rss_mb\":" << peak_rss_mb()
     << ",\"replay_accepted\":" << r.replay_accepted
     << ",\"attempted\":" << t.attempted << ",\"failed\":" << t.failed
     << ",\"false_accept_rate\":" << t.false_accept_rate()
     << ",\"false_reject_rate\":" << t.false_reject_rate()
     << ",\"failed_share\":" << t.failed_share()
     << ",\"honest_judged\":" << t.honest_judged
     << ",\"dishonest_judged\":" << t.dishonest_judged
     << ",\"phase_coverage\":" << r.phase_coverage << ",\"layers\":{";
  bool first = true;
  for (const auto& [k, v] : r.layers) {
    js << (first ? "" : ",") << json_str(k) << ":" << v;
    first = false;
  }
  js << "},\"report\":[";
  for (std::size_t i = 0; i < r.report.size(); ++i) {
    js << (i ? "," : "") << json_str(r.report[i]);
  }
  js << "]}\n";
  std::ofstream out(o.out);
  out << js.str();
  if (!out) throw std::runtime_error("cannot write " + o.out);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::stoull(next());
    else if (a == "--seconds") o.seconds = std::stod(next());
    else if (a == "--out") o.out = next();
    else if (a == "--scratch") o.scratch = next();
    else if (a == "--short") o.short_run = true;
    else if (a == "--mode") {
      const std::string m = next();
      if (m == "untraced") o.mode = Mode::kUntraced;
      else if (m == "traced") o.mode = Mode::kTraced;
      else if (m == "gate") o.mode = Mode::kGate;
      else throw std::invalid_argument("unknown mode " + m);
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (o.workload.empty() || o.out.empty() || o.scratch.empty()) {
    throw std::invalid_argument("--workload, --out and --scratch are required");
  }
  return o;
}

}  // namespace
}  // namespace rpol::perfbench

int main(int argc, char** argv) {
  try {
    const rpol::perfbench::Options o = rpol::perfbench::parse(argc, argv);
    const rpol::perfbench::Result r = rpol::perfbench::run(o);
    rpol::perfbench::write_result(o, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
}
