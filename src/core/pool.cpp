#include "core/pool.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "data/partition.h"
#include "obs/obs.h"

namespace rpol::core {
namespace {

// Message-type indices for the pool's analytically modeled legs; values
// match core::MessageType (session.h) so fault plans configured per type
// apply identically to sessions and pools. pool.h cannot include session.h
// (session.h includes pool.h), hence the plain ints the fault layer keys on.
enum : int {
  kLegState = 1,
  kLegCommitment = 2,
  kLegUpdate = 3,
  kLegProofResponse = 5,
};

// A worker's checkpoint custody: the spill-backed store in streaming pools,
// the in-memory trace otherwise, with the step list that travels with it.
struct Custody {
  const CheckpointSource& source;
  const std::vector<std::int64_t>& step_of;
};

Custody custody_of(const EpochWorkspace::WorkerSlot& slot) {
  if (slot.streamed.store) return {*slot.streamed.store, slot.streamed.step_of};
  return {slot.trace, slot.trace.step_of};
}

}  // namespace

std::string scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBaseline: return "Baseline";
    case Scheme::kRPoLv1: return "RPoLv1";
    case Scheme::kRPoLv2: return "RPoLv2";
  }
  return "unknown";
}

const char* session_status_name(SessionStatus status) {
  switch (status) {
    case SessionStatus::kAccepted: return "accepted";
    case SessionStatus::kVerdictRejected: return "verdict_rejected";
    case SessionStatus::kDecodeRejected: return "decode_rejected";
    case SessionStatus::kTimeout: return "timeout";
    case SessionStatus::kAdmissionRejected: return "admission_rejected";
    case SessionStatus::kRequeued: return "requeued";
  }
  return "unknown";
}

EpochWorkspace::~EpochWorkspace() {
  // Release every byte the epoch's phases charged to the transient tags.
  // Phases charge through the atomic obs::mem_add (a MemScope shared across
  // shard threads would race); the workspace settles the balance when the
  // epoch's artifacts actually die.
  std::uint64_t checkpoint = mem_checkpoint;
  std::uint64_t merkle = 0;
  for (const WorkerSlot& slot : slots) {
    checkpoint += slot.mem_checkpoint;
    merkle += slot.mem_merkle;
  }
  if (checkpoint > 0) obs::mem_sub(obs::MemTag::kCheckpoint, checkpoint);
  if (merkle > 0) obs::mem_sub(obs::MemTag::kMerkle, merkle);
}

MiningPool::MiningPool(PoolConfig config, nn::ModelFactory factory,
                       const data::Dataset& train, data::DatasetView test,
                       std::vector<WorkerSpec> workers)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      test_(std::move(test)),
      workers_(std::move(workers)),
      manager_executor_(factory_, config_.hp),
      health_(static_cast<int>(config_.eviction_threshold), workers_.size()) {
  if (workers_.empty()) throw std::invalid_argument("pool needs >= 1 worker");
  // n+1 i.i.d. parts: the manager keeps part 0 for calibration (Sec. V-C).
  partitions_ = data::shuffle_and_partition(
      train, static_cast<std::int64_t>(workers_.size()) + 1,
      derive_seed(config_.seed, 0xDA7A));

  for (std::size_t w = 0; w < workers_.size(); ++w) {
    worker_executors_.push_back(std::make_unique<StepExecutor>(factory_, config_.hp));
  }

  const TrainState pristine = manager_executor_.save_state();
  global_model_ = pristine.model;
  fresh_optimizer_ = pristine.optimizer;
  // Checkpoint-class memory resident for the pool's lifetime: one
  // model+optimizer image per executor (manager + one per worker) plus the
  // global vectors themselves. Shard verifiers are charged by ShardedPool.
  state_mem_.set(state_bytes() *
                 static_cast<std::uint64_t>(workers_.size() + 2));
}

std::unique_ptr<Verifier> MiningPool::make_verifier() const {
  VerifierConfig vcfg;
  vcfg.samples_q = config_.samples_q;
  vcfg.sampling_seed = derive_seed(config_.seed, 0x5A3B1E);
  return std::make_unique<Verifier>(factory_, config_.hp, vcfg);
}

void MiningPool::configure_epoch_verifier(EpochWorkspace& ws,
                                          Verifier& verifier) const {
  if (!ws.needs_rpol) return;
  verifier.set_beta(ws.beta);
  verifier.set_lsh_family(ws.lsh_family ? &*ws.lsh_family : nullptr);
}

TrainState MiningPool::initial_state() const {
  return {global_model_, fresh_optimizer_};
}

EpochContext MiningPool::worker_context(std::int64_t epoch,
                                        std::size_t w) const {
  EpochContext ctx;
  ctx.epoch = epoch;
  ctx.nonce = derive_seed(config_.seed,
                          0xA0000000ULL +
                              static_cast<std::uint64_t>(epoch) * 4096ULL + w);
  ctx.dataset = &partitions_[w + 1];
  return ctx;
}

std::pair<sim::DeviceProfile, sim::DeviceProfile> MiningPool::top_two_devices()
    const {
  // Workers register their hardware with the pool; the manager calibrates on
  // the two fastest profiles to observe worst-case reproduction errors.
  std::vector<sim::DeviceProfile> devices;
  devices.reserve(workers_.size());
  for (const auto& w : workers_) devices.push_back(w.device);
  std::sort(devices.begin(), devices.end(),
            [](const sim::DeviceProfile& a, const sim::DeviceProfile& b) {
              return a.tflops_fp32 > b.tflops_fp32;
            });
  const sim::DeviceProfile top = devices.front();
  const sim::DeviceProfile second = devices.size() > 1 ? devices[1] : devices[0];
  return {top, second};
}

double MiningPool::evaluate_global() {
  manager_executor_.load_state(initial_state());
  return manager_executor_.evaluate(test_);
}

bool MiningPool::deliver_leg(EpochWorkspace& ws, std::size_t w, int leg,
                             const char* counter, std::uint64_t bytes) {
  // One protocol leg under the fault environment. Every transmission
  // attempt — retransmissions and duplicates included — counts the full leg
  // toward the worker's byte tally: that is what the sender actually
  // transmitted.
  EpochWorkspace::WorkerSlot& slot = ws.slots[w];
  const bool faulty = slot.injector.has_value();
  const int attempts = faulty ? config_.retry.max_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++slot.retransmissions;
      obs::count("pool.retransmission", 1);
    }
    slot.wan_bytes += bytes;
    obs::count(counter, bytes);
    if (!faulty) return true;
    const fault::Delivery d = slot.injector->attempt(leg);
    if (d.duplicated) {
      slot.wan_bytes += bytes;
      obs::count(counter, bytes);
    }
    if (d.status == fault::DeliveryStatus::kDelivered && !d.corrupted) {
      return true;
    }
  }
  ++slot.session_failures;
  obs::count("pool.session_failure", 1);
  return false;
}

std::unique_ptr<EpochWorkspace> MiningPool::prepare_epoch(std::int64_t epoch) {
  auto ws = std::make_unique<EpochWorkspace>();
  ws->epoch = epoch;
  // Roots this epoch's causal tree: every span below (manager or worker
  // side) carries epoch_span.id() as its trace id.
  ws->epoch_span.emplace("epoch", obs::TraceContext{}, /*worker=*/-1, epoch);
  ws->slots.resize(workers_.size());

  // One fault stream per (epoch, worker) link: individually reproducible,
  // statistically independent. No plan => no injectors, and every
  // deliver_leg is the exact single-transmission legacy path.
  if (config_.fault_plan != nullptr) {
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      ws->slots[w].injector.emplace(
          *config_.fault_plan, static_cast<std::uint64_t>(epoch) * 4096ULL + w);
    }
  }

  ws->initial = initial_state();
  ws->mem_checkpoint = ws->initial.byte_size();
  obs::mem_add(obs::MemTag::kCheckpoint, ws->mem_checkpoint);
  ws->initial_hash = hash_state(ws->initial);
  ws->model_bytes =
      static_cast<std::uint64_t>(global_model_.size()) * sizeof(float);

  // Step 0: adaptive calibration (RPoL schemes only).
  ws->needs_rpol = config_.scheme != Scheme::kBaseline;
  if (ws->needs_rpol && (config_.calibrate_every_epoch || !calibrated_)) {
    obs::Span s("calibrate", *ws->epoch_span, /*worker=*/-1, epoch);
    EpochContext manager_ctx;
    manager_ctx.epoch = epoch;
    manager_ctx.nonce = derive_seed(config_.seed,
                                    0xB0000000ULL + static_cast<std::uint64_t>(epoch));
    manager_ctx.initial = ws->initial;
    manager_ctx.dataset = &partitions_[0];
    const auto [top, second] = top_two_devices();
    last_calibration_ = calibrate_epoch(
        factory_, config_.hp, manager_ctx, top, second,
        derive_seed(config_.seed, 0xC0000000ULL + static_cast<std::uint64_t>(epoch)),
        config_.calibration);
    calibrated_ = true;
  }

  if (ws->needs_rpol) {
    ws->alpha = last_calibration_.alpha;
    ws->beta = last_calibration_.beta;
    ws->lsh_params = last_calibration_.lsh.params;
    if (config_.scheme == Scheme::kRPoLv2) {
      lsh::LshConfig lsh_config;
      lsh_config.params = last_calibration_.lsh.params;
      lsh_config.dim = manager_executor_.model().num_trainable_parameters();
      lsh_config.seed = derive_seed(
          config_.seed, 0xD0000000ULL + static_cast<std::uint64_t>(epoch));
      ws->lsh_config = lsh_config;
    }
  }
  if (config_.scheme == Scheme::kRPoLv2) {
    ws->lsh_family.emplace(*ws->lsh_config);
  }
  ws->trainable_mask = &manager_executor_.trainable_mask();
  ws->verify_device = top_two_devices().first;
  return ws;
}

void MiningPool::train_commit_worker(EpochWorkspace& ws, std::size_t w) {
  EpochWorkspace::WorkerSlot& slot = ws.slots[w];
  if (health_.evicted(w)) {
    // Evicted workers sit the epoch out; the pool degrades gracefully to
    // the survivors.
    slot.participated = false;
    slot.accepted = false;
    slot.status = SessionStatus::kTimeout;
    return;
  }
  slot.start_ns = obs::now_ns();
  // The worker's C_0 copy lives only while it trains.
  EpochContext ctx = worker_context(ws.epoch, w);
  ctx.initial = ws.initial;

  // Global model out to the worker.
  if (!deliver_leg(ws, w, kLegState, "bytes.state", ws.model_bytes)) {
    slot.participated = false;
    slot.accepted = false;
    slot.status = SessionStatus::kTimeout;
    slot.end_ns = obs::now_ns();
    return;
  }

  sim::DeviceExecution device(
      workers_[w].device,
      derive_seed(config_.seed, 0xE0000000ULL +
                                    static_cast<std::uint64_t>(ws.epoch) * 4096ULL +
                                    static_cast<std::uint64_t>(w)));
  const bool v2 = config_.scheme == Scheme::kRPoLv2;
  CommitmentBuilder builder(
      v2 ? CommitmentVersion::kV2 : CommitmentVersion::kV1,
      v2 ? &*ws.lsh_family : nullptr, v2 ? ws.trainable_mask : nullptr);
  if (config_.streaming) {
    // Train + commit fused: the sink hashes each checkpoint into the
    // builder and spills it the moment it exists, so worker residency
    // is one state + the store's hot cache (charged to the ckptstore
    // tag by the store itself, never to the checkpoint tag).
    obs::Span s("train", *ws.epoch_span, static_cast<int>(w), ws.epoch);
    CkptStoreConfig scfg;
    scfg.budget_bytes = config_.ckpt_budget_bytes;
    slot.streamed = run_streamed_epoch(*workers_[w].policy,
                                       *worker_executors_[w], ctx, device,
                                       builder, scfg);
    s.attr("storage_bytes", slot.streamed.store->total_bytes());
  } else {
    {
      obs::Span s("train", *ws.epoch_span, static_cast<int>(w), ws.epoch);
      slot.trace = workers_[w].policy->produce_trace(*worker_executors_[w],
                                                     ctx, device);
      s.attr("storage_bytes", slot.trace.storage_bytes());
      slot.mem_checkpoint += slot.trace.storage_bytes();
      obs::mem_add(obs::MemTag::kCheckpoint, slot.trace.storage_bytes());
    }
    obs::Span s("commit", *ws.epoch_span, static_cast<int>(w), ws.epoch);
    builder.add_checkpoints(slot.trace.checkpoints);
  }
  if (!builder.fits_mask()) {
    // A checkpoint whose model does not fit the trainable mask has no LSH
    // leaf, so the worker cannot commit. The submission ends like its
    // RPoLv1 twin, whose short state the judge finds malformed: rejected,
    // one verify-rejection strike, no aggregation — without reaching the
    // verifier.
    slot.accepted = false;
    slot.status = SessionStatus::kVerdictRejected;
    slot.rejected = 1;
    slot.end_ns = obs::now_ns();
    return;
  }
  slot.commitment = builder.finish();
  slot.mem_merkle += slot.commitment.byte_size();
  obs::mem_add(obs::MemTag::kMerkle, slot.commitment.byte_size());

  // Upload: final model update + commitment (compact mode uploads only
  // the Merkle roots).
  if (config_.compact_commitments) {
    slot.compact = compact_commitment(slot.commitment);
  }
  const std::uint64_t commitment_bytes = config_.compact_commitments
                                             ? slot.compact->byte_size()
                                             : slot.commitment.byte_size();
  const bool uploaded =
      deliver_leg(ws, w, kLegUpdate, "bytes.update", ws.model_bytes) &&
      deliver_leg(ws, w, kLegCommitment, "bytes.commitment", commitment_bytes);
  if (!uploaded) {
    slot.participated = false;
    slot.accepted = false;
    slot.status = SessionStatus::kTimeout;
    slot.end_ns = obs::now_ns();
    return;
  }
  slot.end_ns = obs::now_ns();  // refined to the verdict time by verify
  slot.storage_bytes = config_.streaming ? slot.streamed.store->total_bytes()
                                         : slot.trace.storage_bytes();
}

void MiningPool::verify_worker(EpochWorkspace& ws, std::size_t w,
                               Verifier& verifier) {
  if (!ws.needs_rpol) return;  // kBaseline skips step 3 entirely
  EpochWorkspace::WorkerSlot& slot = ws.slots[w];
  if (!slot.awaits_verdict()) return;
  sim::DeviceExecution manager_device(
      ws.verify_device,
      derive_seed(config_.seed,
                  0xF0000000ULL + static_cast<std::uint64_t>(ws.epoch) * 4096ULL +
                      static_cast<std::uint64_t>(w)));
  obs::Span s("verify", *ws.epoch_span, static_cast<int>(w), ws.epoch);
  // Sampled checkpoints are fetched through the worker's custody; the
  // verdicts are bitwise the same from either kind (§6).
  const Custody custody = custody_of(slot);
  const EpochContext ctx = worker_context(ws.epoch, w);
  const VerifyResult vr =
      config_.compact_commitments
          ? verifier.verify_compact(*slot.compact, slot.commitment,
                                    custody.source, custody.step_of, ctx,
                                    ws.initial_hash, manager_device,
                                    s.context())
          : verifier.verify(slot.commitment, custody.source, custody.step_of,
                            ctx, ws.initial_hash, manager_device, s.context());
  s.attr("accepted", vr.accepted);
  s.attr("double_checks", vr.double_checks);
  s.attr("lsh_mismatches", vr.lsh_mismatches);
  s.attr("reexecuted_steps", vr.reexecuted_steps);
  slot.lsh_mismatches += vr.lsh_mismatches;
  slot.double_checks += vr.double_checks;
  slot.reexecuted_steps += vr.reexecuted_steps;
  // Proofs fetched on demand; losing them means the manager cannot
  // reach a verdict, which fails the session rather than rejecting it.
  if (!deliver_leg(ws, w, kLegProofResponse, "bytes.proof_response",
                   vr.proof_bytes)) {
    slot.participated = false;
    slot.accepted = false;
    slot.status = SessionStatus::kTimeout;
    slot.end_ns = obs::now_ns();
    return;
  }
  slot.accepted = vr.accepted;
  slot.status = vr.accepted ? SessionStatus::kAccepted
                            : SessionStatus::kVerdictRejected;
  if (!vr.accepted) slot.rejected = 1;
  slot.end_ns = obs::now_ns();
}

EpochReport MiningPool::finish_epoch(EpochWorkspace& ws) {
  EpochReport report;
  report.epoch = ws.epoch;
  const std::size_t n = workers_.size();
  report.participated.resize(n);
  report.accepted.resize(n);
  report.status.resize(n);
  if (ws.needs_rpol) {
    report.alpha = ws.alpha;
    report.beta = ws.beta;
    report.lsh_params = ws.lsh_params;
  }
  // Slot merge in worker-index order: the one ordering every shard layout
  // funnels through, which is what makes reports bitwise comparable across
  // shard and thread counts.
  for (std::size_t w = 0; w < n; ++w) {
    const EpochWorkspace::WorkerSlot& slot = ws.slots[w];
    report.participated[w] = slot.participated;
    report.accepted[w] = slot.accepted;
    report.status[w] = slot.status;
    report.session_failures += slot.session_failures;
    report.retransmissions += slot.retransmissions;
    report.rejected_count += slot.rejected;
    report.lsh_mismatches += slot.lsh_mismatches;
    report.double_checks += slot.double_checks;
    report.manager_reexecuted_steps += slot.reexecuted_steps;
    report.worker_storage_bytes =
        std::max(report.worker_storage_bytes, slot.storage_bytes);
    report.bytes_this_epoch += slot.wan_bytes;
  }

  // Graceful degradation, routed through the health registry: loss and
  // rejection strikes accrue on SEPARATE consecutive counters (obs/health.h
  // splits the kinds so a lossy link is not byzantine evidence);
  // eviction_threshold consecutive strikes of either kind retire the worker
  // and subsequent epochs run with the survivors. One accepted session
  // clears the record.
  for (std::size_t w = 0; w < n; ++w) {
    if (health_.evicted(w)) continue;
    const EpochWorkspace::WorkerSlot& slot = ws.slots[w];
    obs::HealthOutcome outcome;
    outcome.participated = slot.participated;
    outcome.accepted = slot.accepted;
    outcome.retransmissions = static_cast<std::uint64_t>(slot.retransmissions);
    if (slot.end_ns > slot.start_ns && slot.start_ns != 0) {
      outcome.latency_ns = slot.end_ns - slot.start_ns;
      obs::observe("pool.session_latency_ns", outcome.latency_ns);
    }
    if (health_.record(w, outcome)) obs::count("pool.eviction", 1);
  }
  report.evicted.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    report.evicted[w] = health_.evicted(w);
    report.evicted_count += health_.evicted(w) ? 1 : 0;
  }

  // Aggregation, Eq. (1) with eta = 1 and equal |D_w| weights
  // renormalized over the accepted set (FedAvg convention): rejected
  // submissions are excluded entirely, so detecting a free-riding worker
  // restores the full step size instead of diluting the update — the
  // mechanism behind Fig. 6's gap between verified and unverified pools.
  std::size_t accepted_count = 0;
  for (const bool a : report.accepted) accepted_count += a ? 1 : 0;
  if (accepted_count > 0) {
    obs::Span s("aggregate", *ws.epoch_span, /*worker=*/-1, ws.epoch);
    s.attr("accepted_count", static_cast<std::int64_t>(accepted_count));
    const float weight = 1.0F / static_cast<float>(accepted_count);
    std::vector<float> next = global_model_;
    for (std::size_t w = 0; w < n; ++w) {
      if (!report.accepted[w]) continue;
      // The final checkpoint comes back through the worker's custody; a
      // spilled one round-trips bitwise, so aggregation is the same in
      // both custody modes.
      const CheckpointSource& source = custody_of(ws.slots[w]).source;
      const std::vector<float> worker_final =
          source.fetch(source.num_checkpoints() - 1).model;
      for (std::size_t d = 0; d < next.size(); ++d) {
        next[d] += weight * (worker_final[d] - global_model_[d]);
      }
    }
    global_model_ = std::move(next);
  }

  {
    obs::Span s("evaluate", *ws.epoch_span, /*worker=*/-1, ws.epoch);
    report.test_accuracy = evaluate_global();
    s.attr("accuracy", report.test_accuracy);
  }
  ws.epoch_span->attr("session_failures", report.session_failures);
  ws.epoch_span->attr("evicted", report.evicted_count);
  return report;
}

}  // namespace rpol::core
