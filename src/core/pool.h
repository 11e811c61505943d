// Mining-pool protocol state and phases: the full per-epoch RPoL protocol
// (Fig. 2 steps 1-3 plus verification and aggregation).
//
// One MiningPool couples a manager with n workers over a simulated WAN:
//
//   per epoch t:
//     0. (RPoL schemes) adaptive calibration on the manager's own i.i.d.
//        sub-task using the pool's top-2 device profiles -> alpha, beta,
//        optimal LSH parameters (Sec. V-C);
//     1. every worker downloads the global state and a fresh nonce N_t^w;
//     2. workers run their (possibly dishonest) policies, producing
//        checkpoint traces, and upload model update + commitment;
//     3. the manager samples q transitions per worker, verifies them
//        (RPoLv1 raw / RPoLv2 LSH + double-check) and aggregates only the
//        accepted updates per Eq. (1);
//     4. the global model is evaluated on the held-out test set.
//
// MiningPool holds the protocol state (global model, calibration, health,
// executors) and exposes the epoch as phases: prepare_epoch (step 0),
// train_commit_worker (steps 1-2), verify_worker (step 3's verdict) and
// finish_epoch (aggregation and step 4). ShardedPool (core/sharded_pool.h)
// is the only code that runs them.
//
// Scheme::kBaseline skips steps 0 and 3 entirely — the insecure comparison
// point of Sec. VII-E.

#pragma once

#include <memory>
#include <optional>

#include "core/calibrate.h"
#include "core/ckptstore.h"
#include "core/verifier.h"
#include "fault/fault.h"
#include "obs/health.h"
#include "obs/mem.h"
#include "obs/obs.h"

namespace rpol::core {

enum class Scheme { kBaseline, kRPoLv1, kRPoLv2 };

std::string scheme_name(Scheme scheme);

// Why a session / submission ended — the typed outcome taxonomy shared by
// protocol sessions (core/session.h, which includes this header) and the
// pool. Pinned by tests/core_session_test.cpp and swept by
// tests/fault_conformance_test.cpp:
//   kAccepted          every exchange delivered and every sampled transition
//                      verified;
//   kVerdictRejected   all messages arrived but verification failed (hash
//                      mismatch, distance above beta, LSH + double-check
//                      miss), or the worker could not commit (an RPoLv2
//                      state that does not fit the trainable mask);
//   kDecodeRejected    a message stayed undecodable (or over the size cap)
//                      for the whole retry budget — malformed beyond what
//                      transport noise explains within budget;
//   kTimeout           a message was never delivered within the retry budget
//                      (drops, delays, or a withholding peer);
//   kAdmissionRejected, kRequeued
//                      produced by nothing: the pool has no admission
//                      queue. They keep values 4 and 5 because perfbench
//                      reads them: its status loop runs up to kRequeued,
//                      and its Outcome enum mirrors these values by cast.
enum class SessionStatus : int {
  kAccepted = 0,
  kVerdictRejected,
  kDecodeRejected,
  kTimeout,
  kAdmissionRejected,
  kRequeued,
};

const char* session_status_name(SessionStatus status);

struct PoolConfig {
  Scheme scheme = Scheme::kRPoLv2;
  Hyperparams hp;
  std::int64_t epochs = 10;
  std::int64_t samples_q = 3;          // q, Sec. VII-A default
  CalibrationConfig calibration;
  std::uint64_t seed = 7;
  // Ablation switch: when false, calibrate only once (epoch 0) instead of
  // adapting every epoch.
  bool calibrate_every_epoch = true;
  // Sec. V-B's Merkle construction: workers upload O(1) commitment roots
  // and sampled transitions travel with logarithmic membership proofs,
  // instead of the default ordered hash list.
  bool compact_commitments = false;
  // Fault environment on every manager<->worker link. nullptr keeps the
  // exact lossless accounting (no injector constructed); otherwise each
  // protocol leg retries under `retry` and a leg that exhausts the budget
  // fails the worker's session for this epoch.
  const fault::FaultPlan* fault_plan = nullptr;
  fault::RetryPolicy retry;
  // Graceful degradation: a worker whose sessions fail (transport
  // exhaustion or rejected verification) this many epochs in a row is
  // evicted and the pool continues each epoch with the survivors.
  std::int64_t eviction_threshold = 3;
  // Bounded-memory epochs (ROADMAP item 5): each worker streams its
  // checkpoints — hashed into the commitment and spilled to disk
  // (core/ckptstore.h) as they are produced — so no EpochTrace is ever
  // materialized, and verification fetches sampled states back through the
  // store. Commitments, verdicts, the global model, and every report field
  // are bitwise identical to the in-memory path (§6, pinned by
  // tests/runtime_determinism_test.cpp).
  bool streaming = false;
  // Hot-cache budget for the per-worker checkpoint stores; 0 resolves
  // RPOL_CKPT_BUDGET from the environment (256 MiB default).
  std::uint64_t ckpt_budget_bytes = 0;
};

struct WorkerSpec {
  std::unique_ptr<WorkerPolicy> policy;
  sim::DeviceProfile device;
};

struct EpochReport {
  std::int64_t epoch = 0;
  double test_accuracy = 0.0;
  std::vector<bool> accepted;            // per worker
  std::int64_t rejected_count = 0;
  double alpha = 0.0;
  double beta = 0.0;
  lsh::LshParams lsh_params;
  std::int64_t lsh_mismatches = 0;
  std::int64_t double_checks = 0;
  std::uint64_t bytes_this_epoch = 0;    // WAN traffic
  std::uint64_t worker_storage_bytes = 0;  // max per-worker checkpoint store
  std::int64_t manager_reexecuted_steps = 0;
  // Fault-environment accounting (all zero without a fault plan).
  std::vector<bool> participated;        // per worker: completed every leg
  std::vector<bool> evicted;             // per worker, cumulative
  std::int64_t session_failures = 0;     // legs lost to transport this epoch
  std::int64_t retransmissions = 0;      // extra transmissions this epoch
  std::int64_t evicted_count = 0;        // cumulative evictions so far
  // Typed per-worker outcome (kTimeout for lost sessions and sat-out
  // evicted workers, kVerdictRejected / kAccepted for judged ones).
  std::vector<SessionStatus> status;
};

struct PoolRunReport {
  std::vector<EpochReport> epochs;
  double final_accuracy = 0.0;
  std::uint64_t total_bytes = 0;
  std::int64_t total_session_failures = 0;
  std::int64_t total_retransmissions = 0;
};

// Everything one epoch accumulates between the pool's protocol phases
// (prepare -> train/commit -> verify -> finish). Built by
// MiningPool::prepare_epoch and consumed by finish_epoch; ShardedPool
// (core/sharded_pool.h) drives the per-worker phases from shard threads,
// which is why the layout is strictly split into
//
//   * shared, read-only-after-prepare fields (C_0 and its hash, calibration
//     snapshot, LSH config and the epoch's one LSH family), and
//   * one WorkerSlot per worker, touched only by phases for THAT worker —
//     slots of distinct workers never share mutable state, so phases for
//     different workers may run concurrently.
//
// The workspace alone holds the epoch's verification inputs: workers commit
// with its family and each shard verifier borrows it, so a verifier must be
// re-pointed (configure_epoch_verifier) before each epoch's verify_worker.
//
// All cross-worker mutation (WAN byte totals, report totals, health
// records, aggregation) is deferred to finish_epoch, which merges slots in
// worker-index order — the ordering that makes a run's report and model
// bitwise identical at any shard and thread count (§6).
struct EpochWorkspace {
  std::int64_t epoch = 0;
  bool needs_rpol = false;

  // Shared protocol inputs, written by prepare_epoch only.
  TrainState initial;
  Digest initial_hash{};  // binds every worker's C_0 at verification
  std::uint64_t model_bytes = 0;
  double alpha = 0.0;
  double beta = 0.0;
  lsh::LshParams lsh_params;
  std::optional<lsh::LshConfig> lsh_config;   // RPoLv2 only
  std::optional<lsh::PStableLsh> lsh_family;  // built from lsh_config
  const std::vector<bool>* trainable_mask = nullptr;
  sim::DeviceProfile verify_device;  // the pool's top device profile

  struct WorkerSlot {
    // Protocol artifacts (no C_0: verification binds it by initial_hash).
    std::optional<fault::FaultInjector> injector;
    EpochTrace trace;
    StreamedEpoch streamed;
    Commitment commitment;
    std::optional<CompactCommitment> compact;
    // Outcome facts (merged into EpochReport by finish_epoch).
    bool participated = true;
    bool accepted = true;
    SessionStatus status = SessionStatus::kAccepted;
    std::int64_t session_failures = 0;
    std::int64_t retransmissions = 0;
    std::int64_t rejected = 0;           // 1 when rejected (verdict or commit)
    std::int64_t lsh_mismatches = 0;
    std::int64_t double_checks = 0;
    std::int64_t reexecuted_steps = 0;
    std::uint64_t storage_bytes = 0;     // trace / store residency
    // Every byte this worker's legs put on the WAN, both directions;
    // finish_epoch sums the slots into bytes_this_epoch.
    std::uint64_t wan_bytes = 0;
    // Telemetry (report-only wall clock).
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    // Bytes this slot charged to the checkpoint / merkle memory tags
    // (obs::mem_add is atomic; a shared MemScope would not be), released
    // by the workspace destructor.
    std::uint64_t mem_checkpoint = 0;
    std::uint64_t mem_merkle = 0;

    // Delivered and not yet judged: false for lost sessions and for
    // submissions rejected before verification (a v2 checkpoint that does
    // not fit the trainable mask cannot be committed).
    bool awaits_verdict() const { return participated && rejected == 0; }
  };
  std::vector<WorkerSlot> slots;

  // Shared (epoch-level) tag charges, also released by the destructor.
  std::uint64_t mem_checkpoint = 0;

  // Roots the epoch's causal tree; alive for the workspace's lifetime.
  std::optional<obs::Span> epoch_span;

  EpochWorkspace() = default;
  EpochWorkspace(const EpochWorkspace&) = delete;
  EpochWorkspace& operator=(const EpochWorkspace&) = delete;
  ~EpochWorkspace();
};

class MiningPool {
 public:
  // `factory` builds the (address-encoded, if desired) task model; `train`
  // is partitioned into num_workers+1 i.i.d. parts, the manager keeping
  // part 0 for calibration. `workers` supplies one policy+device per worker.
  MiningPool(PoolConfig config, nn::ModelFactory factory,
             const data::Dataset& train, data::DatasetView test,
             std::vector<WorkerSpec> workers);

  // --- Phase API, driven by ShardedPool (core/sharded_pool.h). ---
  // Phases for DISTINCT workers touch only their own workspace slot and may
  // run concurrently; prepare/finish are single-threaded bookends.
  std::unique_ptr<EpochWorkspace> prepare_epoch(std::int64_t epoch);
  // Steps 1-2 for one worker: state download, local training, commitment,
  // update/commitment upload. No-op (sit-out) for evicted workers.
  void train_commit_worker(EpochWorkspace& ws, std::size_t w);
  // Step 3 for one worker through `verifier` (one per shard — see
  // make_verifier / configure_epoch_verifier). No-op for kBaseline and for
  // workers whose session already failed.
  void verify_worker(EpochWorkspace& ws, std::size_t w, Verifier& verifier);
  // Merges slots in worker order: health records, eviction, aggregation
  // (Eq. 1), evaluation, WAN byte total, report assembly.
  EpochReport finish_epoch(EpochWorkspace& ws);

  // A fresh verifier configured for this pool (same sampling seed for
  // every instance) — one per shard, so shard threads never share verifier
  // state. It holds no LSH family until configure_epoch_verifier.
  std::unique_ptr<Verifier> make_verifier() const;
  // Applies the workspace's calibration snapshot (beta, and a pointer to its
  // LSH family that is valid while `ws` lives) to a verifier; run once per
  // epoch per shard verifier before verify_worker.
  void configure_epoch_verifier(EpochWorkspace& ws, Verifier& verifier) const;

  std::size_t num_workers() const { return workers_.size(); }
  const PoolConfig& config() const { return config_; }
  // Bytes of one model+optimizer image: the unit of the long-lived
  // checkpoint-tag charges (this pool's executors, each shard's verifier).
  std::uint64_t state_bytes() const {
    return static_cast<std::uint64_t>(global_model_.size() +
                                      fresh_optimizer_.size()) *
           sizeof(float);
  }

  const std::vector<float>& global_model() const { return global_model_; }
  double evaluate_global();

  bool worker_evicted(std::size_t worker) const {
    return health_.evicted(worker);
  }
  // Per-worker health scores, states, and windowed session stats; eviction
  // decisions live here too (obs/health.h keeps them deterministic).
  const obs::HealthRegistry& health() const { return health_; }

 private:
  PoolConfig config_;
  nn::ModelFactory factory_;
  data::DatasetView test_;
  std::vector<data::DatasetView> partitions_;  // [0]=manager, [1..n]=workers
  std::vector<WorkerSpec> workers_;

  StepExecutor manager_executor_;  // evaluation + state templating
  std::vector<std::unique_ptr<StepExecutor>> worker_executors_;

  std::vector<float> global_model_;     // current global model state vector
  std::vector<float> fresh_optimizer_;  // pristine optimizer state template
  CalibrationResult last_calibration_;
  bool calibrated_ = false;
  // Graceful-degradation bookkeeping: strike counting, eviction, and the
  // windowed health scores all live in the registry (one slot per worker).
  obs::HealthRegistry health_;
  // Long-lived model state: every executor the pool owns (manager, one per
  // worker) holds a model+optimizer image for the pool's lifetime, plus the
  // pool's own global vectors. Charged once at construction, approximated
  // by the state-vector size.
  obs::MemScope state_mem_{obs::MemTag::kCheckpoint};

  TrainState initial_state() const;
  // Worker w's task for `epoch` without C_0: its nonce N_t^w and data part.
  EpochContext worker_context(std::int64_t epoch, std::size_t w) const;
  // Top-2 device profiles among the pool's registered workers.
  std::pair<sim::DeviceProfile, sim::DeviceProfile> top_two_devices() const;
  // One protocol leg for worker w under the fault environment: retries up
  // to the budget, tallies bytes/retransmissions into the worker's slot,
  // returns false when the budget is spent.
  bool deliver_leg(EpochWorkspace& ws, std::size_t w, int leg,
                   const char* counter, std::uint64_t bytes);
};

}  // namespace rpol::core
