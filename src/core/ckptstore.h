// Spill-to-disk checkpoint store: bounded-memory custody of an epoch's
// checkpoint sequence (ROADMAP item 5).
//
// The paper's worker keeps every checkpoint of the epoch around so the
// manager can later sample any transition. Materializing that chain in RAM
// makes worker memory grow linearly with checkpoint count — the exact
// failure mode this store removes. Design:
//
//   * WRITE-THROUGH SPILL. Every append()ed state is serialized canonically
//     (serialize_state) and written to an append-only spill file before it
//     is cached. The disk copy is the source of truth from the first byte,
//     so eviction is "forget the hot entry" — no dirty tracking, no
//     write-back window, and a cold read can never observe a torn state.
//   * HOT LRU CACHE. Decoded TrainStates are kept hot up to a byte budget
//     (RPOL_CKPT_BUDGET env or CkptStoreConfig::budget_bytes); the
//     least-recently-used entry is dropped first. Eviction runs BEFORE
//     insertion, so resident cache bytes never exceed
//     max(budget, one checkpoint).
//   * ACCOUNTED. Hot bytes are charged to obs::MemTag::kCkptStore through a
//     MemScope, so tests and the health report can assert the budget holds
//     (tests/core_ckptstore_test.cpp does exactly that at 10x checkpoint
//     count).
//
// Determinism contract (§6): fetch() returns the bitwise-exact state that
// was appended — serialization round-trips fp32 through raw little-endian
// bits — so verification over a spill-backed source is bitwise identical to
// verification over the in-memory trace. Thread-safe: concurrent fetch()
// calls (and fetch during append) serialize on an internal mutex.

#pragma once

#include <fstream>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/policy.h"

namespace rpol::core {

struct CkptStoreConfig {
  // Hot-cache budget in bytes. 0 resolves RPOL_CKPT_BUDGET from the
  // environment, falling back to 256 MiB when unset/unparsable.
  std::uint64_t budget_bytes = 0;
  // Directory for the spill file; empty uses the system temp directory.
  std::string spill_dir;
};

struct CkptStoreStats {
  std::int64_t checkpoints = 0;    // states appended so far
  std::int64_t hot_count = 0;      // states currently decoded in the LRU
  std::uint64_t hot_bytes = 0;     // logical bytes of the hot states
  std::uint64_t spill_bytes = 0;   // bytes written to the spill file
  std::uint64_t evictions = 0;     // hot entries dropped to respect budget
  std::uint64_t reloads = 0;       // cold fetches served from disk
  std::uint64_t budget_bytes = 0;  // resolved budget
};

// Resolves the effective hot-cache budget: explicit config value if
// non-zero, else RPOL_CKPT_BUDGET, else the 256 MiB default.
std::uint64_t resolve_ckpt_budget(std::uint64_t configured);

class CheckpointStore final : public CheckpointSource, public CheckpointSink {
 public:
  explicit CheckpointStore(CkptStoreConfig config = {});
  ~CheckpointStore() override;
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  // CheckpointSink: serializes the state to the spill file, then caches it
  // hot (evicting LRU entries first so the budget is never exceeded).
  void append(TrainState state) override;

  // CheckpointSource.
  std::int64_t num_checkpoints() const override;
  // Hot hit: copies the cached state (and refreshes its LRU position).
  // Cold: reads the record back from the spill file, re-caches it, and
  // returns it — bitwise identical to what was appended.
  TrainState fetch(std::int64_t index) const override;

  // Whether checkpoint `index` currently sits in the hot cache (tests).
  bool is_hot(std::int64_t index) const;

  // Sum of TrainState::byte_size() over every appended checkpoint — the
  // logical storage the worker is custodian of, matching
  // EpochTrace::storage_bytes() for the same sequence.
  std::uint64_t total_bytes() const;

  CkptStoreStats stats() const;
  const std::string& spill_path() const { return path_; }

 private:
  struct Record {
    std::uint64_t offset = 0;       // into the spill file
    std::uint64_t length = 0;       // serialized byte count
    std::uint64_t state_bytes = 0;  // TrainState::byte_size()
  };
  struct HotEntry {
    TrainState state;
    std::list<std::int64_t>::iterator lru_pos;
  };

  // All private helpers assume mu_ is held.
  void evict_for(std::uint64_t incoming_bytes) const;
  void cache_locked(std::int64_t index, TrainState state) const;
  TrainState read_record(const Record& rec) const;

  std::uint64_t budget_ = 0;
  std::string path_;
  mutable std::mutex mu_;
  mutable std::fstream file_;
  std::vector<Record> records_;
  std::uint64_t logical_bytes_ = 0;
  std::uint64_t spill_bytes_ = 0;
  // Hot cache (mutable: fetch() is const but refreshes recency).
  mutable std::list<std::int64_t> lru_;  // front = most recent
  mutable std::unordered_map<std::int64_t, HotEntry> hot_;
  mutable std::uint64_t hot_bytes_ = 0;
  mutable std::uint64_t evictions_ = 0;
  mutable std::uint64_t reloads_ = 0;
  // Hot-cache residency charged to the ckptstore tag.
  mutable obs::MemScope mem_{obs::MemTag::kCkptStore};
};

// ---------------------------------------------------------------------------
// Streamed worker epoch: drives WorkerPolicy::stream_trace with a sink that
// forwards each fresh checkpoint to BOTH the caller's CommitmentBuilder
// (hash, then forget) and a new CheckpointStore (spill + bounded hot cache).
// The caller seals the commitment with builder.finish() — after checking
// builder.fits_mask() — so no EpochTrace ever exists.

struct StreamedEpoch {
  std::unique_ptr<CheckpointStore> store;  // plays the worker's proof store
  std::vector<std::int64_t> step_of;
  float mean_loss = 0.0F;
};

// Throws what the policy throws.
StreamedEpoch run_streamed_epoch(WorkerPolicy& policy, StepExecutor& executor,
                                 const EpochContext& context,
                                 sim::DeviceExecution& device,
                                 CommitmentBuilder& builder,
                                 CkptStoreConfig store_config = {});

}  // namespace rpol::core
