#include "core/ckptstore.h"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#ifdef __unix__
#include <unistd.h>
#endif

namespace rpol::core {

namespace {

constexpr std::uint64_t kDefaultBudgetBytes = 256ULL * 1024 * 1024;

std::string next_spill_path(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  namespace fs = std::filesystem;
  fs::path base = dir.empty() ? fs::temp_directory_path() : fs::path(dir);
  if (!dir.empty()) fs::create_directories(base);
#ifdef __unix__
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return (base / ("rpol-ckpt-" + std::to_string(pid) + "-" +
                  std::to_string(n) + ".bin"))
      .string();
}

}  // namespace

std::uint64_t resolve_ckpt_budget(std::uint64_t configured) {
  if (configured != 0) return configured;
  if (const char* env = std::getenv("RPOL_CKPT_BUDGET")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::uint64_t>(v);
  }
  return kDefaultBudgetBytes;
}

CheckpointStore::CheckpointStore(CkptStoreConfig config)
    : budget_(resolve_ckpt_budget(config.budget_bytes)),
      path_(next_spill_path(config.spill_dir)) {
  // trunc creates the file; reopen in/out so reads and appends share it.
  file_.open(path_, std::ios::binary | std::ios::in | std::ios::out |
                        std::ios::trunc);
  if (!file_.is_open()) {
    throw std::runtime_error("cannot open checkpoint spill file: " + path_);
  }
}

CheckpointStore::~CheckpointStore() {
  file_.close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);  // best-effort cleanup
}

void CheckpointStore::evict_for(std::uint64_t incoming_bytes) const {
  while (!lru_.empty() && hot_bytes_ + incoming_bytes > budget_) {
    const std::int64_t victim = lru_.back();
    auto it = hot_.find(victim);
    hot_bytes_ -= it->second.state.byte_size();
    hot_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
  mem_.set(hot_bytes_);
}

void CheckpointStore::cache_locked(std::int64_t index, TrainState state) const {
  const std::uint64_t bytes = state.byte_size();
  evict_for(bytes);  // evict BEFORE insert: hot_bytes_ peaks at
                     // max(budget, one checkpoint), never budget + one
  lru_.push_front(index);
  hot_.emplace(index, HotEntry{std::move(state), lru_.begin()});
  hot_bytes_ += bytes;
  mem_.set(hot_bytes_);
}

void CheckpointStore::append(TrainState state) {
  const Bytes encoded = serialize_state(state);
  std::lock_guard<std::mutex> lock(mu_);
  file_.clear();
  file_.seekp(static_cast<std::streamoff>(spill_bytes_), std::ios::beg);
  file_.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
  file_.flush();
  if (!file_) {
    throw std::runtime_error("checkpoint spill write failed: " + path_);
  }
  Record rec;
  rec.offset = spill_bytes_;
  rec.length = encoded.size();
  rec.state_bytes = state.byte_size();
  records_.push_back(rec);
  spill_bytes_ += rec.length;
  logical_bytes_ += rec.state_bytes;
  cache_locked(static_cast<std::int64_t>(records_.size()) - 1,
               std::move(state));
}

std::int64_t CheckpointStore::num_checkpoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(records_.size());
}

TrainState CheckpointStore::read_record(const Record& rec) const {
  Bytes buf(static_cast<std::size_t>(rec.length));
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(rec.offset), std::ios::beg);
  file_.read(reinterpret_cast<char*>(buf.data()),
             static_cast<std::streamsize>(buf.size()));
  if (file_.gcount() != static_cast<std::streamsize>(buf.size())) {
    throw std::runtime_error("checkpoint spill read failed: " + path_);
  }
  std::size_t offset = 0;
  TrainState state = deserialize_state(buf, offset);
  if (offset != buf.size()) {
    throw std::runtime_error("checkpoint spill record corrupt: " + path_);
  }
  return state;
}

TrainState CheckpointStore::fetch(std::int64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index < 0 || index >= static_cast<std::int64_t>(records_.size())) {
    throw std::out_of_range("checkpoint index out of range");
  }
  auto it = hot_.find(index);
  if (it != hot_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);  // refresh recency
    return it->second.state;
  }
  TrainState state = read_record(records_[static_cast<std::size_t>(index)]);
  ++reloads_;
  cache_locked(index, state);
  return state;
}

bool CheckpointStore::is_hot(std::int64_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hot_.find(index) != hot_.end();
}

std::uint64_t CheckpointStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return logical_bytes_;
}

CkptStoreStats CheckpointStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CkptStoreStats s;
  s.checkpoints = static_cast<std::int64_t>(records_.size());
  s.hot_count = static_cast<std::int64_t>(hot_.size());
  s.hot_bytes = hot_bytes_;
  s.spill_bytes = spill_bytes_;
  s.evictions = evictions_;
  s.reloads = reloads_;
  s.budget_bytes = budget_;
  return s;
}

namespace {

// Tees each streamed checkpoint into the commitment builder and the store.
class CommitAndSpillSink final : public CheckpointSink {
 public:
  CommitAndSpillSink(CommitmentBuilder& builder, CheckpointStore& store)
      : builder_(builder), store_(store) {}
  void append(TrainState state) override {
    builder_.add_checkpoint(state);
    store_.append(std::move(state));
  }

 private:
  CommitmentBuilder& builder_;
  CheckpointStore& store_;
};

}  // namespace

StreamedEpoch run_streamed_epoch(WorkerPolicy& policy, StepExecutor& executor,
                                 const EpochContext& context,
                                 sim::DeviceExecution& device,
                                 CommitmentBuilder& builder,
                                 CkptStoreConfig store_config) {
  StreamedEpoch out;
  out.store = std::make_unique<CheckpointStore>(store_config);
  CommitAndSpillSink sink(builder, *out.store);
  StreamedTraceInfo info = policy.stream_trace(executor, context, device, sink);
  out.step_of = std::move(info.step_of);
  out.mean_loss = info.mean_loss;
  return out;
}

}  // namespace rpol::core
