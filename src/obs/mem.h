// Subsystem memory accounting + process-RSS sampling: the "where does the
// memory go" counterpart to the span/metric tracing in obs.h.
//
// Two complementary views, both exported in the rpol.health.v1 report
// (health.h) and stamped into every rpol.bench.v1 record (benchreg.h):
//
//   * Tagged byte counters — the big allocators (checkpoint stores, Merkle
//     trees, wire buffers, packed-weight panels, im2col scratch) call
//     mem_add / mem_sub (or hold a MemScope) with a fixed MemTag, giving a
//     per-subsystem breakdown of current / peak / cumulative bytes. The
//     counters are ALWAYS on: each call is one or two relaxed atomic RMWs
//     at an allocation site that just moved megabytes, so there is nothing
//     to gate. They never allocate and never look at the clock.
//
//   * Process RSS — read_proc_rss() parses VmRSS / VmHWM out of
//     /proc/self/status (zeros off Linux), and RssSampler runs a background
//     thread that samples VmRSS on a fixed interval, yielding baseline /
//     peak / growth over its lifetime. Comparing RSS growth against the
//     tagged-counter total is how `rpol health` judges accounting coverage.
//
// Determinism contract: exactly like obs.h, everything here is write-only
// telemetry. No protocol decision, kernel, or hash ever reads these
// counters, so an instrumented run is bitwise identical to one where every
// call is deleted (tests/runtime_determinism_test.cpp covers the pool path
// with a live RssSampler).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace rpol::obs {

// Fixed tag set: one per big-allocator family. A fixed enum (not string
// keys) keeps mem_add() lock-free and allocation-free — allocation sites
// must never take the registry mutex.
enum class MemTag : int {
  kCheckpoint = 0,  // EpochTrace checkpoint stores (core/pool, async_pool)
  kMerkle,          // commitments + CommitmentIndex Merkle trees
  kWire,            // session wire buffers (encoded protocol messages)
  kPackCache,       // packed weight panels (tensor/packcache.h)
  kScratch,         // Conv2d blocked (nChw8c) activation scratch
  kCkptStore,       // hot LRU of the spill-to-disk store (core/ckptstore.h)
  kOther,           // anything instrumented without a dedicated tag
  kNumTags,
};

inline constexpr int kNumMemTags = static_cast<int>(MemTag::kNumTags);

// Stable lowercase tag name ("checkpoint", "merkle", ...) used by the
// rpol.health.v1 schema; "other" for out-of-range values.
const char* mem_tag_name(MemTag tag);
// Inverse of mem_tag_name; kNumTags when the name is unknown.
MemTag mem_tag_from_name(std::string_view name);

struct MemStats {
  std::uint64_t current_bytes = 0;  // live right now
  std::uint64_t peak_bytes = 0;     // high-water mark of current_bytes
  std::uint64_t total_bytes = 0;    // cumulative bytes ever added
};

// Tagged-counter entry points. mem_sub clamps at zero instead of wrapping
// so an unmatched release (double-subtract under teardown races) cannot
// turn the breakdown into 2^64 garbage.
void mem_add(MemTag tag, std::uint64_t bytes);
void mem_sub(MemTag tag, std::uint64_t bytes);

MemStats mem_stats(MemTag tag);
// Zeroes every tag (tests); live MemScopes keep their balances, so only
// call between protocol runs.
void mem_reset();

// RAII balance for one owner: add() charges the tag, the destructor
// releases everything charged through this scope. Movable so owning
// objects (e.g. CommitmentIndex) stay movable.
class MemScope {
 public:
  explicit MemScope(MemTag tag) : tag_(tag) {}
  MemScope(MemTag tag, std::uint64_t bytes) : tag_(tag) { add(bytes); }
  ~MemScope() { release(); }

  MemScope(MemScope&& other) noexcept
      : tag_(other.tag_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  MemScope& operator=(MemScope&& other) noexcept {
    if (this != &other) {
      release();
      tag_ = other.tag_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemScope(const MemScope&) = delete;
  MemScope& operator=(const MemScope&) = delete;

  void add(std::uint64_t bytes) {
    mem_add(tag_, bytes);
    bytes_ += bytes;
  }
  // Re-charges the scope to exactly `bytes` (delta-accounted).
  void set(std::uint64_t bytes) {
    if (bytes >= bytes_) {
      mem_add(tag_, bytes - bytes_);
    } else {
      mem_sub(tag_, bytes_ - bytes);
    }
    bytes_ = bytes;
  }
  void release() {
    mem_sub(tag_, bytes_);
    bytes_ = 0;
  }
  std::uint64_t bytes() const { return bytes_; }
  MemTag tag() const { return tag_; }

 private:
  MemTag tag_ = MemTag::kOther;
  std::uint64_t bytes_ = 0;
};

// One /proc/self/status reading. `valid` is false off Linux (fields zero)
// or when the file cannot be parsed.
struct RssSample {
  std::uint64_t vm_rss_bytes = 0;  // VmRSS: current resident set
  std::uint64_t vm_hwm_bytes = 0;  // VmHWM: lifetime peak resident set
  bool valid = false;
};

RssSample read_proc_rss();

// Background peak-RSS sampler: one thread reading VmRSS every `interval`,
// tracking the exact min / max over its whole lifetime. Sampling is pure observation — it touches no
// registry or protocol state.
class RssSampler {
 public:
  struct Summary {
    std::uint64_t samples = 0;         // total samples taken
    std::uint64_t baseline_bytes = 0;  // first sample (startup RSS)
    std::uint64_t min_bytes = 0;
    std::uint64_t peak_bytes = 0;      // max sampled VmRSS
    std::uint64_t last_bytes = 0;
    // peak - baseline, clamped at 0: RSS growth while the sampler ran.
    std::uint64_t growth_bytes = 0;
    bool valid = false;  // false when /proc is unavailable
  };

  explicit RssSampler(
      std::chrono::milliseconds interval = std::chrono::milliseconds(10));
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Stops the thread after taking one final sample; idempotent. The
  // destructor calls it, so scoping a sampler around a run is enough.
  void stop();

  Summary summary() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace rpol::obs
