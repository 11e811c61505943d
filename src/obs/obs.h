// Protocol-aware tracing & metrics: the measurement substrate behind every
// quantitative claim the protocol makes (communication volume, re-execution
// cost, double-check rates, kernel throughput).
//
// Three primitives, all owned by a global Registry:
//   * Span        — RAII wall-clock scope with an explicit parent id, an
//                   optional worker/epoch tag, and free-form attributes.
//                   Spans cover the protocol lifecycle (task announce ->
//                   train -> commit -> sampling -> proof exchange ->
//                   re-execution -> LSH match -> decision).
//   * Counter     — monotonically increasing u64 (bytes per message type,
//                   verify verdicts, parallel_for invocations).
//   * Gauge       — last-write-wins double (thread count, modeled costs).
//   * Histogram   — fixed log-linear buckets over u64 values (kernel
//                   nanoseconds); recording is a relaxed atomic increment,
//                   no allocation on the hot path.
//
// Determinism contract: the registry is WRITE-ONLY from protocol code.
// Timing fields are wall-clock-tagged but never feed back into any protocol
// decision, batch selection, or kernel result, so a traced run is bitwise
// identical to an untraced one (tests/runtime_determinism_test.cpp proves
// it at the checkpoint-bytes / Merkle-root level).
//
// Cost when disabled: every entry point first checks one relaxed atomic
// bool (`enabled()`); spans skip both clock reads, counters skip the add.
// Enablement: RPOL_TRACE env var (read once; any value except "" / "0"),
// overridden by obs::set_enabled(). Export is explicit — call
// Registry::export_jsonl (or the maybe_export helper, which honors
// RPOL_TRACE_FILE) from the binary that owns the run. Schema:
// docs/observability.md ("rpol.trace.v2").
//
// Causal propagation: every span carries a trace_id (the id of the root
// span of its causal tree — one tree per epoch/submission) and, when its
// parent lives in ANOTHER agent, a `link` to that remote span. The
// TraceContext {trace_id, span_id} pair is what crosses an agent boundary
// (core/session.cpp hands the sending span's context to the receiver by
// value, beside each message); receivers adopt it so one epoch becomes a
// single stitched tree spanning manager and workers. Propagation is as
// write-only as everything else here: contexts never enter the canonical
// message bytes, so no decode or hash ever sees them.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace rpol::obs {

// True when tracing is on: RPOL_TRACE env (cached at first call) unless
// overridden by set_enabled().
bool enabled();

// Explicit override of the RPOL_TRACE default; wins until called again.
void set_enabled(bool on);

// Nanoseconds since the registry's steady-clock anchor (process start).
std::uint64_t now_ns();

// Hot-path sampling guard: fires for 1 call in `every` while tracing is
// enabled. `counter` is a call-site-owned relaxed atomic so concurrent
// kernels never contend on registry state just to decide "not this one".
inline bool sample_tick(std::atomic<std::uint64_t>& counter,
                        std::uint64_t every) {
  if (!enabled()) return false;
  return counter.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

class Counter {
 public:
  void add(std::uint64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  // Atomic read-and-zero. Counters are a single word, so unlike histograms
  // they cannot tear — but a load followed by a store CAN drop a concurrent
  // add between the two. Reset paths drain instead, making every recorded
  // increment land either in the returned value or in the fresh window.
  std::uint64_t drain() { return value_.exchange(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  // Construct via Registry::counter(); public only for in-place container
  // construction.
  explicit Counter(std::string name) : name_(std::move(name)) {}

 private:
  friend class Registry;
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

  // Construct via Registry::gauge().
  explicit Gauge(std::string name) : name_(std::move(name)) {}

 private:
  friend class Registry;
  std::string name_;
  std::atomic<double> value_{0.0};
};

// Log-linear bucketed histogram over u64 values: values 0..7 get exact
// buckets, larger values land in 4 sub-buckets per power of two (HDR-style),
// bounding the relative quantile error at ~12.5% with 2 KB of state.
//
// Concurrency: record() is a handful of relaxed atomic increments spread
// over several words (count, sum, one bucket), so a reset or multi-word
// read racing a record could observe a half-applied sample. Both therefore
// go through a seqlock-style writer-exclusion guard: recorders announce
// themselves on `writers_` and back off while `seq_` is odd; reset() and
// snapshot() flip `seq_` odd, wait for in-flight recorders to drain, do
// their multi-word work exclusively, and flip `seq_` even again. Snapshots
// and resets are thus always internally consistent (count == sum of the
// buckets), while the record() fast path stays lock- and allocation-free.
class Histogram {
 public:
  static constexpr int kSmallBuckets = 8;   // exact buckets for 0..7
  static constexpr int kSubBuckets = 4;     // per power of two above 8
  static constexpr int kNumBuckets = kSmallBuckets + 61 * kSubBuckets;

  static int bucket_index(std::uint64_t v);
  // Largest value that lands in bucket i (inclusive).
  static std::uint64_t bucket_upper_bound(int i);

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int i) const {
    return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  // Upper-bound estimate of the p-th percentile (p in [0, 100]) from the
  // bucket counts; 0 for an empty histogram.
  std::uint64_t approx_percentile(double p) const;
  const std::string& name() const { return name_; }

  // Consistent multi-word copy of the histogram state: taken under the
  // writer-exclusion guard, so count == sum over buckets always holds.
  // This is what the exporter reads.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    std::uint64_t buckets[kNumBuckets] = {};

    std::uint64_t approx_percentile(double p) const;
  };
  Snapshot snapshot() const;

  // Zeroes everything under the same guard (no concurrent record is ever
  // torn across the reset boundary).
  void reset();

  // Construct via Registry::histogram().
  explicit Histogram(std::string name) : name_(std::move(name)) {}

 private:
  friend class Registry;

  // Runs `fn` with every record() excluded; used by reset()/snapshot().
  template <typename Fn>
  void exclusive(Fn&& fn) const;

  std::string name_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  // Seqlock guard state (mutable: snapshot() is logically const).
  mutable std::atomic<std::uint64_t> seq_{0};     // odd = exclusive op running
  mutable std::atomic<std::uint32_t> writers_{0};  // in-flight record() count
};

// One span attribute; `quoted` distinguishes JSON strings from raw
// number/bool tokens so export and the analyzer round-trip exactly.
struct SpanAttr {
  std::string key;
  std::string value;
  bool quoted = false;
};

// The causal coordinates one span hands to its descendants: the id of the
// tree root (trace_id) and its own span id. A zero span_id means "no
// context" — produced by inert spans and legacy (pre-v2) senders — and
// adopting it starts a fresh tree instead of linking.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return span_id != 0; }
};

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    // same-agent parent span, 0 = root
  std::uint64_t trace_id = 0;  // root span id of the causal tree, 0 = legacy
  std::uint64_t link = 0;      // remote (cross-agent) parent span, 0 = none
  std::string name;
  std::int64_t worker = -1;  // -1 = not worker-scoped (manager / global)
  std::int64_t epoch = -1;   // -1 = not epoch-scoped
  std::uint64_t start_ns = 0;  // relative to the registry anchor
  std::uint64_t dur_ns = 0;
  std::vector<SpanAttr> attrs;
};

// RAII protocol scope. Construction snapshots the clock when tracing is
// enabled; destruction appends the completed record to the registry.
// A span constructed while tracing is disabled is inert (id() == 0).
class Span {
 public:
  // Legacy form: raw parent id, no trace membership (trace_id stays 0).
  explicit Span(std::string_view name, std::uint64_t parent = 0,
                std::int64_t worker = -1, std::int64_t epoch = -1);
  // Same-agent child: inherits the parent's trace_id.
  Span(std::string_view name, const Span& parent, std::int64_t worker = -1,
       std::int64_t epoch = -1);
  // Trace-aware span. A valid remote context makes this span a cross-agent
  // child (trace_id adopted, `link` set to the remote span); an invalid one
  // roots a NEW trace (trace_id = own id). Pass obs::TraceContext{} to start
  // an epoch/submission tree.
  Span(std::string_view name, const TraceContext& remote_parent,
       std::int64_t worker = -1, std::int64_t epoch = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  std::uint64_t id() const { return rec_.id; }
  std::uint64_t trace_id() const { return rec_.trace_id; }
  // Coordinates descendants (local or remote) should adopt. All-zero when
  // the span is inert, so propagation degrades to the legacy no-op.
  TraceContext context() const { return {rec_.trace_id, rec_.id}; }

  void attr(std::string_view key, double v);
  void attr(std::string_view key, std::int64_t v);
  void attr(std::string_view key, std::uint64_t v);
  void attr(std::string_view key, bool v);
  void attr(std::string_view key, std::string_view v);

 private:
  SpanRecord rec_;
  bool active_ = false;
};

class Registry {
 public:
  static Registry& instance();

  // Metric handles are created on first use and live for the process;
  // returned references stay valid across reset().
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  std::uint64_t next_span_id();
  void record_span(SpanRecord rec);

  std::vector<SpanRecord> spans() const;  // snapshot copy
  std::size_t span_count() const;

  // Zeroes every metric and drops recorded spans; handles stay registered.
  void reset();

  // Writes the whole registry as JSONL ("rpol.trace.v2"): one meta line,
  // then counters, gauges, histograms (each sorted by name), then spans in
  // completion order. Returns the number of lines written.
  std::size_t export_jsonl(std::FILE* out) const;
  bool export_jsonl_file(const std::string& path) const;

  std::uint64_t wall_anchor_unix_ns() const { return wall_anchor_unix_ns_; }

 private:
  Registry();
  struct Impl;
  Impl* impl_;  // intentionally leaked: metrics may be touched at exit
  std::uint64_t wall_anchor_unix_ns_ = 0;
};

// Convenience forwards to the global registry.
inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

// Counts only while tracing is enabled (the common call-site pattern).
inline void count(std::string_view name, std::uint64_t v) {
  if (enabled()) counter(name).add(v);
}

// Histogram-recording twin of count(): one gated relaxed-atomic check, then
// the lock-free record path.
inline void observe(std::string_view name, std::uint64_t v) {
  if (enabled()) histogram(name).record(v);
}

// If tracing is enabled, exports the registry to RPOL_TRACE_FILE (or
// `default_path` when unset) and returns the path written; returns "" when
// tracing is disabled or the file cannot be opened.
std::string maybe_export(const std::string& default_path);

}  // namespace rpol::obs
