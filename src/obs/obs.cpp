#include "obs/obs.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>

#include "obs/json.h"
#include "obs/mem.h"

namespace rpol::obs {

namespace {

// -1 = follow RPOL_TRACE, 0 = forced off, 1 = forced on.
std::atomic<int> g_override{-1};

bool env_enabled() {
  static const bool cached = [] {
    const char* env = std::getenv("RPOL_TRACE");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }();
  return cached;
}

std::chrono::steady_clock::time_point steady_anchor() {
  static const auto anchor = std::chrono::steady_clock::now();
  return anchor;
}

}  // namespace

bool enabled() {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  return env_enabled();
}

void set_enabled(bool on) {
  g_override.store(on ? 1 : 0, std::memory_order_relaxed);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - steady_anchor())
          .count());
}

// ---------------------------------------------------------------------------
// Histogram

int Histogram::bucket_index(std::uint64_t v) {
  if (v < static_cast<std::uint64_t>(kSmallBuckets)) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(v);  // >= 3 here
  const int sub = static_cast<int>((v >> (msb - 2)) & 3);
  return kSmallBuckets + (msb - 3) * kSubBuckets + sub;
}

std::uint64_t Histogram::bucket_upper_bound(int i) {
  if (i < kSmallBuckets) return static_cast<std::uint64_t>(i);
  const int msb = (i - kSmallBuckets) / kSubBuckets + 3;
  const int sub = (i - kSmallBuckets) % kSubBuckets;
  // Values in the bucket share the top 3 bits (1, then `sub` in 2 bits).
  return ((static_cast<std::uint64_t>(kSubBuckets + sub + 1)) << (msb - 2)) - 1;
}

void Histogram::record(std::uint64_t v) {
  // Writer entry: announce first, THEN check for an exclusive op. An
  // exclusive op that sees writers_ == 0 after flipping seq_ odd is
  // guaranteed no recorder is past this gate, so its multi-word work can
  // never interleave with a half-applied sample.
  for (;;) {
    writers_.fetch_add(1, std::memory_order_acq_rel);
    if ((seq_.load(std::memory_order_acquire) & 1) == 0) break;
    writers_.fetch_sub(1, std::memory_order_acq_rel);
    while ((seq_.load(std::memory_order_acquire) & 1) != 0) {
      // Exclusive ops copy or zero ~2 KB; spinning is cheaper than parking.
    }
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  buckets_[static_cast<std::size_t>(bucket_index(v))].fetch_add(
      1, std::memory_order_relaxed);
  std::uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
  writers_.fetch_sub(1, std::memory_order_release);
}

template <typename Fn>
void Histogram::exclusive(Fn&& fn) const {
  seq_.fetch_add(1, std::memory_order_acq_rel);  // now odd: recorders back off
  while (writers_.load(std::memory_order_acquire) != 0) {
    // Drain in-flight recorders (each holds the gate for a few increments).
  }
  fn();
  seq_.fetch_add(1, std::memory_order_release);  // even again
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  exclusive([&] {
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    for (int i = 0; i < kNumBuckets; ++i) {
      s.buckets[i] =
          buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    }
  });
  return s;
}

void Histogram::reset() {
  exclusive([&] {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  });
}

namespace {

std::uint64_t percentile_from_buckets(double p, std::uint64_t n,
                                      std::uint64_t max,
                                      const std::uint64_t* buckets) {
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const std::uint64_t rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return std::min(Histogram::bucket_upper_bound(i), max);
    }
  }
  return max;
}

}  // namespace

std::uint64_t Histogram::approx_percentile(double p) const {
  const Snapshot s = snapshot();
  return percentile_from_buckets(p, s.count, s.max, s.buckets);
}

std::uint64_t Histogram::Snapshot::approx_percentile(double p) const {
  return percentile_from_buckets(p, count, max, buckets);
}

// ---------------------------------------------------------------------------
// Span

Span::Span(std::string_view name, std::uint64_t parent, std::int64_t worker,
           std::int64_t epoch) {
  if (!enabled()) return;
  active_ = true;
  rec_.id = Registry::instance().next_span_id();
  rec_.parent = parent;
  rec_.name = name;
  rec_.worker = worker;
  rec_.epoch = epoch;
  rec_.start_ns = now_ns();
}

Span::Span(std::string_view name, const Span& parent, std::int64_t worker,
           std::int64_t epoch)
    : Span(name, parent.id(), worker, epoch) {
  rec_.trace_id = parent.trace_id();
}

Span::Span(std::string_view name, const TraceContext& remote_parent,
           std::int64_t worker, std::int64_t epoch)
    : Span(name, /*parent=*/std::uint64_t{0}, worker, epoch) {
  if (!active_) return;
  if (remote_parent.valid()) {
    rec_.trace_id = remote_parent.trace_id;
    rec_.link = remote_parent.span_id;
  } else {
    rec_.trace_id = rec_.id;  // roots a new causal tree
  }
}

Span::~Span() {
  if (!active_) return;
  rec_.dur_ns = now_ns() - rec_.start_ns;
  Registry::instance().record_span(std::move(rec_));
}

void Span::attr(std::string_view key, double v) {
  if (!active_) return;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  rec_.attrs.push_back({std::string(key), buf, false});
}

void Span::attr(std::string_view key, std::int64_t v) {
  if (!active_) return;
  rec_.attrs.push_back({std::string(key), std::to_string(v), false});
}

void Span::attr(std::string_view key, std::uint64_t v) {
  if (!active_) return;
  rec_.attrs.push_back({std::string(key), std::to_string(v), false});
}

void Span::attr(std::string_view key, bool v) {
  if (!active_) return;
  rec_.attrs.push_back({std::string(key), v ? "true" : "false", false});
}

void Span::attr(std::string_view key, std::string_view v) {
  if (!active_) return;
  rec_.attrs.push_back({std::string(key), std::string(v), true});
}

// ---------------------------------------------------------------------------
// Registry

struct Registry::Impl {
  mutable std::mutex mutex;
  // Deques give metric handles stable addresses for the process lifetime.
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::map<std::string, Counter*, std::less<>> counter_by_name;
  std::map<std::string, Gauge*, std::less<>> gauge_by_name;
  std::map<std::string, Histogram*, std::less<>> histogram_by_name;
  std::vector<SpanRecord> spans;
  // Bytes charged to MemTag::kOther for the span store (the registry
  // accounting its own footprint); released on reset().
  std::uint64_t span_mem_bytes = 0;
  std::atomic<std::uint64_t> next_span_id{1};
};

namespace {

// Approximate heap footprint of one recorded span: the record itself plus
// the heap blocks behind its name and attribute strings.
std::uint64_t span_record_bytes(const SpanRecord& rec) {
  std::uint64_t bytes = sizeof(SpanRecord) + rec.name.capacity();
  bytes += rec.attrs.capacity() * sizeof(SpanAttr);
  for (const SpanAttr& a : rec.attrs) {
    bytes += a.key.capacity() + a.value.capacity();
  }
  return bytes;
}

}  // namespace

Registry::Registry() : impl_(new Impl) {
  (void)steady_anchor();  // pin the time base before any span exists
  wall_anchor_unix_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

Registry& Registry::instance() {
  static Registry* reg = new Registry;  // leaked: usable during exit
  return *reg;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->counter_by_name.find(name);
  if (it != impl_->counter_by_name.end()) return *it->second;
  impl_->counters.emplace_back(std::string(name));
  Counter* c = &impl_->counters.back();
  impl_->counter_by_name.emplace(c->name(), c);
  return *c;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->gauge_by_name.find(name);
  if (it != impl_->gauge_by_name.end()) return *it->second;
  impl_->gauges.emplace_back(std::string(name));
  Gauge* g = &impl_->gauges.back();
  impl_->gauge_by_name.emplace(g->name(), g);
  return *g;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->histogram_by_name.find(name);
  if (it != impl_->histogram_by_name.end()) return *it->second;
  impl_->histograms.emplace_back(std::string(name));
  Histogram* h = &impl_->histograms.back();
  impl_->histogram_by_name.emplace(h->name(), h);
  return *h;
}

std::uint64_t Registry::next_span_id() {
  return impl_->next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void Registry::record_span(SpanRecord rec) {
  const std::uint64_t bytes = span_record_bytes(rec);
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.push_back(std::move(rec));
  impl_->span_mem_bytes += bytes;
  mem_add(MemTag::kOther, bytes);
}

std::vector<SpanRecord> Registry::spans() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->spans;
}

std::size_t Registry::span_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->spans.size();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (Counter& c : impl_->counters) {
    c.drain();  // exchange, not store: concurrent adds land before or after
  }
  for (Gauge& g : impl_->gauges) {
    g.value_.store(0.0, std::memory_order_relaxed);
  }
  for (Histogram& h : impl_->histograms) {
    h.reset();  // under the writer-exclusion guard
  }
  impl_->spans.clear();
  mem_sub(MemTag::kOther, impl_->span_mem_bytes);
  impl_->span_mem_bytes = 0;
  impl_->next_span_id.store(1, std::memory_order_relaxed);
}

std::size_t Registry::export_jsonl(std::FILE* out) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::size_t lines = 0;

  std::fprintf(out,
               "{\"type\":\"meta\",\"schema\":\"rpol.trace.v2\","
               "\"wall_unix_ns\":%llu}\n",
               static_cast<unsigned long long>(wall_anchor_unix_ns_));
  ++lines;

  // The by-name maps are already sorted; metrics still at their zero value
  // are skipped so the export reflects what actually happened, not what was
  // ever registered (handles survive Registry::reset()).
  for (const auto& [name, c] : impl_->counter_by_name) {
    if (c->value() == 0) continue;
    std::fprintf(out, "{\"type\":\"counter\",\"name\":\"%s\",\"value\":%llu}\n",
                 json_escape(name).c_str(),
                 static_cast<unsigned long long>(c->value()));
    ++lines;
  }
  for (const auto& [name, g] : impl_->gauge_by_name) {
    if (g->value() == 0.0) continue;
    std::fprintf(out, "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%.17g}\n",
                 json_escape(name).c_str(), g->value());
    ++lines;
  }
  for (const auto& [name, h] : impl_->histogram_by_name) {
    // One consistent snapshot per histogram: count, sum, and buckets are
    // taken under the writer-exclusion guard, so the exported line always
    // satisfies count == sum over buckets even with recorders running.
    const Histogram::Snapshot snap = h->snapshot();
    if (snap.count == 0) continue;
    std::fprintf(out,
                 "{\"type\":\"histogram\",\"name\":\"%s\",\"count\":%llu,"
                 "\"sum\":%llu,\"max\":%llu,\"p50\":%llu,\"p95\":%llu,"
                 "\"buckets\":[",
                 json_escape(name).c_str(),
                 static_cast<unsigned long long>(snap.count),
                 static_cast<unsigned long long>(snap.sum),
                 static_cast<unsigned long long>(snap.max),
                 static_cast<unsigned long long>(snap.approx_percentile(50.0)),
                 static_cast<unsigned long long>(snap.approx_percentile(95.0)));
    bool first = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::uint64_t n = snap.buckets[i];
      if (n == 0) continue;
      std::fprintf(out, "%s[%llu,%llu]", first ? "" : ",",
                   static_cast<unsigned long long>(
                       Histogram::bucket_upper_bound(i)),
                   static_cast<unsigned long long>(n));
      first = false;
    }
    std::fprintf(out, "]}\n");
    ++lines;
  }
  for (const SpanRecord& s : impl_->spans) {
    std::fprintf(out,
                 "{\"type\":\"span\",\"id\":%llu,\"parent\":%llu,"
                 "\"trace\":%llu,\"link\":%llu,"
                 "\"name\":\"%s\",\"worker\":%lld,\"epoch\":%lld,"
                 "\"start_ns\":%llu,\"dur_ns\":%llu,\"attrs\":{",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace_id),
                 static_cast<unsigned long long>(s.link),
                 json_escape(s.name).c_str(),
                 static_cast<long long>(s.worker),
                 static_cast<long long>(s.epoch),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.dur_ns));
    for (std::size_t i = 0; i < s.attrs.size(); ++i) {
      const SpanAttr& a = s.attrs[i];
      std::fprintf(out, "%s\"%s\":", i == 0 ? "" : ",",
                   json_escape(a.key).c_str());
      if (a.quoted) {
        std::fprintf(out, "\"%s\"", json_escape(a.value).c_str());
      } else {
        std::fprintf(out, "%s", a.value.c_str());
      }
    }
    std::fprintf(out, "}}\n");
    ++lines;
  }
  return lines;
}

bool Registry::export_jsonl_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  export_jsonl(f);
  std::fclose(f);
  return true;
}

std::string maybe_export(const std::string& default_path) {
  if (!enabled()) return "";
  const char* env = std::getenv("RPOL_TRACE_FILE");
  const std::string path =
      (env != nullptr && env[0] != '\0') ? env : default_path;
  if (!Registry::instance().export_jsonl_file(path)) return "";
  return path;
}

}  // namespace rpol::obs
