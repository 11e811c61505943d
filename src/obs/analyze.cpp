#include "obs/analyze.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/json.h"
#include "sim/stats.h"

namespace rpol::obs {

namespace {

const Json& require(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  if (v == nullptr) {
    throw std::runtime_error("trace record missing field '" +
                             std::string(key) + "'");
  }
  return *v;
}

SpanRecord parse_span(const Json& obj) {
  SpanRecord s;
  s.id = require(obj, "id").as_u64();
  s.parent = require(obj, "parent").as_u64();
  s.trace_id = require(obj, "trace").as_u64();
  s.link = require(obj, "link").as_u64();
  s.name = require(obj, "name").token;
  s.worker = require(obj, "worker").as_i64();
  s.epoch = require(obj, "epoch").as_i64();
  s.start_ns = require(obj, "start_ns").as_u64();
  s.dur_ns = require(obj, "dur_ns").as_u64();
  for (const auto& [key, value] : require(obj, "attrs").obj) {
    SpanAttr a;
    a.key = key;
    if (value.kind == Json::Kind::kString) {
      a.value = value.token;
      a.quoted = true;
    } else if (value.kind == Json::Kind::kBool) {
      a.value = value.b ? "true" : "false";
    } else {
      a.value = value.token;
    }
    s.attrs.push_back(std::move(a));
  }
  return s;
}

ParsedHistogram parse_histogram(const Json& obj) {
  ParsedHistogram h;
  h.name = require(obj, "name").token;
  h.count = require(obj, "count").as_u64();
  h.sum = require(obj, "sum").as_u64();
  h.max = require(obj, "max").as_u64();
  h.p50 = require(obj, "p50").as_u64();
  h.p95 = require(obj, "p95").as_u64();
  for (const Json& pair : require(obj, "buckets").arr) {
    if (pair.arr.size() != 2) {
      throw std::runtime_error("histogram bucket is not a [le, count] pair");
    }
    h.buckets.emplace_back(pair.arr[0].as_u64(), pair.arr[1].as_u64());
  }
  return h;
}

const std::string* span_attr(const SpanRecord& s, std::string_view key) {
  for (const SpanAttr& a : s.attrs) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

}  // namespace

Trace parse_trace_jsonl(std::istream& in, bool strict) {
  Trace trace;
  bool saw_meta = false;
  read_jsonl(in, strict, "trace", trace, [&](const Json& obj) {
    const std::string& type = require(obj, "type").token;
    if (type == "meta") {
      trace.schema = require(obj, "schema").token;
      if (trace.schema != "rpol.trace.v2") {
        // Not tolerable even in lenient mode: the whole file speaks a
        // dialect this analyzer does not know.
        throw JsonlFatal("unknown trace schema: " + trace.schema);
      }
      trace.wall_unix_ns = require(obj, "wall_unix_ns").as_u64();
      saw_meta = true;
    } else if (type == "counter") {
      trace.counters[require(obj, "name").token] =
          require(obj, "value").as_u64();
    } else if (type == "gauge") {
      trace.gauges[require(obj, "name").token] =
          require(obj, "value").as_double();
    } else if (type == "histogram") {
      trace.histograms.push_back(parse_histogram(obj));
    } else if (type == "span") {
      trace.spans.push_back(parse_span(obj));
    } else {
      throw std::runtime_error("unknown record type '" + type + "'");
    }
  });
  if (!saw_meta) {
    throw std::runtime_error("not an rpol trace: no meta line found");
  }
  return trace;
}

Trace load_trace_file(const std::string& path, bool strict) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  return parse_trace_jsonl(in, strict);
}

TraceSummary summarize_trace(const Trace& trace) {
  TraceSummary summary;

  // Wall extent: the union [min start, max end] over all spans.
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const SpanRecord& s : trace.spans) {
    lo = std::min(lo, s.start_ns);
    hi = std::max(hi, s.start_ns + s.dur_ns);
  }
  summary.wall_extent_s =
      trace.spans.empty() ? 0.0 : static_cast<double>(hi - lo) / 1e9;

  // Per-phase: group spans by name.
  std::map<std::string, std::vector<double>> durations;
  for (const SpanRecord& s : trace.spans) {
    durations[s.name].push_back(static_cast<double>(s.dur_ns) / 1e9);
  }
  for (const auto& [name, xs] : durations) {
    PhaseSummary ph;
    ph.name = name;
    ph.count = xs.size();
    for (const double d : xs) ph.total_s += d;
    ph.wall_share =
        summary.wall_extent_s > 0.0 ? ph.total_s / summary.wall_extent_s : 0.0;
    ph.p50_s = sim::percentile(xs, 50.0);
    ph.p95_s = sim::percentile(xs, 95.0);
    ph.max_s = sim::max_value(xs);
    summary.phases.push_back(std::move(ph));
  }
  std::sort(summary.phases.begin(), summary.phases.end(),
            [](const PhaseSummary& a, const PhaseSummary& b) {
              return a.total_s > b.total_s;
            });

  // Per-worker: training spans ("train" sync pools, "submission" async) and
  // verification spans carry a worker tag; verdicts ride as span attrs.
  std::map<std::int64_t, WorkerSummary> workers;
  for (const SpanRecord& s : trace.spans) {
    if (s.worker < 0) continue;
    WorkerSummary& w = workers[s.worker];
    w.worker = s.worker;
    if (s.name == "train" || s.name == "submission") {
      w.train_s += static_cast<double>(s.dur_ns) / 1e9;
    }
    if (s.name == "verify") {
      w.verify_s += static_cast<double>(s.dur_ns) / 1e9;
    }
    if (const std::string* verdict = span_attr(s, "accepted")) {
      if (*verdict == "true") {
        ++w.accepts;
      } else {
        ++w.rejects;
      }
    }
    if (const std::string* dc = span_attr(s, "double_checks")) {
      w.double_checks += std::strtoll(dc->c_str(), nullptr, 10);
    }
  }
  for (const auto& entry : workers) summary.workers.push_back(entry.second);

  // Per-message-type bytes: the "bytes.<type>" counter namespace.
  for (const auto& [name, value] : trace.counters) {
    if (name.rfind("bytes.", 0) == 0) {
      summary.bytes_by_type.emplace_back(name.substr(6), value);
      summary.bytes_total += value;
    }
  }
  return summary;
}

void print_trace_summary(const Trace& trace, std::FILE* out) {
  const TraceSummary s = summarize_trace(trace);
  std::fprintf(out, "schema %s, %zu spans, %zu counters, %zu histograms\n",
               trace.schema.c_str(), trace.spans.size(), trace.counters.size(),
               trace.histograms.size());
  if (trace.skipped_lines > 0) {
    std::fprintf(out, "WARNING: skipped %zu malformed line%s:\n",
                 trace.skipped_lines, trace.skipped_lines == 1 ? "" : "s");
    for (const std::string& err : trace.parse_errors) {
      std::fprintf(out, "  %s\n", err.c_str());
    }
    if (trace.parse_errors.size() < trace.skipped_lines) {
      std::fprintf(out, "  ... and %zu more\n",
                   trace.skipped_lines - trace.parse_errors.size());
    }
  }
  if (trace.truncated_tail) {
    std::fprintf(out,
                 "WARNING: final record truncated at byte %zu (writer cut "
                 "mid-append)\n",
                 trace.truncated_tail_offset);
  }
  std::fprintf(out, "wall extent covered by spans: %.3f s\n", s.wall_extent_s);

  if (!s.phases.empty()) {
    std::fprintf(out, "\nper-phase (time share of wall extent)\n");
    std::fprintf(out, "%-16s %7s %10s %7s %10s %10s %10s\n", "phase", "count",
                 "total_s", "share", "p50_ms", "p95_ms", "max_ms");
    for (const PhaseSummary& ph : s.phases) {
      std::fprintf(out, "%-16s %7zu %10.3f %6.1f%% %10.3f %10.3f %10.3f\n",
                   ph.name.c_str(), ph.count, ph.total_s,
                   100.0 * ph.wall_share, ph.p50_s * 1e3, ph.p95_s * 1e3,
                   ph.max_s * 1e3);
    }
  }

  if (!s.workers.empty()) {
    std::fprintf(out, "\nper-worker\n");
    std::fprintf(out, "%-8s %10s %10s %8s %8s %14s\n", "worker", "train_s",
                 "verify_s", "accept", "reject", "double_checks");
    for (const WorkerSummary& w : s.workers) {
      std::fprintf(out, "%-8lld %10.3f %10.3f %8lld %8lld %14lld\n",
                   static_cast<long long>(w.worker), w.train_s, w.verify_s,
                   static_cast<long long>(w.accepts),
                   static_cast<long long>(w.rejects),
                   static_cast<long long>(w.double_checks));
    }
  }

  if (!s.bytes_by_type.empty()) {
    std::fprintf(out, "\nbytes by message type\n");
    std::fprintf(out, "%-18s %14s %7s\n", "type", "bytes", "share");
    for (const auto& [type, bytes] : s.bytes_by_type) {
      std::fprintf(out, "%-18s %14llu %6.1f%%\n", type.c_str(),
                   static_cast<unsigned long long>(bytes),
                   s.bytes_total > 0
                       ? 100.0 * static_cast<double>(bytes) /
                             static_cast<double>(s.bytes_total)
                       : 0.0);
    }
    std::fprintf(out, "%-18s %14llu\n", "total",
                 static_cast<unsigned long long>(s.bytes_total));
  }

  // Verdict + runtime counters of interest, if present.
  const auto counter_or_zero = [&](const char* name) -> std::uint64_t {
    const auto it = trace.counters.find(name);
    return it == trace.counters.end() ? 0 : it->second;
  };
  std::fprintf(out,
               "\nverify verdicts: accept=%llu reject=%llu double_check=%llu\n",
               static_cast<unsigned long long>(counter_or_zero("verify.accept")),
               static_cast<unsigned long long>(counter_or_zero("verify.reject")),
               static_cast<unsigned long long>(
                   counter_or_zero("verify.double_check")));
  // Fault/retry resilience counters (src/fault/): only printed when the run
  // saw transport faults or evictions, so fault-free traces are unchanged.
  const std::uint64_t retries = counter_or_zero("session.retry") +
                                counter_or_zero("pool.retransmission") +
                                counter_or_zero("async.retransmission");
  const std::uint64_t session_failures =
      counter_or_zero("pool.session_failure") + counter_or_zero("async.lost");
  const std::uint64_t evictions =
      counter_or_zero("pool.eviction") + counter_or_zero("async.eviction");
  const std::uint64_t decode_rejects =
      counter_or_zero("session.decode_reject") +
      counter_or_zero("session.oversize_rejected");
  if (retries + session_failures + evictions + decode_rejects > 0) {
    std::fprintf(out,
                 "fault resilience: retransmissions=%llu session_failures=%llu "
                 "evictions=%llu decode_rejects=%llu\n",
                 static_cast<unsigned long long>(retries),
                 static_cast<unsigned long long>(session_failures),
                 static_cast<unsigned long long>(evictions),
                 static_cast<unsigned long long>(decode_rejects));
  }
  const std::uint64_t pf_calls = counter_or_zero("runtime.parallel_for.calls");
  if (pf_calls > 0) {
    const std::uint64_t pf_inline =
        counter_or_zero("runtime.parallel_for.inline");
    const std::uint64_t pf_slices =
        counter_or_zero("runtime.parallel_for.slices");
    const auto threads_it = trace.gauges.find("runtime.threads");
    const double threads =
        threads_it == trace.gauges.end() ? 0.0 : threads_it->second;
    std::fprintf(out,
                 "thread pool: %llu parallel_for calls (%llu inline), "
                 "%llu slices",
                 static_cast<unsigned long long>(pf_calls),
                 static_cast<unsigned long long>(pf_inline),
                 static_cast<unsigned long long>(pf_slices));
    if (threads > 0.0 && pf_calls > pf_inline) {
      std::fprintf(out, ", utilization %.0f%% of %d threads",
                   100.0 * static_cast<double>(pf_slices) /
                       (static_cast<double>(pf_calls - pf_inline) * threads),
                   static_cast<int>(threads));
    }
    std::fprintf(out, "\n");
  }

  if (!trace.histograms.empty()) {
    std::fprintf(out, "\nhistograms (sampled)\n");
    std::fprintf(out, "%-24s %10s %10s %10s %10s\n", "name", "count", "p50_us",
                 "p95_us", "max_us");
    for (const ParsedHistogram& h : trace.histograms) {
      std::fprintf(out, "%-24s %10llu %10.1f %10.1f %10.1f\n", h.name.c_str(),
                   static_cast<unsigned long long>(h.count),
                   static_cast<double>(h.p50) / 1e3,
                   static_cast<double>(h.p95) / 1e3,
                   static_cast<double>(h.max) / 1e3);
    }
  }
}

}  // namespace rpol::obs
