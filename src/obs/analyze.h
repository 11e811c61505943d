// Trace analyzer: loads a "rpol.trace.v2" JSONL export (src/obs/obs.h) back
// into structured records and summarizes it — per-phase wall-time shares and
// latency quantiles, per-worker train/verify time and verdicts, and
// per-message-type byte shares. Backs the `rpol trace` CLI subcommand and
// the exporter round-trip tests.
//
// Quantiles over span durations use sim::percentile (the same routine the
// bench harness uses), so analyzer and bench numbers are computed by one
// definition of "p50".

#pragma once

#include <cstdio>
#include <istream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"

namespace rpol::obs {

struct ParsedHistogram {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;  // (le, count)
};

// Damage fields (skipped_lines, parse_errors, truncated_tail) come from the
// shared JSONL reader (json.h).
struct Trace : JsonlDamage {
  std::string schema;
  std::uint64_t wall_unix_ns = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::vector<ParsedHistogram> histograms;
  std::vector<SpanRecord> spans;
};

// Parses one JSONL stream, line by line. A missing meta line or a schema
// other than "rpol.trace.v2" always throws std::runtime_error — the file is
// not an rpol trace at all. Damaged individual records are skipped and
// counted (Trace::skipped_lines) by default; with strict=true any
// unparsable line throws instead.
Trace parse_trace_jsonl(std::istream& in, bool strict = false);
Trace load_trace_file(const std::string& path, bool strict = false);

struct PhaseSummary {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double wall_share = 0.0;  // fraction of the trace's wall extent
  double p50_s = 0.0;
  double p95_s = 0.0;
  double max_s = 0.0;
};

struct WorkerSummary {
  std::int64_t worker = -1;
  double train_s = 0.0;
  double verify_s = 0.0;
  std::int64_t accepts = 0;
  std::int64_t rejects = 0;
  std::int64_t double_checks = 0;
};

struct TraceSummary {
  double wall_extent_s = 0.0;  // max span end - min span start
  std::vector<PhaseSummary> phases;    // sorted by total time, descending
  std::vector<WorkerSummary> workers;  // sorted by worker id
  std::vector<std::pair<std::string, std::uint64_t>> bytes_by_type;
  std::uint64_t bytes_total = 0;
};

TraceSummary summarize_trace(const Trace& trace);

// Human-readable report: phase table, worker table, byte shares, verdict
// counters, and kernel histograms.
void print_trace_summary(const Trace& trace, std::FILE* out);

}  // namespace rpol::obs
