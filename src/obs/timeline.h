// Causal timeline reconstruction over a rpol.trace.v2 export: stitches the
// per-epoch span trees back together (same-agent `parent` edges plus
// cross-agent `link` edges to a remote sender's span), attributes each
// epoch's wall time to protocol phases, surfaces per-worker costs and the
// critical path, and flags referential damage (orphan parents / broken
// links). Backs the `rpol timeline` CLI subcommand and the Chrome-trace /
// Perfetto export used for visual inspection.
//
// Terminology: a "trace" is one causal tree, identified by the id of its
// root span (SpanRecord::trace_id). The pool roots one per epoch
// (MiningPool::prepare_epoch, run by ShardedPool::run_epoch),
// AsyncMiningPool one per submission, a bare ProtocolSession one per
// session. Spans with trace_id == 0 come from legacy (v1) emitters and are
// reported as strays, never as errors.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/analyze.h"

namespace rpol::obs {

// Referential self-check: does every non-zero parent / link id resolve to a
// span present in the same file? `rpol trace --verify-refs` gates on ok().
struct RefCheck {
  std::size_t total_spans = 0;
  std::vector<std::uint64_t> orphan_parents;  // span ids with missing parent
  std::vector<std::uint64_t> orphan_links;    // span ids with missing link
  bool ok() const { return orphan_parents.empty() && orphan_links.empty(); }
};

RefCheck verify_refs(const Trace& trace);

// One protocol phase's share of an epoch: direct children of the trace root
// grouped by span name (train, commit, verify, aggregate, evaluate, ...).
struct PhaseAttribution {
  std::string phase;
  std::size_t count = 0;
  double total_s = 0.0;
  double share = 0.0;  // of the root span's extent
};

struct WorkerTimeline {
  std::int64_t worker = -1;
  double train_s = 0.0;   // "train" + "submission" spans
  double commit_s = 0.0;
  double verify_s = 0.0;
  std::size_t spans = 0;
};

// One reconstructed causal tree (= one epoch / submission / session).
struct EpochTimeline {
  std::uint64_t trace_id = 0;
  std::uint64_t root_span = 0;
  std::string root_name;
  std::int64_t epoch = -1;   // root span's epoch tag
  std::size_t span_count = 0;
  std::size_t root_count = 0;  // spans with no in-tree parent; 1 when intact
  double extent_s = 0.0;       // root span duration
  // Interval union of the root's direct children, clamped to the root:
  // "how much of the epoch do the phase spans explain?" The acceptance bar
  // for pool epochs is attributed_share >= 0.95.
  double attributed_s = 0.0;
  double attributed_share = 0.0;
  std::vector<PhaseAttribution> phases;   // sorted by total time, descending
  std::vector<WorkerTimeline> workers;    // sorted by worker id
  std::vector<std::string> critical_path;  // root -> ... span names
  double critical_path_s = 0.0;            // duration of its deepest span
};

struct TimelineReport {
  std::vector<EpochTimeline> epochs;  // sorted by (epoch, trace_id)
  std::size_t stray_spans = 0;        // trace_id == 0 (legacy emitters)
  RefCheck refs;
};

TimelineReport build_timeline(const Trace& trace);

void print_timeline(const TimelineReport& report, std::FILE* out);

// Chrome-trace ("traceEvents") JSON, loadable by Perfetto and
// chrome://tracing: one complete-event ("ph":"X") per span with
// microsecond timestamps, pid = trace id, tid = worker lane (0 = manager),
// plus process/thread-name metadata events. Returns the number of events
// written. Output is deterministic given identical span structure: only ts
// and dur vary between runs.
std::size_t export_chrome_trace(const Trace& trace, std::FILE* out);
bool export_chrome_trace_file(const Trace& trace, const std::string& path);

}  // namespace rpol::obs
