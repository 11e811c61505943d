#include "obs/timeline.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "obs/json.h"

namespace rpol::obs {
namespace {

constexpr double kNsToS = 1e-9;

// The causal parent used for tree reconstruction: same-agent `parent` when
// present, otherwise the cross-agent `link` to a remote sender's span.
std::uint64_t effective_parent(const SpanRecord& s) {
  return s.parent != 0 ? s.parent : s.link;
}

bool is_train_phase(const std::string& name) {
  return name == "train" || name == "submission";
}

bool is_verify_phase(const std::string& name) {
  return name == "verify" || name == "reexecute" || name == "serve_proof" ||
         name == "proof_exchange";
}

}  // namespace

RefCheck verify_refs(const Trace& trace) {
  RefCheck check;
  check.total_spans = trace.spans.size();
  std::unordered_set<std::uint64_t> ids;
  ids.reserve(trace.spans.size());
  for (const auto& s : trace.spans) ids.insert(s.id);
  for (const auto& s : trace.spans) {
    if (s.parent != 0 && ids.count(s.parent) == 0) {
      check.orphan_parents.push_back(s.id);
    }
    if (s.link != 0 && ids.count(s.link) == 0) {
      check.orphan_links.push_back(s.id);
    }
  }
  return check;
}

TimelineReport build_timeline(const Trace& trace) {
  TimelineReport report;
  report.refs = verify_refs(trace);

  // Group spans into causal trees.
  std::map<std::uint64_t, std::vector<const SpanRecord*>> trees;
  for (const auto& s : trace.spans) {
    if (s.trace_id == 0) {
      ++report.stray_spans;
      continue;
    }
    trees[s.trace_id].push_back(&s);
  }

  for (auto& [trace_id, spans] : trees) {
    EpochTimeline tl;
    tl.trace_id = trace_id;
    tl.span_count = spans.size();

    std::unordered_map<std::uint64_t, const SpanRecord*> by_id;
    by_id.reserve(spans.size());
    for (const auto* s : spans) by_id.emplace(s->id, s);

    // Roots: spans whose effective parent does not resolve inside the tree.
    const SpanRecord* root = nullptr;
    for (const auto* s : spans) {
      const std::uint64_t p = effective_parent(*s);
      if (p != 0 && by_id.count(p) != 0) continue;
      ++tl.root_count;
      // Prefer the span whose own id IS the trace id — that is the true
      // root by construction; earliest start breaks ties on damaged files.
      if (root == nullptr || s->id == trace_id ||
          (root->id != trace_id && s->start_ns < root->start_ns)) {
        root = s;
      }
    }
    if (root == nullptr) {
      // Fully cyclic damage; fall back to the earliest span so the tree is
      // still reported rather than dropped.
      root = *std::min_element(spans.begin(), spans.end(),
                               [](const SpanRecord* a, const SpanRecord* b) {
                                 return a->start_ns < b->start_ns;
                               });
      tl.root_count = 1;
    }
    tl.root_span = root->id;
    tl.root_name = root->name;
    tl.epoch = root->epoch;
    tl.extent_s = static_cast<double>(root->dur_ns) * kNsToS;

    // Children index for the phase attribution and the critical path.
    std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
    for (const auto* s : spans) {
      if (s == root) continue;
      const std::uint64_t p = effective_parent(*s);
      if (p != 0) children[p].push_back(s);
    }

    // Phase attribution: direct children of the root, grouped by name, plus
    // the interval union of their extents clamped to the root's extent.
    std::map<std::string, PhaseAttribution> phases;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    const std::uint64_t root_begin = root->start_ns;
    const std::uint64_t root_end = root->start_ns + root->dur_ns;
    auto it = children.find(root->id);
    if (it != children.end()) {
      for (const auto* c : it->second) {
        PhaseAttribution& p = phases[c->name];
        p.phase = c->name;
        ++p.count;
        p.total_s += static_cast<double>(c->dur_ns) * kNsToS;
        const std::uint64_t b = std::max(c->start_ns, root_begin);
        const std::uint64_t e =
            std::min(c->start_ns + c->dur_ns, root_end);
        if (e > b) intervals.emplace_back(b, e);
      }
    }
    std::sort(intervals.begin(), intervals.end());
    std::uint64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (const auto& [b, e] : intervals) {
      if (!open || b > cur_e) {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (open) covered += cur_e - cur_b;
    tl.attributed_s = static_cast<double>(covered) * kNsToS;
    tl.attributed_share =
        root->dur_ns > 0
            ? static_cast<double>(covered) / static_cast<double>(root->dur_ns)
            : 0.0;
    for (auto& [name, p] : phases) {
      p.share = tl.extent_s > 0.0 ? p.total_s / tl.extent_s : 0.0;
      tl.phases.push_back(p);
    }
    std::sort(tl.phases.begin(), tl.phases.end(),
              [](const PhaseAttribution& a, const PhaseAttribution& b) {
                if (a.total_s != b.total_s) return a.total_s > b.total_s;
                return a.phase < b.phase;
              });

    // Per-worker cost rows.
    std::map<std::int64_t, WorkerTimeline> workers;
    for (const auto* s : spans) {
      if (s->worker < 0) continue;
      WorkerTimeline& w = workers[s->worker];
      w.worker = s->worker;
      ++w.spans;
      const double d = static_cast<double>(s->dur_ns) * kNsToS;
      if (is_train_phase(s->name)) w.train_s += d;
      else if (s->name == "commit") w.commit_s += d;
      else if (is_verify_phase(s->name)) w.verify_s += d;
    }
    for (const auto& [id, w] : workers) tl.workers.push_back(w);

    // Critical path: from the root, repeatedly descend into the child that
    // finishes last — the chain that bounds the epoch's wall time.
    const SpanRecord* cur = root;
    std::unordered_set<std::uint64_t> visited;  // cycle guard on damage
    while (cur != nullptr && visited.insert(cur->id).second) {
      tl.critical_path.push_back(cur->name);
      tl.critical_path_s = static_cast<double>(cur->dur_ns) * kNsToS;
      auto cit = children.find(cur->id);
      if (cit == children.end()) break;
      const SpanRecord* next = nullptr;
      for (const auto* c : cit->second) {
        if (next == nullptr ||
            c->start_ns + c->dur_ns > next->start_ns + next->dur_ns) {
          next = c;
        }
      }
      cur = next;
    }

    report.epochs.push_back(std::move(tl));
  }

  std::sort(report.epochs.begin(), report.epochs.end(),
            [](const EpochTimeline& a, const EpochTimeline& b) {
              if (a.epoch != b.epoch) return a.epoch < b.epoch;
              return a.trace_id < b.trace_id;
            });
  return report;
}

void print_timeline(const TimelineReport& report, std::FILE* out) {
  std::fprintf(out, "== causal timeline: %zu tree(s), %zu stray span(s) ==\n",
               report.epochs.size(), report.stray_spans);
  if (!report.refs.ok()) {
    std::fprintf(out,
                 "WARNING: broken references — %zu orphan parent(s), %zu "
                 "orphan link(s)\n",
                 report.refs.orphan_parents.size(),
                 report.refs.orphan_links.size());
  }
  for (const auto& tl : report.epochs) {
    std::fprintf(out, "\n-- %s", tl.root_name.c_str());
    if (tl.epoch >= 0) std::fprintf(out, " epoch %lld",
                                    static_cast<long long>(tl.epoch));
    std::fprintf(out,
                 " (trace %llu): %zu spans, extent %.3f ms, attributed "
                 "%.1f%%%s\n",
                 static_cast<unsigned long long>(tl.trace_id), tl.span_count,
                 tl.extent_s * 1e3, tl.attributed_share * 100.0,
                 tl.root_count == 1 ? "" : "  [BROKEN TREE: multiple roots]");
    for (const auto& p : tl.phases) {
      std::fprintf(out, "   %-16s x%-4zu %10.3f ms  %5.1f%%\n",
                   p.phase.c_str(), p.count, p.total_s * 1e3,
                   p.share * 100.0);
    }
    if (!tl.workers.empty()) {
      std::fprintf(out, "   worker     train(ms)   commit(ms)   verify(ms)\n");
      for (const auto& w : tl.workers) {
        std::fprintf(out, "   %-6lld %11.3f %12.3f %12.3f\n",
                     static_cast<long long>(w.worker), w.train_s * 1e3,
                     w.commit_s * 1e3, w.verify_s * 1e3);
      }
    }
    if (!tl.critical_path.empty()) {
      std::fprintf(out, "   critical path:");
      for (std::size_t i = 0; i < tl.critical_path.size(); ++i) {
        std::fprintf(out, "%s%s", i == 0 ? " " : " > ",
                     tl.critical_path[i].c_str());
      }
      std::fprintf(out, "\n");
    }
  }
}

std::size_t export_chrome_trace(const Trace& trace, std::FILE* out) {
  std::size_t events = 0;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);

  // Metadata: one process per causal tree (named by its root span), one
  // thread lane per agent (tid 0 = manager, tid w+1 = worker w). Sorted so
  // the export is stable across runs with identical span structure.
  std::map<std::uint64_t, const SpanRecord*> roots;
  std::map<std::pair<std::uint64_t, std::int64_t>, bool> lanes;
  bool has_stray = false;
  for (const auto& s : trace.spans) {
    if (s.trace_id == 0) {
      has_stray = true;
      lanes[{0, s.worker}] = true;
      continue;
    }
    lanes[{s.trace_id, s.worker}] = true;
    auto it = roots.find(s.trace_id);
    if (it == roots.end() || s.id == s.trace_id) roots[s.trace_id] = &s;
  }
  auto emit_comma = [&events, out] {
    if (events > 0) std::fputc(',', out);
    ++events;
  };
  if (has_stray) {
    emit_comma();
    std::fputs(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"untraced\"}}",
        out);
  }
  for (const auto& [trace_id, root] : roots) {
    emit_comma();
    std::fprintf(out,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%llu,"
                 "\"tid\":0,\"args\":{\"name\":\"",
                 static_cast<unsigned long long>(trace_id));
    std::fputs(json_escape(root->name).c_str(), out);
    if (root->epoch >= 0) {
      std::fprintf(out, " epoch %lld", static_cast<long long>(root->epoch));
    }
    std::fputs("\"}}", out);
  }
  for (const auto& [lane, unused] : lanes) {
    (void)unused;
    emit_comma();
    std::fprintf(out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%llu,"
                 "\"tid\":%lld,\"args\":{\"name\":\"",
                 static_cast<unsigned long long>(lane.first),
                 static_cast<long long>(lane.second + 1));
    if (lane.second < 0) {
      std::fputs("manager", out);
    } else {
      std::fprintf(out, "worker %lld", static_cast<long long>(lane.second));
    }
    std::fputs("\"}}", out);
  }

  // Complete events, in recorded (completion) order. Timestamps are the
  // only run-varying fields.
  for (const auto& s : trace.spans) {
    emit_comma();
    std::fputs("{\"name\":\"", out);
    std::fputs(json_escape(s.name).c_str(), out);
    std::fprintf(
        out,
        "\",\"cat\":\"rpol\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":%llu,\"tid\":%lld,\"args\":{\"id\":%llu,\"parent\":%llu,"
        "\"link\":%llu,\"epoch\":%lld}}",
        static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(s.dur_ns) / 1e3,
        static_cast<unsigned long long>(s.trace_id),
        static_cast<long long>(s.worker + 1),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.link),
        static_cast<long long>(s.epoch));
  }
  std::fputs("]}\n", out);
  return events;
}

bool export_chrome_trace_file(const Trace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  export_chrome_trace(trace, f);
  const bool ok = std::fclose(f) == 0;
  return ok;
}

}  // namespace rpol::obs
