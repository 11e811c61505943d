// Exporter & analyzer coverage for the observability layer (src/obs):
// golden-line checks of the rpol.trace.v2 JSONL schema, a full
// export -> parse round trip through the analyzer, TraceContext propagation
// semantics, tolerant vs strict parsing of damaged files, the empty-trace
// and disabled-registry edge cases, histogram bucket math, fault-counter
// reporting, and the shared sim::percentile quantile routine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/analyze.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "sim/stats.h"

namespace rpol {
namespace {

// Every test starts from a disabled, empty registry and leaves it that way,
// so obs state never leaks across tests (or into other suites' processes).
class ObsTest : public ::testing::Test {
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

std::vector<std::string> export_lines() {
  const char* path = "obs_trace_test_out.jsonl";
  EXPECT_TRUE(obs::Registry::instance().export_jsonl_file(path));
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------------------
// sim::percentile (shared by analyzer summaries and the bench harness)

TEST(Percentile, EndpointsAndMedian) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 100.0), 5.0);
}

TEST(Percentile, LinearInterpolationR7) {
  const std::vector<double> xs = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 25.0), 12.5);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 75.0), 17.5);
  // Singleton: every percentile is the single value.
  EXPECT_DOUBLE_EQ(sim::percentile({7.0}, 95.0), 7.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(sim::percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW(sim::percentile({1.0}, -1.0), std::invalid_argument);
  EXPECT_THROW(sim::percentile({1.0}, 101.0), std::invalid_argument);
  EXPECT_THROW(sim::percentile_sorted({}, 50.0), std::invalid_argument);
  EXPECT_THROW(sim::percentile_sorted({1.0}, 100.5), std::invalid_argument);
}

// Edge-case pins for the R-7 routine: p=100 on every size (the rank lands
// exactly on the last index — no out-of-bounds interpolation partner),
// duplicate-heavy samples (interpolating between equal values must return
// exactly that value, no rounding drift), and near-100 percentiles whose
// rank falls inside the final gap.
TEST(Percentile, ExactTopAndDuplicateHeavySamples) {
  EXPECT_DOUBLE_EQ(sim::percentile({3.0}, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(sim::percentile({3.0, 9.0}, 100.0), 9.0);
  EXPECT_DOUBLE_EQ(sim::percentile({3.0, 9.0}, 99.9), 9.0 - 0.001 * 6.0);

  // All-equal sample: every percentile is the common value, bit-exact.
  const std::vector<double> flat(17, 4.25);
  for (const double p : {0.0, 37.5, 50.0, 95.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(sim::percentile(flat, p), 4.25) << "p=" << p;
  }

  // Duplicate-heavy with one outlier: the median sits in the duplicate
  // plateau; p=100 is exactly the outlier; p=95 interpolates into the gap.
  std::vector<double> heavy(19, 1.0);
  heavy.push_back(100.0);  // sorted rank 19 of 0..19
  EXPECT_DOUBLE_EQ(sim::percentile(heavy, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(sim::percentile(heavy, 100.0), 100.0);
  const double rank = 0.95 * 19.0;  // 18.05: between the plateau and outlier
  EXPECT_DOUBLE_EQ(sim::percentile(heavy, 95.0),
                   1.0 + (rank - 18.0) * (100.0 - 1.0));

  // percentile_sorted is the same function modulo the caller's sort.
  std::vector<double> sorted = heavy;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.0, 50.0, 95.0, 100.0}) {
    EXPECT_DOUBLE_EQ(sim::percentile_sorted(sorted, p),
                     sim::percentile(heavy, p));
  }
}

// bench_util::summarize_latencies rides on the same quantile routine; its
// empty-input contract (all zeros, no throw) is what lets soak benches
// report windows with zero completed samples.
TEST(Percentile, LatencySummaryHandlesEmptySingleAndDuplicates) {
  const bench::LatencySummary empty = bench::summarize_latencies({});
  EXPECT_DOUBLE_EQ(empty.best, 0.0);
  EXPECT_DOUBLE_EQ(empty.p50, 0.0);
  EXPECT_DOUBLE_EQ(empty.p95, 0.0);
  EXPECT_DOUBLE_EQ(empty.worst, 0.0);

  const bench::LatencySummary one = bench::summarize_latencies({2.5});
  EXPECT_DOUBLE_EQ(one.best, 2.5);
  EXPECT_DOUBLE_EQ(one.p50, 2.5);
  EXPECT_DOUBLE_EQ(one.p95, 2.5);
  EXPECT_DOUBLE_EQ(one.worst, 2.5);

  const bench::LatencySummary dup =
      bench::summarize_latencies({1.0, 1.0, 1.0, 1.0, 5.0});
  EXPECT_DOUBLE_EQ(dup.best, 1.0);
  EXPECT_DOUBLE_EQ(dup.p50, 1.0);
  EXPECT_DOUBLE_EQ(dup.worst, 5.0);
  EXPECT_DOUBLE_EQ(dup.p95, 1.0 + 0.8 * 4.0);  // rank 3.8 in the final gap
}

// ---------------------------------------------------------------------------
// Histogram bucket math

TEST(Histogram, SmallValuesGetExactBuckets) {
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(obs::Histogram::bucket_index(v), static_cast<int>(v));
    EXPECT_EQ(obs::Histogram::bucket_upper_bound(static_cast<int>(v)), v);
  }
}

TEST(Histogram, BucketBoundsAreConsistent) {
  // Each value lands in exactly the bucket whose bound interval covers it.
  for (int i = 0; i < obs::Histogram::kNumBuckets - 1; ++i) {
    const std::uint64_t ub = obs::Histogram::bucket_upper_bound(i);
    EXPECT_EQ(obs::Histogram::bucket_index(ub), i) << "bucket " << i;
    EXPECT_EQ(obs::Histogram::bucket_index(ub + 1), i + 1) << "bucket " << i;
    EXPECT_LT(ub, obs::Histogram::bucket_upper_bound(i + 1));
  }
  EXPECT_EQ(obs::Histogram::bucket_index(UINT64_MAX),
            obs::Histogram::kNumBuckets - 1);
}

TEST(Histogram, RecordsAndApproximatesPercentiles) {
  obs::Histogram h("t");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 1000);
  EXPECT_EQ(h.count(), 100U);
  EXPECT_EQ(h.max(), 100'000U);
  // Log-linear buckets bound the relative error at ~12.5% (upper estimate).
  const std::uint64_t p50 = h.approx_percentile(50.0);
  EXPECT_GE(p50, 50'000U);
  EXPECT_LE(p50, 58'000U);
  const std::uint64_t p95 = h.approx_percentile(95.0);
  EXPECT_GE(p95, 95'000U);
  EXPECT_LE(p95, 108'000U);
  // Empty histogram reports 0 everywhere.
  obs::Histogram empty("e");
  EXPECT_EQ(empty.approx_percentile(50.0), 0U);
}

TEST(Histogram, SingleSampleCollapsesAllPercentiles) {
  obs::Histogram h("one");
  h.record(5);  // small value -> exact bucket, so the estimate is exact
  EXPECT_EQ(h.count(), 1U);
  EXPECT_EQ(h.max(), 5U);
  EXPECT_EQ(h.approx_percentile(0.0), 5U);
  EXPECT_EQ(h.approx_percentile(50.0), 5U);
  EXPECT_EQ(h.approx_percentile(95.0), 5U);
  EXPECT_EQ(h.approx_percentile(100.0), 5U);
}

TEST(Histogram, AllSamplesInOneBucketShareOneEstimate) {
  obs::Histogram h("same");
  for (int i = 0; i < 1000; ++i) h.record(70'000);
  EXPECT_EQ(h.count(), 1000U);
  const int idx = obs::Histogram::bucket_index(70'000);
  EXPECT_EQ(h.bucket(idx), 1000U);
  // Every percentile resolves to the one occupied bucket, clamped by max():
  // with identical samples the estimate is exact at every p.
  EXPECT_GE(obs::Histogram::bucket_upper_bound(idx), 70'000U);
  EXPECT_EQ(h.approx_percentile(1.0), 70'000U);
  EXPECT_EQ(h.approx_percentile(50.0), 70'000U);
  EXPECT_EQ(h.approx_percentile(99.0), 70'000U);
}

// ---------------------------------------------------------------------------
// Exporter schema (golden lines) and analyzer round trip

TEST_F(ObsTest, GoldenJsonlSchema) {
  obs::set_enabled(true);
  obs::count("bytes.commitment", 42);
  obs::gauge("runtime.threads").set(4.0);
  obs::histogram("kernel.matmul_ns").record(5);
  {
    // Root a fresh causal tree (invalid remote context), then hang a
    // same-agent child off it — the propagation shape every epoch uses.
    obs::Span root("epoch", obs::TraceContext{}, -1, 3);
    obs::Span child("train", root, 1, 3);
    child.attr("storage_bytes", std::uint64_t{1024});
    child.attr("note", std::string_view("a\"b"));
  }

  const std::vector<std::string> lines = export_lines();
  ASSERT_EQ(lines.size(), 6U);  // meta, counter, gauge, histogram, 2 spans
  EXPECT_EQ(lines[0].rfind("{\"type\":\"meta\",\"schema\":\"rpol.trace.v2\","
                           "\"wall_unix_ns\":",
                           0),
            0U);
  EXPECT_EQ(lines[1],
            "{\"type\":\"counter\",\"name\":\"bytes.commitment\",\"value\":42}");
  EXPECT_EQ(lines[2],
            "{\"type\":\"gauge\",\"name\":\"runtime.threads\",\"value\":4}");
  EXPECT_EQ(lines[3].rfind("{\"type\":\"histogram\",\"name\":\"kernel.matmul_"
                           "ns\",\"count\":1,\"sum\":5,\"max\":5,",
                           0),
            0U);
  EXPECT_NE(lines[3].find("\"buckets\":[[5,1]]"), std::string::npos);
  // Spans export in completion order: the child closes before the root.
  // Both carry the root's id as their trace; neither crossed an agent
  // boundary, so link stays 0.
  EXPECT_EQ(lines[4].rfind("{\"type\":\"span\",\"id\":2,\"parent\":1,"
                           "\"trace\":1,\"link\":0,"
                           "\"name\":\"train\",\"worker\":1,\"epoch\":3,",
                           0),
            0U);
  EXPECT_NE(lines[4].find("\"storage_bytes\":1024"), std::string::npos);
  EXPECT_NE(lines[4].find("\"note\":\"a\\\"b\""), std::string::npos);
  EXPECT_EQ(lines[5].rfind("{\"type\":\"span\",\"id\":1,\"parent\":0,"
                           "\"trace\":1,\"link\":0,"
                           "\"name\":\"epoch\",\"worker\":-1,\"epoch\":3,",
                           0),
            0U);
}

TEST_F(ObsTest, SpanPropagationSemantics) {
  obs::set_enabled(true);
  // Legacy ctor: raw parent id, no trace membership.
  obs::Span legacy("legacy", std::uint64_t{0});
  EXPECT_EQ(legacy.trace_id(), 0U);
  EXPECT_EQ(legacy.context().trace_id, 0U);
  EXPECT_TRUE(legacy.context().valid());  // span_id is still real

  // Invalid remote context roots a new tree: trace_id == own id.
  obs::Span root("epoch", obs::TraceContext{});
  EXPECT_EQ(root.trace_id(), root.id());

  // Same-agent child inherits the tree, links nothing.
  obs::Span child("train", root);
  EXPECT_EQ(child.trace_id(), root.trace_id());

  // A valid remote context is adopted: same tree, link = remote span.
  const obs::TraceContext remote = root.context();
  obs::Span adopted("worker_epoch", remote, 2, 0);
  EXPECT_EQ(adopted.trace_id(), root.trace_id());
  EXPECT_NE(adopted.id(), root.id());

  // Inert spans (tracing off) hand out the all-zero context, so remote
  // receivers degrade to fresh roots instead of linking to id 0.
  obs::set_enabled(false);
  obs::Span inert("off");
  EXPECT_FALSE(inert.context().valid());
  EXPECT_EQ(inert.context().trace_id, 0U);
  obs::set_enabled(true);

  // The recorded link field round-trips through the registry snapshot.
  const auto spans = obs::Registry::instance().spans();
  ASSERT_EQ(spans.size(), 0U);  // all spans above are still open
  {
    obs::Span closed("verify", remote, 2, 0);
  }
  const auto closed_spans = obs::Registry::instance().spans();
  ASSERT_EQ(closed_spans.size(), 1U);
  EXPECT_EQ(closed_spans[0].trace_id, root.trace_id());
  EXPECT_EQ(closed_spans[0].link, root.id());
  EXPECT_EQ(closed_spans[0].parent, 0U);  // cross-agent: no local parent
}

TEST_F(ObsTest, ExportParsesBackLosslessly) {
  obs::set_enabled(true);
  obs::count("bytes.state", 123'456'789'012ULL);  // needs u64 round trip
  obs::count("bytes.update", 7);
  obs::count("verify.accept", 2);
  obs::gauge("table3.RPoLv2.capital_usd").set(5.46);
  obs::histogram("kernel.matmul_ns").record(1000);
  obs::histogram("kernel.matmul_ns").record(2000);
  {
    // Adopt a synthetic remote context so non-zero trace/link round-trip.
    obs::Span verify("verify", obs::TraceContext{10, 5}, 2, 1);
    verify.attr("accepted", true);
    verify.attr("double_checks", std::int64_t{1});
  }
  ASSERT_TRUE(obs::Registry::instance().export_jsonl_file(
      "obs_trace_test_out.jsonl"));

  const obs::Trace trace = obs::load_trace_file("obs_trace_test_out.jsonl");
  EXPECT_EQ(trace.schema, "rpol.trace.v2");
  EXPECT_GT(trace.wall_unix_ns, 0U);
  EXPECT_EQ(trace.skipped_lines, 0U);
  EXPECT_EQ(trace.counters.at("bytes.state"), 123'456'789'012ULL);
  EXPECT_EQ(trace.counters.at("verify.accept"), 2U);
  EXPECT_DOUBLE_EQ(trace.gauges.at("table3.RPoLv2.capital_usd"), 5.46);
  ASSERT_EQ(trace.histograms.size(), 1U);
  EXPECT_EQ(trace.histograms[0].count, 2U);
  EXPECT_EQ(trace.histograms[0].sum, 3000U);
  ASSERT_EQ(trace.spans.size(), 1U);
  EXPECT_EQ(trace.spans[0].name, "verify");
  EXPECT_EQ(trace.spans[0].worker, 2);
  EXPECT_EQ(trace.spans[0].epoch, 1);
  EXPECT_EQ(trace.spans[0].trace_id, 10U);
  EXPECT_EQ(trace.spans[0].link, 5U);

  const obs::TraceSummary summary = obs::summarize_trace(trace);
  EXPECT_EQ(summary.bytes_total, 123'456'789'019ULL);
  ASSERT_EQ(summary.bytes_by_type.size(), 2U);
  EXPECT_EQ(summary.bytes_by_type[0].first, "state");
  ASSERT_EQ(summary.workers.size(), 1U);
  EXPECT_EQ(summary.workers[0].worker, 2);
  EXPECT_EQ(summary.workers[0].accepts, 1);
  EXPECT_EQ(summary.workers[0].double_checks, 1);
  ASSERT_EQ(summary.phases.size(), 1U);
  EXPECT_EQ(summary.phases[0].name, "verify");
  EXPECT_EQ(summary.phases[0].count, 1U);
}

TEST_F(ObsTest, EmptyTraceExportsMetaOnlyAndSummarizes) {
  obs::set_enabled(true);
  const std::vector<std::string> lines = export_lines();
  ASSERT_EQ(lines.size(), 1U);  // just the meta line

  const obs::Trace trace = obs::load_trace_file("obs_trace_test_out.jsonl");
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_TRUE(trace.counters.empty());
  const obs::TraceSummary summary = obs::summarize_trace(trace);
  EXPECT_EQ(summary.wall_extent_s, 0.0);
  EXPECT_TRUE(summary.phases.empty());
  EXPECT_EQ(summary.bytes_total, 0U);
  // Printing an empty trace must not crash.
  obs::print_trace_summary(trace, stdout);
}

TEST_F(ObsTest, ParserRejectsMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW(obs::parse_trace_jsonl(empty), std::runtime_error);
  std::istringstream no_meta(
      "{\"type\":\"counter\",\"name\":\"x\",\"value\":1}\n");
  EXPECT_THROW(obs::parse_trace_jsonl(no_meta), std::runtime_error);
  std::istringstream bad_schema(
      "{\"type\":\"meta\",\"schema\":\"other.v9\",\"wall_unix_ns\":1}\n");
  EXPECT_THROW(obs::parse_trace_jsonl(bad_schema), std::runtime_error);
  std::istringstream garbage("not json at all\n");
  EXPECT_THROW(obs::parse_trace_jsonl(garbage), std::runtime_error);
  EXPECT_THROW(obs::load_trace_file("does_not_exist.jsonl"),
               std::runtime_error);
}

TEST(Json, EveryAsciiByteRoundTripsThroughTheWriter) {
  const auto round_trip = [](const std::string& s) {
    std::string literal(1, '"');
    literal += obs::json_escape(s);
    literal += '"';
    return obs::parse_json(literal);
  };
  std::string all;
  for (int b = 0x01; b <= 0x7f; ++b) {
    const std::string one(1, static_cast<char>(b));
    const obs::Json v = round_trip(one);
    ASSERT_EQ(v.kind, obs::Json::Kind::kString) << "byte " << b;
    EXPECT_EQ(v.token, one) << "byte " << b;
    all += one;
  }
  EXPECT_EQ(round_trip(all).token, all);
}

TEST(Json, UnicodeEscapesNeedFourHexDigitsBelow0x80) {
  EXPECT_EQ(obs::parse_json("\"\\u0041\"").token, "A");
  // A code point above 0x7f or a non-hex digit is an error, never some
  // other byte.
  for (const char* bad : {"\"\\u00e9\"", "\"\\u00zz\"", "\"\\uZZZZ\""}) {
    EXPECT_THROW(obs::parse_json(bad), std::runtime_error) << bad;
  }
}

TEST_F(ObsTest, TolerantParserSkipsDamagedRecordsAndCountsThem) {
  // A valid meta line followed by a mix of good records and damage: the
  // default (tolerant) mode keeps the good records and counts the rest.
  const std::string body =
      "{\"type\":\"meta\",\"schema\":\"rpol.trace.v2\",\"wall_unix_ns\":1}\n"
      "{\"type\":\"counter\",\"name\":\"bytes.update\",\"value\":7}\n"
      "{\"type\":\"span\",\"id\":1,\"parent\":0,\"trace\":1,\"link\"\n"
      "totally not json\n"
      "{\"type\":\"gauge\",\"name\":\"runtime.threads\",\"value\":4}\n";
  std::istringstream tolerant(body);
  const obs::Trace trace = obs::parse_trace_jsonl(tolerant);
  EXPECT_EQ(trace.counters.at("bytes.update"), 7U);
  EXPECT_DOUBLE_EQ(trace.gauges.at("runtime.threads"), 4.0);
  EXPECT_TRUE(trace.spans.empty());
  EXPECT_EQ(trace.skipped_lines, 2U);
  ASSERT_GE(trace.parse_errors.size(), 1U);
  // Messages carry the 1-based line number for diagnosis.
  EXPECT_NE(trace.parse_errors[0].find("line 3"), std::string::npos);

  // Strict mode refuses the same stream.
  std::istringstream strict(body);
  EXPECT_THROW(obs::parse_trace_jsonl(strict, /*strict=*/true),
               std::runtime_error);
}

TEST_F(ObsTest, TruncatedFinalLineIsFlaggedNotFatal) {
  // An unterminated, unparseable final line is an export cut mid-append
  // (crash, or a reader racing the writer) — tolerant mode keeps the whole
  // prefix and flags the tail instead of reporting interior damage.
  const std::string meta =
      "{\"type\":\"meta\",\"schema\":\"rpol.trace.v2\",\"wall_unix_ns\":1}";
  const std::string counter =
      "{\"type\":\"counter\",\"name\":\"bytes.update\",\"value\":7}";
  const std::string partial = "{\"type\":\"span\",\"id\":9,\"par";
  const std::string body = meta + "\n" + counter + "\n" + partial;
  const std::size_t tail_offset = meta.size() + 1 + counter.size() + 1;

  std::istringstream tolerant(body);
  const obs::Trace trace = obs::parse_trace_jsonl(tolerant);
  EXPECT_EQ(trace.counters.at("bytes.update"), 7U);
  EXPECT_TRUE(trace.truncated_tail);
  EXPECT_EQ(trace.truncated_tail_offset, tail_offset);
  EXPECT_EQ(trace.skipped_lines, 0U);

  // Strict mode names the byte offset of the cut record.
  std::istringstream strict(body);
  try {
    obs::parse_trace_jsonl(strict, /*strict=*/true);
    FAIL() << "strict parse accepted a truncated tail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte offset " +
                                         std::to_string(tail_offset)),
              std::string::npos)
        << e.what();
  }

  // A complete final line that merely lacks its newline is NOT a cut.
  std::istringstream whole(meta + "\n" + counter);
  const obs::Trace ok = obs::parse_trace_jsonl(whole);
  EXPECT_FALSE(ok.truncated_tail);
  EXPECT_EQ(ok.counters.at("bytes.update"), 7U);
}

// Reads `path` fully; print_trace_summary writes to FILE*, so the fault
// counter tests route it through a scratch file.
std::string slurp(const char* path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(ObsTest, FaultCountersAppearInSummaryOnlyWhenNonzero) {
  obs::Trace trace;
  trace.schema = "rpol.trace.v2";
  trace.counters["bytes.update"] = 10;

  const char* path = "obs_trace_test_summary.txt";
  std::FILE* out = std::fopen(path, "w");
  ASSERT_NE(out, nullptr);
  obs::print_trace_summary(trace, out);
  std::fclose(out);
  // Fault-free runs keep the report unchanged — no resilience block.
  EXPECT_EQ(slurp(path).find("fault resilience"), std::string::npos);

  trace.counters["session.retry"] = 2;
  trace.counters["pool.retransmission"] = 3;
  trace.counters["pool.eviction"] = 1;
  trace.counters["session.decode_reject"] = 4;
  out = std::fopen(path, "w");
  ASSERT_NE(out, nullptr);
  obs::print_trace_summary(trace, out);
  std::fclose(out);
  const std::string report = slurp(path);
  EXPECT_NE(report.find("fault resilience"), std::string::npos);
  EXPECT_NE(report.find("retransmissions=5"), std::string::npos);
  EXPECT_NE(report.find("evictions=1"), std::string::npos);
  EXPECT_NE(report.find("decode_rejects=4"), std::string::npos);
}

TEST_F(ObsTest, DisabledRegistryRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  obs::count("bytes.state", 100);  // guarded: must not register
  {
    obs::Span s("epoch");
    EXPECT_FALSE(s.active());
    EXPECT_EQ(s.id(), 0U);
    s.attr("ignored", std::int64_t{1});
  }
  EXPECT_EQ(obs::Registry::instance().span_count(), 0U);
  EXPECT_EQ(obs::maybe_export("obs_trace_test_unwritten.jsonl"), "");
  // Direct handle use still works (set_enabled only gates the hot paths) —
  // but the export remains schema-valid either way.
  const std::vector<std::string> lines = export_lines();
  ASSERT_EQ(lines.size(), 1U);
}

TEST_F(ObsTest, ResetZeroesMetricsButKeepsHandles) {
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("bytes.update");
  c.add(5);
  { obs::Span s("epoch"); }
  EXPECT_EQ(obs::Registry::instance().span_count(), 1U);
  obs::Registry::instance().reset();
  EXPECT_EQ(c.value(), 0U);  // the same handle, zeroed
  EXPECT_EQ(obs::Registry::instance().span_count(), 0U);
  c.add(3);
  EXPECT_EQ(obs::counter("bytes.update").value(), 3U);
}

TEST_F(ObsTest, SampleTickFiresOneInEvery) {
  obs::set_enabled(true);
  std::atomic<std::uint64_t> tick{0};
  int fired = 0;
  for (int i = 0; i < 64; ++i) fired += obs::sample_tick(tick, 8) ? 1 : 0;
  EXPECT_EQ(fired, 8);
  obs::set_enabled(false);
  EXPECT_FALSE(obs::sample_tick(tick, 8));
  EXPECT_EQ(tick.load(), 64U);  // disabled guard skips the increment too
}

// Histogram record() spreads a sample over several words (count, sum, one
// bucket), so a reset or snapshot racing writers could once observe a
// half-applied sample. The writer-exclusion guard must make every snapshot
// internally consistent — count == sum over buckets — no matter how hard
// concurrent recorders hammer it, and nothing recorded may be torn in half
// (each value lands entirely before or entirely after each reset).
TEST_F(ObsTest, HistogramResetAndSnapshotStayConsistentUnderWriters) {
  obs::Histogram h("test.hammer");
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  std::vector<std::uint64_t> recorded(kWriters, 0);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&h, &stop, &recorded, t] {
      std::uint64_t n = 0;
      do {  // at least one record even if the main loop finishes first
        h.record(static_cast<std::uint64_t>(t) * 1000 + (n % 97));
        ++n;
      } while (!stop.load(std::memory_order_relaxed));
      recorded[static_cast<std::size_t>(t)] = n;
    });
  }

  // Wait for the writers to actually be running so the snapshots below
  // genuinely race them (the rounds otherwise finish before the OS
  // schedules a single writer thread).
  while (h.count() == 0) {
  }

  for (int round = 0; round < 200; ++round) {
    const obs::Histogram::Snapshot snap = h.snapshot();
    std::uint64_t bucket_sum = 0;
    for (const std::uint64_t b : snap.buckets) bucket_sum += b;
    ASSERT_EQ(snap.count, bucket_sum)
        << "snapshot tore a concurrent record at round " << round;
    // Interleave resets with the snapshots: a torn reset would leave a
    // half-wiped state the next consistency check catches.
    if (round % 10 == 9) h.reset();
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  // Final consistency after the dust settles: one more full reset leaves a
  // genuinely empty histogram.
  h.reset();
  const obs::Histogram::Snapshot fin = h.snapshot();
  EXPECT_EQ(fin.count, 0U);
  EXPECT_EQ(fin.sum, 0U);
  std::uint64_t fin_sum = 0;
  for (const std::uint64_t b : fin.buckets) fin_sum += b;
  EXPECT_EQ(fin_sum, 0U);
  std::uint64_t total = 0;
  for (const std::uint64_t n : recorded) total += n;
  EXPECT_GT(total, 0U);  // the hammer actually ran
}

}  // namespace
}  // namespace rpol
