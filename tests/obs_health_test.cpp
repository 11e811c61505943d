// Tests for the resource & health observability layer: tagged memory
// accounting (obs/mem.h), the per-worker health registry (obs/health.h),
// and the rpol.health.v1 export/parse round trip (obs/health_read.h).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "obs/health.h"
#include "obs/health_read.h"
#include "obs/mem.h"
#include "obs/obs.h"

namespace rpol::obs {
namespace {

// ---------------------------------------------------------------------------
// Tagged memory accounting

TEST(MemTags, NamesRoundTrip) {
  for (int t = 0; t < kNumMemTags; ++t) {
    const MemTag tag = static_cast<MemTag>(t);
    EXPECT_EQ(mem_tag_from_name(mem_tag_name(tag)), tag);
  }
  EXPECT_STREQ(mem_tag_name(MemTag::kCheckpoint), "checkpoint");
  EXPECT_STREQ(mem_tag_name(MemTag::kPackCache), "packcache");
  EXPECT_EQ(mem_tag_from_name("no-such-tag"), MemTag::kNumTags);
}

TEST(MemTags, AddSubTrackCurrentPeakTotal) {
  mem_reset();
  mem_add(MemTag::kWire, 100);
  mem_add(MemTag::kWire, 50);
  mem_sub(MemTag::kWire, 120);
  const MemStats s = mem_stats(MemTag::kWire);
  EXPECT_EQ(s.current_bytes, 30U);
  EXPECT_EQ(s.peak_bytes, 150U);
  EXPECT_EQ(s.total_bytes, 150U);
  mem_reset();
}

TEST(MemTags, SubClampsAtZeroInsteadOfWrapping) {
  mem_reset();
  mem_add(MemTag::kScratch, 10);
  mem_sub(MemTag::kScratch, 1'000'000);  // unmatched release
  EXPECT_EQ(mem_stats(MemTag::kScratch).current_bytes, 0U);
  mem_reset();
}

TEST(MemScopeTest, ReleasesOnDestructionAndSetIsDeltaAccounted) {
  mem_reset();
  {
    MemScope scope(MemTag::kMerkle, 1000);
    EXPECT_EQ(mem_stats(MemTag::kMerkle).current_bytes, 1000U);
    scope.set(400);  // shrink: subtracts the 600-byte delta
    EXPECT_EQ(mem_stats(MemTag::kMerkle).current_bytes, 400U);
    scope.set(700);  // grow: adds 300
    EXPECT_EQ(mem_stats(MemTag::kMerkle).current_bytes, 700U);
    EXPECT_EQ(scope.bytes(), 700U);
  }
  EXPECT_EQ(mem_stats(MemTag::kMerkle).current_bytes, 0U);
  // Peak and cumulative survive the release.
  EXPECT_EQ(mem_stats(MemTag::kMerkle).peak_bytes, 1000U);
  mem_reset();
}

TEST(MemScopeTest, MoveTransfersTheBalance) {
  mem_reset();
  MemScope a(MemTag::kCheckpoint, 256);
  MemScope b = std::move(a);
  EXPECT_EQ(a.bytes(), 0U);
  EXPECT_EQ(b.bytes(), 256U);
  EXPECT_EQ(mem_stats(MemTag::kCheckpoint).current_bytes, 256U);
  b.release();
  EXPECT_EQ(mem_stats(MemTag::kCheckpoint).current_bytes, 0U);
  mem_reset();
}

// ---------------------------------------------------------------------------
// Process RSS

TEST(ProcRss, ReadsNonZeroOnLinux) {
  const RssSample s = read_proc_rss();
#ifdef __linux__
  ASSERT_TRUE(s.valid);
  EXPECT_GT(s.vm_rss_bytes, 0U);
  EXPECT_GE(s.vm_hwm_bytes, s.vm_rss_bytes);
#else
  EXPECT_FALSE(s.valid);
#endif
}

TEST(RssSamplerTest, SamplesAndSummarizes) {
  RssSampler sampler(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.stop();
  sampler.stop();  // idempotent
  const RssSampler::Summary s = sampler.summary();
#ifdef __linux__
  ASSERT_TRUE(s.valid);
  EXPECT_GT(s.samples, 1U);
  EXPECT_GT(s.baseline_bytes, 0U);
  EXPECT_GE(s.peak_bytes, s.min_bytes);
  EXPECT_EQ(s.growth_bytes,
            s.peak_bytes > s.baseline_bytes ? s.peak_bytes - s.baseline_bytes
                                            : 0U);
#else
  EXPECT_FALSE(s.valid);
#endif
}

// ---------------------------------------------------------------------------
// Health registry: decision semantics (must match the legacy pool strikes)

HealthOutcome ok_outcome() {
  HealthOutcome o;
  o.participated = true;
  o.accepted = true;
  return o;
}

HealthOutcome failed_outcome() {
  HealthOutcome o;
  o.participated = true;
  o.accepted = false;
  return o;
}

TEST(HealthRegistryTest, ConsecutiveFailuresEvictExactlyAtThreshold) {
  HealthRegistry reg(/*eviction_threshold=*/3, /*workers=*/2);
  EXPECT_FALSE(reg.record(0, failed_outcome()));
  EXPECT_FALSE(reg.record(0, failed_outcome()));
  EXPECT_EQ(reg.consecutive_failures(0), 2);
  EXPECT_FALSE(reg.evicted(0));
  // The third consecutive failure evicts, and record() reports it exactly
  // once so callers can bump their eviction counters.
  EXPECT_TRUE(reg.record(0, failed_outcome()));
  EXPECT_TRUE(reg.evicted(0));
  EXPECT_EQ(reg.state(0), HealthState::kEvicted);
  EXPECT_EQ(reg.score(0), 0.0);
  // Further outcomes for an evicted worker are ignored (eviction is
  // permanent, matching the pools' legacy behavior).
  EXPECT_FALSE(reg.record(0, ok_outcome()));
  EXPECT_TRUE(reg.evicted(0));
}

TEST(HealthRegistryTest, OneAcceptedSessionClearsTheStrikes) {
  HealthRegistry reg(3, 1);
  reg.record(0, failed_outcome());
  reg.record(0, failed_outcome());
  reg.record(0, ok_outcome());
  EXPECT_EQ(reg.consecutive_failures(0), 0);
  reg.record(0, failed_outcome());
  reg.record(0, failed_outcome());
  EXPECT_FALSE(reg.evicted(0));  // non-consecutive failures never evict
}

TEST(HealthRegistryTest, NonParticipationCountsAsFailure) {
  HealthRegistry reg(1, 1);  // threshold 1: single failure evicts
  HealthOutcome absent;      // participated=false, accepted=false
  EXPECT_TRUE(reg.record(0, absent));
  EXPECT_TRUE(reg.evicted(0));
}

// The strike budget is split by failure KIND (link loss vs verify
// rejection): a worker alternating between the two never accrues
// eviction_threshold consecutive strikes of EITHER kind, even though its
// overall consecutive-failure streak (reporting only) keeps growing. Before
// the split, transport loss and rejection burned one shared budget and a
// flaky-but-honest worker on a lossy link could be evicted as "byzantine".
TEST(HealthRegistryTest, MixedLossAndRejectionStreaksDoNotEvict) {
  HealthRegistry reg(/*eviction_threshold=*/3, /*workers=*/1);
  HealthOutcome lost;  // participated=false: never delivered
  // Alternate the kinds so NEITHER counter reaches the threshold of 3,
  // even though the overall failure streak (4) is past it — under the old
  // shared budget this worker would already be gone.
  for (int i = 0; i < 4; ++i) {
    const HealthOutcome o = (i % 2 == 0) ? lost : failed_outcome();
    EXPECT_FALSE(reg.record(0, o)) << "at outcome " << i;
  }
  EXPECT_FALSE(reg.evicted(0));
  // Reporting still sees the whole mixed streak; each kind-counter holds
  // only its own share.
  EXPECT_EQ(reg.consecutive_failures(0), 4);
  EXPECT_EQ(reg.consecutive_losses(0), 2);
  EXPECT_EQ(reg.consecutive_rejections(0), 2);
  // One accepted session clears every counter at once.
  reg.record(0, ok_outcome());
  EXPECT_EQ(reg.consecutive_failures(0), 0);
  EXPECT_EQ(reg.consecutive_losses(0), 0);
  EXPECT_EQ(reg.consecutive_rejections(0), 0);
}

TEST(HealthRegistryTest, SingleKindStreaksStillEvictAtThreshold) {
  // Pure transport-loss streak: evicts at the threshold, exactly as the
  // legacy shared-budget registry did.
  HealthRegistry loss_reg(3, 1);
  HealthOutcome lost;
  EXPECT_FALSE(loss_reg.record(0, lost));
  EXPECT_FALSE(loss_reg.record(0, lost));
  EXPECT_TRUE(loss_reg.record(0, lost));
  EXPECT_TRUE(loss_reg.evicted(0));

  // Pure rejection streak, with interleaved losses that must not delay it:
  // the rejection counter marches to the threshold on its own.
  HealthRegistry rej_reg(3, 1);
  EXPECT_FALSE(rej_reg.record(0, failed_outcome()));
  EXPECT_FALSE(rej_reg.record(0, lost));  // loss strike 1 of 3
  EXPECT_FALSE(rej_reg.record(0, failed_outcome()));
  EXPECT_TRUE(rej_reg.record(0, failed_outcome()));  // rejection 3 of 3
  EXPECT_TRUE(rej_reg.evicted(0));
}

TEST(HealthRegistryTest, ScoresRankCleanWorkersAboveStrugglingOnes) {
  HealthRegistry reg(3, 3);
  // Fresh workers start at 100 / healthy.
  EXPECT_EQ(reg.score(2), 100.0);
  EXPECT_EQ(reg.state(2), HealthState::kHealthy);

  for (int i = 0; i < 8; ++i) {
    HealthOutcome clean = ok_outcome();
    clean.latency_ns = 1'000'000;
    reg.record(0, clean);

    HealthOutcome flaky = (i % 2 == 0) ? failed_outcome() : ok_outcome();
    flaky.retransmissions = 3;
    flaky.latency_ns = (i % 2 == 0) ? 9'000'000 : 1'000'000;
    reg.record(1, flaky);
  }
  EXPECT_GT(reg.score(0), 90.0);
  EXPECT_LT(reg.score(1), reg.score(0));
  EXPECT_EQ(reg.state(1), HealthState::kDegraded);

  const HealthRegistry::WindowStats s = reg.window_stats(1);
  EXPECT_EQ(s.total, 8U);
  EXPECT_EQ(s.accepted, 4U);
  EXPECT_EQ(s.retransmissions, 24U);
  EXPECT_EQ(s.min_latency_ns, 1'000'000U);
  EXPECT_EQ(s.max_latency_ns, 9'000'000U);
}

TEST(HealthRegistryTest, WindowIsBoundedAndForgetsOldOutcomes) {
  HealthRegistry reg(100, 1);  // threshold high enough to never evict
  for (std::size_t i = 0; i < HealthRegistry::kWindow; ++i) {
    reg.record(0, failed_outcome());
  }
  const double bad = reg.score(0);
  // A full window of clean sessions pushes every failure out of the ring.
  for (std::size_t i = 0; i < HealthRegistry::kWindow; ++i) {
    reg.record(0, ok_outcome());
  }
  EXPECT_EQ(reg.window_stats(0).total, HealthRegistry::kWindow);
  EXPECT_EQ(reg.window_stats(0).accepted, HealthRegistry::kWindow);
  EXPECT_GT(reg.score(0), bad);
  EXPECT_EQ(reg.state(0), HealthState::kHealthy);
}

TEST(HealthRegistryTest, OutOfRangeWorkersAreIgnored) {
  HealthRegistry reg(3, 2);
  EXPECT_FALSE(reg.record(7, failed_outcome()));
  EXPECT_TRUE(reg.evicted(7));  // out-of-range reads conservatively evicted
  EXPECT_EQ(reg.score(7), 0.0);
}

TEST(HealthStateNames, RoundTripAndConservativeFallback) {
  EXPECT_EQ(health_state_from_name(health_state_name(HealthState::kHealthy)),
            HealthState::kHealthy);
  EXPECT_EQ(health_state_from_name(health_state_name(HealthState::kDegraded)),
            HealthState::kDegraded);
  EXPECT_EQ(health_state_from_name("garbage"), HealthState::kEvicted);
}

// ---------------------------------------------------------------------------
// rpol.health.v1 export -> parse round trip

TEST(HealthExport, JsonlRoundTripsThroughTheReader) {
  mem_reset();
  mem_add(MemTag::kCheckpoint, 4096);
  mem_add(MemTag::kWire, 128);

  HealthRegistry reg(3, 3);
  for (int i = 0; i < 3; ++i) reg.record(0, ok_outcome());
  reg.record(1, failed_outcome());
  for (int i = 0; i < 3; ++i) reg.record(2, failed_outcome());

  RssSampler::Summary rss;
  rss.valid = true;
  rss.samples = 10;
  rss.baseline_bytes = 1000;
  rss.min_bytes = 900;
  rss.peak_bytes = 9192;
  rss.last_bytes = 5000;
  rss.growth_bytes = 8192;

  const std::string path = ::testing::TempDir() + "health_roundtrip.jsonl";
  ASSERT_TRUE(export_health_jsonl_file(path, reg, &rss));

  const HealthReport report = load_health_file(path);
  EXPECT_EQ(report.schema, "rpol.health.v1");
  EXPECT_EQ(report.eviction_threshold, 3);
  EXPECT_EQ(report.workers_declared, 3U);
  ASSERT_EQ(report.workers.size(), 3U);

  EXPECT_EQ(report.workers[0].state, HealthState::kHealthy);
  EXPECT_DOUBLE_EQ(report.workers[0].score, reg.score(0));
  EXPECT_EQ(report.workers[0].window.accepted, 3U);
  EXPECT_EQ(report.workers[1].state, HealthState::kDegraded);
  EXPECT_EQ(report.workers[1].consecutive_failures, 1);
  EXPECT_TRUE(report.workers[2].evicted);
  EXPECT_EQ(report.workers[2].score, 0.0);

  ASSERT_EQ(report.mem.size(), static_cast<std::size_t>(kNumMemTags));
  EXPECT_EQ(report.mem[0].tag, "checkpoint");
  EXPECT_EQ(report.mem[0].stats.current_bytes, 4096U);
  EXPECT_EQ(report.mem[2].tag, "wire");
  EXPECT_EQ(report.mem[2].stats.peak_bytes, 128U);

  ASSERT_TRUE(report.has_rss);
  EXPECT_TRUE(report.rss.valid);
  EXPECT_EQ(report.rss.growth_bytes, 8192U);
  // Coverage: (4096 + 128) tagged peak over 8192 growth.
  EXPECT_EQ(report.tagged_peak_total(), 4224U);
  EXPECT_NEAR(report.coverage_vs_rss_growth(), 4224.0 / 8192.0, 1e-12);

  std::remove(path.c_str());
  mem_reset();
}

TEST(HealthExport, UnknownLineTypesAreSkippedAndDamageIsTolerated) {
  const std::string doc =
      "{\"type\":\"meta\",\"schema\":\"rpol.health.v1\",\"wall_unix_ns\":1,"
      "\"eviction_threshold\":3,\"workers\":0}\n"
      "{\"type\":\"future-extension\",\"anything\":true}\n";
  const HealthReport report = parse_health_jsonl(doc);
  EXPECT_EQ(report.schema, "rpol.health.v1");
  EXPECT_TRUE(report.workers.empty());
  EXPECT_EQ(report.skipped_lines, 0U);

  // Interior damage: tolerant mode skips and counts, strict mode names the
  // line.
  const std::string damaged =
      "{\"type\":\"meta\",\"schema\":\"rpol.health.v1\"}\n"
      "{half a worker line\n"
      "{\"type\":\"worker\",\"worker\":0,\"score\":100}\n";
  const HealthReport tolerant = parse_health_jsonl(damaged);
  EXPECT_EQ(tolerant.skipped_lines, 1U);
  ASSERT_EQ(tolerant.parse_errors.size(), 1U);
  EXPECT_NE(tolerant.parse_errors[0].find("line 2"), std::string::npos);
  ASSERT_EQ(tolerant.workers.size(), 1U);  // parse continued past the damage
  EXPECT_THROW(parse_health_jsonl(damaged, /*strict=*/true),
               std::runtime_error);
}

TEST(HealthExport, TruncatedFinalLineIsFlaggedNotFatal) {
  // A final line with no trailing newline that fails to parse is a write
  // cut mid-append (a reader racing the exporter), not corruption: tolerant
  // mode keeps everything before it and flags the tail.
  const std::string meta =
      "{\"type\":\"meta\",\"schema\":\"rpol.health.v1\",\"wall_unix_ns\":1,"
      "\"eviction_threshold\":3,\"workers\":1}";
  const std::string partial = "{\"type\":\"worker\",\"worker\":0,\"sco";
  const std::string doc = meta + "\n" + partial;

  const HealthReport report = parse_health_jsonl(doc);
  EXPECT_EQ(report.schema, "rpol.health.v1");
  EXPECT_TRUE(report.truncated_tail);
  EXPECT_EQ(report.truncated_tail_offset, meta.size() + 1);
  EXPECT_EQ(report.skipped_lines, 0U);  // a cut tail is not interior damage

  // Strict mode throws, naming the byte offset where the cut record starts.
  try {
    parse_health_jsonl(doc, /*strict=*/true);
    FAIL() << "strict parse accepted a truncated tail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "byte offset " + std::to_string(meta.size() + 1)),
              std::string::npos)
        << e.what();
  }

  // A COMPLETE final line without a trailing newline still parses: only a
  // line that both lacks the newline and fails to parse is a cut.
  const std::string complete =
      meta + "\n" + "{\"type\":\"worker\",\"worker\":0,\"score\":100}";
  const HealthReport whole = parse_health_jsonl(complete);
  EXPECT_FALSE(whole.truncated_tail);
  ASSERT_EQ(whole.workers.size(), 1U);
}

}  // namespace
}  // namespace rpol::obs
