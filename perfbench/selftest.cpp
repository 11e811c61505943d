// Self-tests of the benchmark's metric definitions (metrics.h). The
// environment-isolation and one-process-per-workload checks run end to end
// from `python3 perfbench/run.py --selftest`.

#include <gtest/gtest.h>

#include <stdexcept>

#include "metrics.h"

namespace rpol::perfbench {
namespace {

TEST(SubsPerS, WarmupUnitIsExcluded) {
  std::vector<TimedUnit> units = {{true, 0.5, 6}, {false, 2.0, 6},
                                  {false, 3.0, 6}, {false, 1.5, 6}};
  std::int64_t n = 0;
  EXPECT_DOUBLE_EQ(subs_per_s(units, &n), 3.0);  // median of 3, 2, 4
  EXPECT_EQ(n, 3);
  // A warm-up of any duration leaves the figure unchanged.
  units[0].seconds = 1000.0;
  EXPECT_DOUBLE_EQ(subs_per_s(units, &n), 3.0);
  units[0].seconds = 1e-6;
  EXPECT_DOUBLE_EQ(subs_per_s(units, &n), 3.0);
  EXPECT_EQ(n, 3);
}

TEST(SubsPerS, OnlyWarmupGivesNoSamples) {
  std::int64_t n = -1;
  EXPECT_DOUBLE_EQ(subs_per_s({{true, 1.0, 4}}, &n), 0.0);
  EXPECT_EQ(n, 0);
}

TEST(VerdictTally, RateBases) {
  VerdictTally t;
  t.record(true, Outcome::kAccepted);
  t.record(true, Outcome::kVerdictRejected);   // false reject
  t.record(true, Outcome::kTimeout);           // failure, but not judged
  t.record(false, Outcome::kVerdictRejected);
  t.record(false, Outcome::kAccepted);         // false accept
  t.record(false, Outcome::kTimeout);          // correct, not judged
  t.record(false, Outcome::kDecodeRejected);   // correct, judged
  EXPECT_EQ(t.attempted, 7);
  EXPECT_EQ(t.honest_judged, 2);
  EXPECT_EQ(t.dishonest_judged, 3);
  EXPECT_DOUBLE_EQ(t.false_reject_rate(), 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(t.false_accept_rate(), 1.0 / 3.0);
  // Wrong outcomes: the rejected honest, the timed-out honest, the accepted
  // dishonest.
  EXPECT_EQ(t.failed, 3);
  EXPECT_DOUBLE_EQ(t.failed_share(), 3.0 / 7.0);
}

TEST(VerdictTally, ByzantineTimeoutAndDecodeRejectAreCorrect) {
  VerdictTally t;
  t.record(false, Outcome::kTimeout);
  t.record(false, Outcome::kDecodeRejected);
  EXPECT_EQ(t.failed, 0);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.0);
  EXPECT_DOUBLE_EQ(t.false_accept_rate(), 0.0);
}

TEST(VerdictTally, HonestTimeoutAndDecodeRejectAreFailures) {
  VerdictTally t;
  t.record(true, Outcome::kTimeout);
  t.record(true, Outcome::kDecodeRejected);
  t.record(true, Outcome::kAdmissionRejected);
  EXPECT_EQ(t.failed, 3);
  EXPECT_EQ(t.honest_judged, 1);  // only the decode reject is a judgement
  EXPECT_DOUBLE_EQ(t.false_reject_rate(), 1.0);
}

TEST(VerdictTally, ThrownCallIsAFailureForEveryPeer) {
  VerdictTally t;
  t.record(true, Outcome::kError);
  t.record(false, Outcome::kError);
  EXPECT_EQ(t.failed, 2);
  EXPECT_EQ(t.honest_judged + t.dishonest_judged, 0);
}

TEST(TailPercentile, NeedsTenSamplesBeyond) {
  std::vector<double> s;
  for (int i = 1; i <= 10; ++i) s.push_back(i);
  EXPECT_FALSE(tail_percentile(s).ok);  // at most 9 lie beyond any sample
  s.push_back(11);
  TailPercentile t = tail_percentile(s);
  ASSERT_TRUE(t.ok);  // the minimum has exactly 10 beyond it
  EXPECT_DOUBLE_EQ(t.value, 1.0);
  EXPECT_DOUBLE_EQ(t.percentile, 0.0);
  for (int i = 12; i <= 31; ++i) s.push_back(i);
  t = tail_percentile(s);  // 31 samples: index 20 has 10 beyond
  ASSERT_TRUE(t.ok);
  EXPECT_DOUBLE_EQ(t.value, 21.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0 * 20.0 / 30.0);
  int beyond = 0;
  for (double v : s) beyond += v > t.value ? 1 : 0;
  EXPECT_EQ(beyond, 10);
}

TEST(Median, EvenOddEmpty) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(PeakRss, OneWorkloadPerProcess) {
  claim_process_for("conv_pool");
  EXPECT_NO_THROW(claim_process_for("conv_pool"));
  EXPECT_THROW(claim_process_for("wide_stream"), std::logic_error);
  EXPECT_GT(peak_rss_mb(), 0.0);
}

}  // namespace
}  // namespace rpol::perfbench
