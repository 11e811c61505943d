// Metric definitions of the repository benchmark, kept free of workload code
// so selftest.cpp can pin them on hand-made inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rpol::perfbench {

// Median of the samples (mean of the two middle values for an even count);
// 0 for no samples.
double median(std::vector<double> samples);

// The highest percentile of `samples` that still has at least `min_beyond`
// samples strictly after it in sorted order. With n sorted samples the
// candidate at index i has n - 1 - i samples beyond it, so the answer is
// index n - 1 - min_beyond, reported as the percentile 100 * i / (n - 1).
// `ok` is false when no index qualifies (n <= min_beyond), and then nothing
// should be printed.
struct TailPercentile {
  bool ok = false;
  double percentile = 0.0;  // in [0, 100]
  double value = 0.0;
};
TailPercentile tail_percentile(std::vector<double> samples,
                               std::int64_t min_beyond = 10);

// One unit of timed work: an epoch of a pool workload, a round of sessions
// of the wire workload. The warm-up unit runs during set-up and is recorded
// only so the definition below can be shown to drop it.
struct TimedUnit {
  bool warmup = false;
  double seconds = 0.0;
  std::int64_t submissions = 0;  // brought to an outcome in this unit
};

// Submissions per second: median over the non-warm-up units of
// submissions / seconds. `count` receives the number of units used.
double subs_per_s(const std::vector<TimedUnit>& units, std::int64_t* count);

// Outcome of one submission: the typed taxonomy of core/pool.h, whose
// integer values these mirror so callers convert with a cast, plus kError
// for a protocol call that threw instead of returning a status.
enum class Outcome : int {
  kAccepted = 0,
  kVerdictRejected,
  kDecodeRejected,
  kTimeout,
  kAdmissionRejected,
  kRequeued,
  kError,
};

// Verdict bookkeeping. A submission is "judged" when the manager reached a
// decision on bytes it received: accepted, rejected by verification, or
// rejected at decode. A timeout or a shed submission is not judged.
//   false_accept_rate = dishonest accepted / dishonest judged
//   false_reject_rate = honest judged and not accepted / honest judged
//   failed_share      = wrong outcomes / attempted, where an honest
//                       submission that is not accepted for any reason is
//                       wrong, and so is a dishonest one that is accepted.
// A dishonest submission that times out or is rejected at decode is a
// correct outcome; one whose call threw (kError) is not, since hostile
// input must end in a typed status.
struct VerdictTally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t honest_judged = 0;
  std::int64_t honest_rejected = 0;
  std::int64_t dishonest_judged = 0;
  std::int64_t dishonest_accepted = 0;

  void record(bool honest, Outcome outcome);
  double false_accept_rate() const;
  double false_reject_rate() const;
  double failed_share() const;
};

// Peak resident set of the calling process in MB (VmHWM), 0 off Linux.
double peak_rss_mb();

// Guards the rule that peak_rss_mb() describes one workload: the first call
// records `workload` for this process; a later call with another name throws
// std::logic_error.
void claim_process_for(const std::string& workload);

}  // namespace rpol::perfbench
