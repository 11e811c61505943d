#include "metrics.h"

#include <algorithm>
#include <stdexcept>

#include "obs/mem.h"

namespace rpol::perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

TailPercentile tail_percentile(std::vector<double> samples,
                               std::int64_t min_beyond) {
  TailPercentile out;
  const auto n = static_cast<std::int64_t>(samples.size());
  if (min_beyond < 0 || n <= min_beyond || n < 2) return out;
  std::sort(samples.begin(), samples.end());
  const std::int64_t i = n - 1 - min_beyond;
  out.ok = true;
  out.percentile = 100.0 * static_cast<double>(i) / static_cast<double>(n - 1);
  out.value = samples[static_cast<std::size_t>(i)];
  return out;
}

double subs_per_s(const std::vector<TimedUnit>& units, std::int64_t* count) {
  std::vector<double> rates;
  for (const TimedUnit& u : units) {
    if (u.warmup || u.seconds <= 0.0) continue;
    rates.push_back(static_cast<double>(u.submissions) / u.seconds);
  }
  if (count != nullptr) *count = static_cast<std::int64_t>(rates.size());
  return median(rates);
}

void VerdictTally::record(bool honest, Outcome outcome) {
  ++attempted;
  const bool accepted = outcome == Outcome::kAccepted;
  const bool judged = accepted || outcome == Outcome::kVerdictRejected ||
                      outcome == Outcome::kDecodeRejected;
  if (honest) {
    if (judged) ++honest_judged;
    if (judged && !accepted) ++honest_rejected;
    if (!accepted) ++failed;
  } else {
    if (judged) ++dishonest_judged;
    if (accepted) ++dishonest_accepted;
    if (accepted || outcome == Outcome::kError) ++failed;
  }
}

namespace {
double ratio(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

double VerdictTally::false_accept_rate() const {
  return ratio(dishonest_accepted, dishonest_judged);
}
double VerdictTally::false_reject_rate() const {
  return ratio(honest_rejected, honest_judged);
}
double VerdictTally::failed_share() const { return ratio(failed, attempted); }

double peak_rss_mb() {
  return static_cast<double>(obs::read_proc_rss().vm_hwm_bytes) / 1e6;
}

void claim_process_for(const std::string& workload) {
  static std::string owner;
  if (owner.empty()) {
    owner = workload;
  } else if (owner != workload) {
    throw std::logic_error("process already ran workload " + owner +
                           "; peak_rss_mb would mix " + workload + " into it");
  }
}

}  // namespace rpol::perfbench
