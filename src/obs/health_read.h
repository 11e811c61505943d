// Reader + renderer for rpol.health.v1 exports (health.h): parses the
// JSONL back into structs and prints the `rpol health` summary — per-worker
// score table, per-subsystem memory breakdown, sampled-RSS line, and the
// accounting-coverage ratio (tagged peak bytes vs sampled RSS growth).
// Lives in the analyzer library, not rpol_obs: readers may allocate and
// throw freely, emitters may not.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/json.h"

namespace rpol::obs {

struct HealthWorkerRow {
  std::size_t worker = 0;
  double score = 0.0;
  HealthState state = HealthState::kHealthy;
  bool evicted = false;
  int consecutive_failures = 0;
  HealthRegistry::WindowStats window;
};

struct HealthMemRow {
  std::string tag;
  MemStats stats;
};

// Damage fields (skipped_lines, parse_errors, truncated_tail) come from the
// shared JSONL reader (json.h), the same rule the trace reader applies.
struct HealthReport : JsonlDamage {
  std::string schema;  // "rpol.health.v1"
  std::uint64_t wall_unix_ns = 0;
  int eviction_threshold = 0;
  std::size_t workers_declared = 0;
  std::vector<HealthWorkerRow> workers;
  std::vector<HealthMemRow> mem;
  RssSampler::Summary rss;  // rss.valid == false when the line was absent
  bool has_rss = false;

  // Sum of per-tag peak bytes: the instrumented ceiling to compare against
  // sampled RSS growth.
  std::uint64_t tagged_peak_total() const;
  // tagged_peak_total() / rss.growth_bytes in [0, inf); 0 when either side
  // is unknown. `rpol health` reports this as accounting coverage.
  double coverage_vs_rss_growth() const;
};

// Parses an rpol.health.v1 JSONL document. Unknown line types are skipped
// (forward compatibility). Damaged lines are skipped-and-counted by
// default; with strict=true they throw std::runtime_error naming the line
// number — or, for a truncated final line, the byte offset.
HealthReport parse_health_jsonl(std::string_view text, bool strict = false);
HealthReport load_health_file(const std::string& path, bool strict = false);

// Human-readable summary used by `rpol health`.
void print_health_report(const HealthReport& report, std::FILE* out);

}  // namespace rpol::obs
