#include "obs/health_read.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace rpol::obs {

namespace {

std::uint64_t u64_field(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  return v != nullptr ? v->as_u64() : 0;
}

bool bool_field(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  return v != nullptr && v->kind == Json::Kind::kBool && v->b;
}

std::string string_field(const Json& obj, std::string_view key) {
  const Json* v = obj.find(key);
  return (v != nullptr && v->kind == Json::Kind::kString) ? v->token
                                                          : std::string();
}

void parse_worker_line(const Json& obj, HealthReport& report) {
  HealthWorkerRow row;
  row.worker = static_cast<std::size_t>(u64_field(obj, "worker"));
  const Json* score = obj.find("score");
  row.score = score != nullptr ? score->as_double() : 0.0;
  row.state = health_state_from_name(string_field(obj, "state"));
  row.evicted = bool_field(obj, "evicted");
  row.consecutive_failures =
      static_cast<int>(u64_field(obj, "consecutive_failures"));
  if (const Json* w = obj.find("window"); w != nullptr) {
    row.window.total = u64_field(*w, "total");
    row.window.participated = u64_field(*w, "participated");
    row.window.accepted = u64_field(*w, "accepted");
    row.window.retransmissions = u64_field(*w, "retransmissions");
    row.window.mean_latency_ns = u64_field(*w, "mean_latency_ns");
    row.window.min_latency_ns = u64_field(*w, "min_latency_ns");
    row.window.max_latency_ns = u64_field(*w, "max_latency_ns");
  }
  report.workers.push_back(std::move(row));
}

}  // namespace

std::uint64_t HealthReport::tagged_peak_total() const {
  std::uint64_t sum = 0;
  for (const HealthMemRow& row : mem) sum += row.stats.peak_bytes;
  return sum;
}

double HealthReport::coverage_vs_rss_growth() const {
  if (!has_rss || !rss.valid || rss.growth_bytes == 0) return 0.0;
  return static_cast<double>(tagged_peak_total()) /
         static_cast<double>(rss.growth_bytes);
}

namespace {

HealthReport read_health(std::istream& in, bool strict) {
  HealthReport report;
  read_jsonl(in, strict, "health export", report, [&](const Json& obj) {
    const std::string type = string_field(obj, "type");
    if (type == "meta") {
      report.schema = string_field(obj, "schema");
      report.wall_unix_ns = u64_field(obj, "wall_unix_ns");
      report.eviction_threshold =
          static_cast<int>(u64_field(obj, "eviction_threshold"));
      report.workers_declared =
          static_cast<std::size_t>(u64_field(obj, "workers"));
    } else if (type == "worker") {
      parse_worker_line(obj, report);
    } else if (type == "mem") {
      HealthMemRow row;
      row.tag = string_field(obj, "tag");
      row.stats.current_bytes = u64_field(obj, "current_bytes");
      row.stats.peak_bytes = u64_field(obj, "peak_bytes");
      row.stats.total_bytes = u64_field(obj, "total_bytes");
      report.mem.push_back(std::move(row));
    } else if (type == "rss") {
      report.has_rss = true;
      report.rss.valid = bool_field(obj, "valid");
      report.rss.samples = u64_field(obj, "samples");
      report.rss.baseline_bytes = u64_field(obj, "baseline_bytes");
      report.rss.min_bytes = u64_field(obj, "min_bytes");
      report.rss.peak_bytes = u64_field(obj, "peak_bytes");
      report.rss.last_bytes = u64_field(obj, "last_bytes");
      report.rss.growth_bytes = u64_field(obj, "growth_bytes");
    }
    // Unknown types: skipped for forward compatibility.
  });
  return report;
}

}  // namespace

HealthReport parse_health_jsonl(std::string_view text, bool strict) {
  std::istringstream in{std::string(text)};
  return read_health(in, strict);
}

HealthReport load_health_file(const std::string& path, bool strict) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open health file: " + path);
  return read_health(in, strict);
}

namespace {

std::string human_bytes(std::uint64_t bytes) {
  char buf[64];
  if (bytes >= 1024ull * 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.2f GiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024ull * 1024) {
    std::snprintf(buf, sizeof buf, "%.2f MiB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%.2f KiB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%llu B",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace

void print_health_report(const HealthReport& report, std::FILE* out) {
  std::fprintf(out, "health report (%s), %zu worker(s), threshold %d\n",
               report.schema.empty() ? "unknown schema" : report.schema.c_str(),
               report.workers.size(), report.eviction_threshold);
  if (report.skipped_lines > 0) {
    std::fprintf(out, "  WARNING: skipped %zu malformed line%s\n",
                 report.skipped_lines, report.skipped_lines == 1 ? "" : "s");
    for (const std::string& err : report.parse_errors) {
      std::fprintf(out, "    %s\n", err.c_str());
    }
  }
  if (report.truncated_tail) {
    std::fprintf(out,
                 "  WARNING: final record truncated at byte %zu (writer cut "
                 "mid-append)\n",
                 report.truncated_tail_offset);
  }

  if (!report.workers.empty()) {
    std::fprintf(out,
                 "\n  %-7s %-7s %-9s %-8s %-9s %-9s %-8s %-12s\n",
                 "worker", "score", "state", "strikes", "sessions", "accepted",
                 "retrans", "mean-latency");
    for (const HealthWorkerRow& row : report.workers) {
      char latency[32];
      if (row.window.mean_latency_ns > 0) {
        std::snprintf(latency, sizeof latency, "%.3f ms",
                      static_cast<double>(row.window.mean_latency_ns) / 1e6);
      } else {
        std::snprintf(latency, sizeof latency, "-");
      }
      std::fprintf(out, "  %-7zu %-7.1f %-9s %-8d %-9llu %-9llu %-8llu %-12s\n",
                   row.worker, row.score, health_state_name(row.state),
                   row.consecutive_failures,
                   static_cast<unsigned long long>(row.window.total),
                   static_cast<unsigned long long>(row.window.accepted),
                   static_cast<unsigned long long>(row.window.retransmissions),
                   latency);
    }
  }

  if (!report.mem.empty()) {
    std::fprintf(out, "\n  memory by subsystem:\n");
    std::fprintf(out, "  %-12s %14s %14s %14s\n", "tag", "current", "peak",
                 "total");
    for (const HealthMemRow& row : report.mem) {
      std::fprintf(out, "  %-12s %14s %14s %14s\n", row.tag.c_str(),
                   human_bytes(row.stats.current_bytes).c_str(),
                   human_bytes(row.stats.peak_bytes).c_str(),
                   human_bytes(row.stats.total_bytes).c_str());
    }
    std::fprintf(out, "  %-12s %14s %14s\n", "(sum)", "",
                 human_bytes(report.tagged_peak_total()).c_str());
  }

  if (report.has_rss) {
    if (report.rss.valid) {
      std::fprintf(out,
                   "\n  rss: baseline %s, peak %s, growth %s over %llu "
                   "sample(s)\n",
                   human_bytes(report.rss.baseline_bytes).c_str(),
                   human_bytes(report.rss.peak_bytes).c_str(),
                   human_bytes(report.rss.growth_bytes).c_str(),
                   static_cast<unsigned long long>(report.rss.samples));
      const double cov = report.coverage_vs_rss_growth();
      if (cov > 0.0) {
        std::fprintf(out,
                     "  accounting coverage: tagged peak = %.0f%% of sampled "
                     "RSS growth%s\n",
                     cov * 100.0,
                     cov > 1.0 ? " (>100%: tag peaks are lifetime maxima and "
                                 "the allocator reuses freed pages)"
                               : "");
      }
    } else {
      std::fprintf(out, "\n  rss: unavailable (/proc not readable)\n");
    }
  }
}

}  // namespace rpol::obs
