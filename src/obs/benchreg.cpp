#include "obs/benchreg.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace rpol::obs {
namespace {

std::string require_string(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr || v->kind != Json::Kind::kString) {
    throw std::runtime_error(std::string("bench record missing \"") + key +
                             "\"");
  }
  return v->token;
}

std::string record_key(const BenchRecord& r) { return r.bench + "/" + r.name; }

}  // namespace

void sort_bench_records(BenchReport& report) {
  std::sort(report.records.begin(), report.records.end(),
            [](const BenchRecord& a, const BenchRecord& b) {
              if (a.bench != b.bench) return a.bench < b.bench;
              return a.name < b.name;
            });
}

std::size_t write_bench_json(const BenchReport& report, std::FILE* out) {
  BenchReport sorted = report;
  sort_bench_records(sorted);
  std::fputs("{\"schema\":\"rpol.bench.v1\",\"records\":[", out);
  for (std::size_t i = 0; i < sorted.records.size(); ++i) {
    const BenchRecord& r = sorted.records[i];
    std::fputs(i == 0 ? "\n" : ",\n", out);
    std::fputs(" {\"bench\":\"", out);
    std::fputs(json_escape(r.bench).c_str(), out);
    std::fputs("\",\"name\":\"", out);
    std::fputs(json_escape(r.name).c_str(), out);
    std::fputs("\",\"unit\":\"", out);
    std::fputs(json_escape(r.unit).c_str(), out);
    std::fprintf(out, "\",\"value\":%.9g,\"higher_is_better\":%s", r.value,
                 r.higher_is_better ? "true" : "false");
    if (r.has_stats) {
      std::fprintf(out,
                   ",\"stats\":{\"best\":%.9g,\"p50\":%.9g,\"p95\":%.9g,"
                   "\"worst\":%.9g}",
                   r.stats.best, r.stats.p50, r.stats.p95, r.stats.worst);
    }
    std::fprintf(out, ",\"env\":{\"threads\":%lld,\"build\":\"",
                 static_cast<long long>(r.env.threads));
    std::fputs(json_escape(r.env.build).c_str(), out);
    std::fputs("\",\"compiler\":\"", out);
    std::fputs(json_escape(r.env.compiler).c_str(), out);
    std::fprintf(out, "\",\"peak_rss_bytes\":%llu}}",
                 static_cast<unsigned long long>(r.env.peak_rss_bytes));
  }
  std::fputs("\n]}\n", out);
  return sorted.records.size();
}

bool write_bench_json_file(const BenchReport& report, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  write_bench_json(report, f);
  return std::fclose(f) == 0;
}

BenchReport parse_bench_json(std::string_view text) {
  const Json root = parse_json(text);
  if (root.kind != Json::Kind::kObject) {
    throw std::runtime_error("bench file: top level is not an object");
  }
  const Json* schema = root.find("schema");
  if (schema == nullptr || schema->kind != Json::Kind::kString ||
      schema->token != "rpol.bench.v1") {
    throw std::runtime_error("bench file: unknown bench schema");
  }
  const Json* records = root.find("records");
  if (records == nullptr || records->kind != Json::Kind::kArray) {
    throw std::runtime_error("bench file: missing \"records\" array");
  }
  BenchReport report;
  report.records.reserve(records->arr.size());
  for (const Json& jr : records->arr) {
    if (jr.kind != Json::Kind::kObject) {
      throw std::runtime_error("bench file: record is not an object");
    }
    BenchRecord r;
    r.bench = require_string(jr, "bench");
    r.name = require_string(jr, "name");
    r.unit = require_string(jr, "unit");
    const Json* value = jr.find("value");
    if (value == nullptr || value->kind != Json::Kind::kNumber) {
      throw std::runtime_error("bench file: record missing numeric \"value\"");
    }
    r.value = value->as_double();
    if (const Json* hib = jr.find("higher_is_better");
        hib != nullptr && hib->kind == Json::Kind::kBool) {
      r.higher_is_better = hib->b;
    }
    if (const Json* stats = jr.find("stats");
        stats != nullptr && stats->kind == Json::Kind::kObject) {
      r.has_stats = true;
      if (const Json* v = stats->find("best")) r.stats.best = v->as_double();
      if (const Json* v = stats->find("p50")) r.stats.p50 = v->as_double();
      if (const Json* v = stats->find("p95")) r.stats.p95 = v->as_double();
      if (const Json* v = stats->find("worst")) r.stats.worst = v->as_double();
    }
    if (const Json* env = jr.find("env");
        env != nullptr && env->kind == Json::Kind::kObject) {
      if (const Json* v = env->find("threads")) r.env.threads = v->as_i64();
      if (const Json* v = env->find("build");
          v != nullptr && v->kind == Json::Kind::kString) {
        r.env.build = v->token;
      }
      if (const Json* v = env->find("compiler");
          v != nullptr && v->kind == Json::Kind::kString) {
        r.env.compiler = v->token;
      }
      // Absent in pre-memory-column files: stays 0 (= not recorded).
      if (const Json* v = env->find("peak_rss_bytes")) {
        r.env.peak_rss_bytes = v->as_u64();
      }
    }
    report.records.push_back(std::move(r));
  }
  sort_bench_records(report);
  return report;
}

BenchReport load_bench_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open bench file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_bench_json(buf.str());
}

BenchReport merge_bench_reports(const BenchReport& base,
                                const BenchReport& update) {
  std::map<std::string, BenchRecord> merged;
  for (const auto& r : base.records) merged[record_key(r)] = r;
  for (const auto& r : update.records) merged[record_key(r)] = r;
  BenchReport out;
  out.records.reserve(merged.size());
  for (auto& [key, r] : merged) out.records.push_back(std::move(r));
  sort_bench_records(out);
  return out;
}

BenchDiffResult diff_bench(const BenchReport& baseline,
                           const BenchReport& current, double tolerance,
                           double mem_tolerance) {
  BenchDiffResult diff;
  diff.tolerance = tolerance;
  diff.mem_tolerance = mem_tolerance;

  std::map<std::string, const BenchRecord*> cur;
  for (const auto& r : current.records) cur[record_key(r)] = &r;
  std::map<std::string, bool> matched;

  BenchReport base_sorted = baseline;
  sort_bench_records(base_sorted);
  for (const auto& b : base_sorted.records) {
    const std::string key = record_key(b);
    const auto it = cur.find(key);
    if (it == cur.end()) {
      diff.only_baseline.push_back(key);
      continue;
    }
    matched[key] = true;
    const BenchRecord& c = *it->second;
    BenchDelta d;
    d.bench = b.bench;
    d.name = b.name;
    d.unit = b.unit;
    d.baseline = b.value;
    d.current = c.value;
    d.higher_is_better = b.higher_is_better;
    d.ratio = b.value != 0.0 ? c.value / b.value : 0.0;
    if (b.value != 0.0 && std::isfinite(c.value)) {
      if (b.higher_is_better) {
        d.regression = c.value < b.value * (1.0 - tolerance);
        d.improvement = c.value > b.value * (1.0 + tolerance);
      } else {
        d.regression = c.value > b.value * (1.0 + tolerance);
        d.improvement = c.value < b.value * (1.0 - tolerance);
      }
    } else {
      d.regression = !std::isfinite(c.value);
    }
    if (d.regression) ++diff.regressions;
    // Memory column: compared only when both sides recorded a peak RSS
    // (older baselines carry 0), always lower-is-better.
    d.baseline_rss = b.env.peak_rss_bytes;
    d.current_rss = c.env.peak_rss_bytes;
    if (d.baseline_rss > 0 && d.current_rss > 0) {
      d.rss_ratio = static_cast<double>(d.current_rss) /
                    static_cast<double>(d.baseline_rss);
      if (mem_tolerance > 0.0) {
        d.rss_regression = d.rss_ratio > 1.0 + mem_tolerance;
        if (d.rss_regression) ++diff.mem_regressions;
      }
    }
    diff.deltas.push_back(std::move(d));
  }
  for (const auto& r : current.records) {
    const std::string key = record_key(r);
    if (matched.find(key) == matched.end()) diff.only_current.push_back(key);
  }
  std::sort(diff.only_current.begin(), diff.only_current.end());
  return diff;
}

void print_bench_diff(const BenchDiffResult& diff, std::FILE* out) {
  // RSS columns appear only when some record carries the memory column, so
  // diffs of old files render exactly as before.
  bool any_rss = false;
  for (const auto& d : diff.deltas) {
    if (d.baseline_rss > 0 || d.current_rss > 0) any_rss = true;
  }
  if (diff.mem_tolerance > 0.0) {
    std::fprintf(out,
                 "== bench-diff: %zu compared, %zu regression(s) at ±%.0f%%, "
                 "%zu memory regression(s) at +%.0f%% ==\n",
                 diff.deltas.size(), diff.regressions, diff.tolerance * 100.0,
                 diff.mem_regressions, diff.mem_tolerance * 100.0);
  } else {
    std::fprintf(
        out, "== bench-diff: %zu compared, %zu regression(s) at ±%.0f%% ==\n",
        diff.deltas.size(), diff.regressions, diff.tolerance * 100.0);
  }
  std::fprintf(out, "%-14s %-28s %12s %12s %8s", "bench", "name", "baseline",
               "current", "ratio");
  if (any_rss) std::fprintf(out, " %9s", "rss");
  std::fprintf(out, "  %s\n", "verdict");
  for (const auto& d : diff.deltas) {
    const char* verdict = d.regression     ? "REGRESSION"
                          : d.rss_regression ? "MEM-REGRESSION"
                          : d.improvement    ? "improved"
                                             : "ok";
    std::fprintf(out, "%-14s %-28s %12.5g %12.5g %7.2fx", d.bench.c_str(),
                 d.name.c_str(), d.baseline, d.current, d.ratio);
    if (any_rss) {
      if (d.rss_ratio > 0.0) {
        std::fprintf(out, " %8.2fx", d.rss_ratio);
      } else {
        std::fprintf(out, " %9s", "-");
      }
    }
    std::fprintf(out, "  %s\n", verdict);
  }
  for (const auto& k : diff.only_baseline) {
    std::fprintf(out, "  missing from current: %s\n", k.c_str());
  }
  for (const auto& k : diff.only_current) {
    std::fprintf(out, "  new in current:       %s\n", k.c_str());
  }
}

}  // namespace rpol::obs
