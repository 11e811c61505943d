// Minimal JSON reader shared by the trace analyzer (src/obs/analyze.cpp),
// the timeline reconstructor (src/obs/timeline.cpp), the benchmark
// registry (src/obs/benchreg.cpp) and the health reader
// (src/obs/health_read.cpp) — just enough for the objects, nested objects,
// and arrays the rpol.trace.v2 / rpol.bench.v1 / rpol.health.v1 exporters
// emit. Numbers keep their raw token so u64 fields (byte counts,
// timestamps) parse losslessly; rpol::obs emitters never produce values a
// double can't round-trip except those u64s, which callers read back via
// as_u64().
//
// read_jsonl is the one line reader behind both JSONL documents (trace and
// health): it owns line splitting, the strict/tolerant damage rule and the
// cut-tail rule, and hands each parsed record to a per-document handler.

#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rpol::obs {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  std::string token;  // raw number token, or string payload
  std::vector<Json> arr;
  std::vector<std::pair<std::string, Json>> obj;

  double as_double() const;
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
  const Json* find(std::string_view key) const;
};

// Parses one complete JSON value (whitespace incl. newlines allowed around
// tokens, nothing may trail it); throws std::runtime_error on malformed
// input with the failing byte offset in the message.
Json parse_json(std::string_view text);

// What a tolerant JSONL read left out. Damaged interior lines are skipped
// and counted, with the first few messages kept for diagnosis. A final line
// with no trailing newline that fails is a write cut mid-record (a crash,
// or a reader racing the writer), not interior damage: it is flagged apart
// with the byte offset where it starts.
struct JsonlDamage {
  static constexpr std::size_t kMaxKeptErrors = 8;
  std::size_t skipped_lines = 0;
  std::vector<std::string> parse_errors;  // "line N: why", capped
  bool truncated_tail = false;
  std::size_t truncated_tail_offset = 0;
};

// Thrown by a record handler for an error no mode may tolerate (the whole
// document speaks an unknown dialect): read_jsonl rethrows it with the line
// number instead of skipping the line or calling it a cut tail.
struct JsonlFatal : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Reads `in` one line at a time, skips blank lines, and passes every other
// line, parsed, to `on_record`. A line that fails to parse, or whose
// handler throws, is damage: tolerant mode records it in `damage` and reads
// on (a cut final line ends the read); strict mode throws
// std::runtime_error naming the line, or for a cut final line its byte
// offset. `doc` ("trace", "health export") prefixes strict-mode messages.
void read_jsonl(std::istream& in, bool strict, std::string_view doc,
                JsonlDamage& damage,
                const std::function<void(const Json&)>& on_record);

}  // namespace rpol::obs
