#include "obs/json.h"

#include <cstdlib>
#include <stdexcept>

namespace rpol::obs {

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
      case 'f': return parse_bool();
      case 'n': return parse_null();
      default: return parse_number();
    }
  }

  Json parse_object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      Json key = parse_string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key.token), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json parse_array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json parse_string() {
    Json v;
    v.kind = Json::Kind::kString;
    expect('"');
    for (;;) {
      const char c = peek();
      ++pos_;
      if (c == '"') return v;
      if (c != '\\') {
        v.token += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': v.token += '"'; break;
        case '\\': v.token += '\\'; break;
        case '/': v.token += '/'; break;
        case 'n': v.token += '\n'; break;
        case 'r': v.token += '\r'; break;
        case 't': v.token += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned long cp =
              std::strtoul(std::string(text_.substr(pos_, 4)).c_str(),
                           nullptr, 16);
          pos_ += 4;
          // The exporters only escape control characters, all < 0x80.
          v.token += static_cast<char>(cp & 0x7F);
          break;
        }
        default: fail("unsupported escape");
      }
    }
  }

  Json parse_bool() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.b = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      v.b = false;
      pos_ += 5;
    } else {
      fail("bad literal");
    }
    return v;
  }

  Json parse_null() {
    if (text_.substr(pos_, 4) != "null") fail("bad literal");
    pos_ += 4;
    return Json{};
  }

  Json parse_number() {
    Json v;
    v.kind = Json::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    v.token = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

double Json::as_double() const { return std::strtod(token.c_str(), nullptr); }

std::uint64_t Json::as_u64() const {
  return std::strtoull(token.c_str(), nullptr, 10);
}

std::int64_t Json::as_i64() const {
  return std::strtoll(token.c_str(), nullptr, 10);
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json parse_json(std::string_view text) { return JsonParser(text).parse(); }

void read_jsonl(std::istream& in, bool strict, std::string_view doc,
                JsonlDamage& damage,
                const std::function<void(const Json&)>& on_record) {
  std::string line;
  std::size_t line_no = 0;
  std::size_t next_start = 0;  // byte offset of the next line
  while (std::getline(in, line)) {
    ++line_no;
    // getline consumed the line plus its newline unless it stopped at EOF,
    // in which case this is a final line the writer never terminated.
    const bool unterminated = in.eof();
    const std::size_t line_start = next_start;
    next_start += line.size() + (unterminated ? 0 : 1);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const std::string where = "line " + std::to_string(line_no);
    try {
      on_record(parse_json(line));
    } catch (const JsonlFatal& e) {
      throw JsonlFatal(where + ": " + e.what());
    } catch (const std::exception& e) {
      const std::string what = where + ": " + e.what();
      if (unterminated) {
        if (strict) {
          throw std::runtime_error(std::string(doc) +
                                   " truncated mid-record at byte offset " +
                                   std::to_string(line_start) + " (" + what +
                                   ")");
        }
        damage.truncated_tail = true;
        damage.truncated_tail_offset = line_start;
        return;
      }
      if (strict) throw std::runtime_error(std::string(doc) + " " + what);
      ++damage.skipped_lines;
      if (damage.parse_errors.size() < JsonlDamage::kMaxKeptErrors) {
        damage.parse_errors.push_back(what);
      }
    }
  }
}

}  // namespace rpol::obs
