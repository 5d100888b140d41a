#include "tools/obs_check.h"

#include <cctype>
#include <cstdlib>
#include <set>
#include <sstream>

namespace srda {
namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    *out = JsonValue();  // callers may reuse the output across attempts
    SkipWhitespace();
    if (!ParseValue(out, 0)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing content after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const std::string& message) {
    if (error_ != nullptr) {
      *error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return Fail("invalid literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    std::set<std::string> seen;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      if (!seen.insert(key).second) return Fail("duplicate key '" + key + "'");
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after key");
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        const char esc = text_[pos_];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            *out += esc;
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Fail("truncated \\u escape");
            for (int i = 1; i <= 4; ++i) {
              if (std::isxdigit(static_cast<unsigned char>(text_[pos_ + i])) ==
                  0) {
                return Fail("invalid \\u escape");
              }
            }
            // The obs emitters write \u only for ASCII control
            // characters, which decode exactly; other code points are
            // only validated.
            const unsigned long code =
                std::strtoul(text_.substr(pos_ + 1, 4).c_str(), nullptr, 16);
            *out += code < 0x80 ? static_cast<char>(code) : '?';
            pos_ += 4;
            break;
          }
          default:
            return Fail("unknown escape");
        }
        ++pos_;
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->type = JsonValue::Type::kNumber;
    out->number = value;
    return true;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

bool RequireNumber(const JsonValue& event, const char* key, size_t index,
                   std::string* error) {
  const JsonValue* value = event.Find(key);
  if (value == nullptr || value->type != JsonValue::Type::kNumber) {
    if (error != nullptr) {
      *error = "event " + std::to_string(index) + " missing numeric \"" +
               key + "\"";
    }
    return false;
  }
  return true;
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  return Parser(text, error).Parse(out);
}

bool ValidateTraceJson(const std::string& text,
                       const std::vector<std::string>& required_names,
                       std::string* error) {
  JsonValue root;
  if (!ParseJson(text, &root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
    if (error != nullptr) *error = "top level is not an object";
    return false;
  }
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    if (error != nullptr) *error = "missing \"traceEvents\" array";
    return false;
  }
  if (events->array.empty()) {
    if (error != nullptr) *error = "\"traceEvents\" is empty";
    return false;
  }
  std::set<std::string> names;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    if (event.type != JsonValue::Type::kObject) {
      if (error != nullptr) {
        *error = "event " + std::to_string(i) + " is not an object";
      }
      return false;
    }
    const JsonValue* name = event.Find("name");
    if (name == nullptr || name->type != JsonValue::Type::kString ||
        name->string.empty()) {
      if (error != nullptr) {
        *error = "event " + std::to_string(i) + " missing string \"name\"";
      }
      return false;
    }
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->type != JsonValue::Type::kString) {
      if (error != nullptr) {
        *error = "event " + std::to_string(i) + " missing string \"ph\"";
      }
      return false;
    }
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      if (!RequireNumber(event, key, i, error)) return false;
    }
    names.insert(name->string);
  }
  for (const std::string& required : required_names) {
    if (names.count(required) == 0) {
      if (error != nullptr) {
        *error = "required span \"" + required + "\" not found in trace";
      }
      return false;
    }
  }
  return true;
}

namespace {

bool IsMetricNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':';
}

bool IsMetricNameChar(char c) {
  return IsMetricNameStart(c) ||
         std::isdigit(static_cast<unsigned char>(c)) != 0;
}

bool IsLabelNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Consumes a metric name at `pos`; empty result means no legal name there.
std::string TakeMetricName(const std::string& line, size_t* pos) {
  std::string name;
  if (*pos >= line.size() || !IsMetricNameStart(line[*pos])) return name;
  while (*pos < line.size() && IsMetricNameChar(line[*pos])) {
    name += line[(*pos)++];
  }
  return name;
}

// Validates a Prometheus float token: strtod-parseable in full, or one of
// the exposition-format specials.
bool ValidPrometheusValue(const std::string& token) {
  if (token.empty()) return false;
  if (token == "+Inf" || token == "-Inf" || token == "Inf" || token == "NaN") {
    return true;
  }
  char* end = nullptr;
  std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0';
}

// Validates the {name="value",...} label block, advancing *pos past '}'.
bool ValidLabelBlock(const std::string& line, size_t* pos) {
  ++*pos;  // '{'
  if (*pos < line.size() && line[*pos] == '}') {
    ++*pos;
    return true;
  }
  while (true) {
    if (*pos >= line.size() || !IsLabelNameChar(line[*pos])) return false;
    while (*pos < line.size() && IsLabelNameChar(line[*pos])) ++*pos;
    if (*pos >= line.size() || line[*pos] != '=') return false;
    ++*pos;
    if (*pos >= line.size() || line[*pos] != '"') return false;
    ++*pos;
    while (*pos < line.size() && line[*pos] != '"') {
      if (line[*pos] == '\\') {
        ++*pos;
        if (*pos >= line.size() ||
            (line[*pos] != '\\' && line[*pos] != '"' && line[*pos] != 'n')) {
          return false;
        }
      }
      ++*pos;
    }
    if (*pos >= line.size()) return false;  // unterminated value
    ++*pos;                                 // closing '"'
    if (*pos < line.size() && line[*pos] == ',') {
      ++*pos;
      continue;
    }
    if (*pos < line.size() && line[*pos] == '}') {
      ++*pos;
      return true;
    }
    return false;
  }
}

}  // namespace

bool ValidatePrometheusText(const std::string& text,
                            const std::vector<std::string>& required_names,
                            std::string* error) {
  auto fail = [error](int line_number, const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_number) + ": " + message;
    }
    return false;
  };
  std::set<std::string> sampled;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only HELP and TYPE comments are emitted; anything else is a bug.
      size_t pos = 1;
      while (pos < line.size() && line[pos] == ' ') ++pos;
      const bool is_help = line.compare(pos, 5, "HELP ") == 0;
      const bool is_type = line.compare(pos, 5, "TYPE ") == 0;
      if (!is_help && !is_type) {
        return fail(line_number, "comment is neither # HELP nor # TYPE");
      }
      pos += 5;
      const std::string name = TakeMetricName(line, &pos);
      if (name.empty()) {
        return fail(line_number, "comment missing a metric name");
      }
      if (is_type) {
        if (pos >= line.size() || line[pos] != ' ') {
          return fail(line_number, "# TYPE missing the type word");
        }
        const std::string type = line.substr(pos + 1);
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return fail(line_number, "unknown metric type '" + type + "'");
        }
      }
      continue;
    }
    // Sample line: name[{labels}] value
    size_t pos = 0;
    const std::string name = TakeMetricName(line, &pos);
    if (name.empty()) return fail(line_number, "illegal metric name");
    if (pos < line.size() && line[pos] == '{') {
      if (!ValidLabelBlock(line, &pos)) {
        return fail(line_number, "malformed label block");
      }
    }
    if (pos >= line.size() || line[pos] != ' ') {
      return fail(line_number, "missing value separator");
    }
    ++pos;
    // Optional trailing timestamp is not emitted by our exporter; treat the
    // remainder as the value token alone.
    const std::string value = line.substr(pos);
    if (!ValidPrometheusValue(value)) {
      return fail(line_number, "malformed sample value '" + value + "'");
    }
    sampled.insert(name);
  }
  if (sampled.empty()) return fail(line_number, "no sample lines");
  for (const std::string& required : required_names) {
    if (sampled.count(required) == 0) {
      if (error != nullptr) {
        *error = "required metric \"" + required + "\" not found";
      }
      return false;
    }
  }
  return true;
}

}  // namespace srda
