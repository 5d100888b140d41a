// Minimal JSON parser and schema validators for the obs emitters.
//
// Not part of the library: the srda_obs_check target links them into the
// srda_trace_check and srda_bench_diff CLIs, bench_telemetry_overhead and
// the obs and serving unit tests. Parses a whole document into a small DOM
// (no external dependency) and checks the structures our own emitters
// produce — the Chrome trace JSON written by TraceRecorder::WriteJson (a
// top-level object with a "traceEvents" array of complete events carrying
// name/ph/ts/dur/pid/tid) and the Prometheus text exposition written by
// obs/exporter.h. These are validators for our own emitters, not general
// format libraries.

#ifndef SRDA_TOOLS_OBS_CHECK_H_
#define SRDA_TOOLS_OBS_CHECK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace srda {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  // Insertion-ordered; duplicate keys are rejected by the parser.
  std::vector<std::pair<std::string, JsonValue>> object;

  // nullptr when the key is absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;
};

// Parses `text` as one JSON document (trailing whitespace allowed).
// Returns false and sets *error (with an offset) on malformed input.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

// Parses and validates a Chrome trace_event document: well-formed JSON,
// top-level object, non-empty "traceEvents" array whose entries each have a
// non-empty string "name", string "ph", and numeric "ts", "dur", "pid",
// "tid". Every name in `required_names` must appear among the events.
// Returns false and sets *error describing the first violation.
bool ValidateTraceJson(const std::string& text,
                       const std::vector<std::string>& required_names,
                       std::string* error);

// Validates a Prometheus text exposition document (what obs/exporter.h and
// the /metrics endpoint emit): every line is blank, a "# HELP name ..." /
// "# TYPE name counter|gauge|histogram|untyped" comment, or a sample
// "name{labels} value" with a legal metric name ([a-zA-Z_:] then
// [a-zA-Z0-9_:]*), well-formed label pairs (quoted values, \\ \" \n
// escapes), and a parseable value (float, +Inf, -Inf, or NaN). At least
// one sample line must be present, and every name in `required_names`
// must appear as a sample (label/suffix-insensitive prefix match is NOT
// applied — names match the sample's metric name exactly). Returns false
// and sets *error with the offending line number.
bool ValidatePrometheusText(const std::string& text,
                            const std::vector<std::string>& required_names,
                            std::string* error);

}  // namespace srda

#endif  // SRDA_TOOLS_OBS_CHECK_H_
