#include "io/line_parser.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "common/check.h"

namespace srda {
namespace {

// Tokens may carry a trailing '\r' from CRLF files; istream-based parsing
// used to swallow it as whitespace, so the strict parsers strip it too.
std::string_view StripCarriageReturn(std::string_view token) {
  if (!token.empty() && token.back() == '\r') token.remove_suffix(1);
  return token;
}

}  // namespace

bool ParseInt(std::string_view token, int* value) {
  token = StripCarriageReturn(token);
  if (token.empty()) return false;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const std::from_chars_result result = std::from_chars(first, last, *value);
  return result.ec == std::errc() && result.ptr == last;
}

bool ParseDouble(std::string_view token, double* value) {
  token = StripCarriageReturn(token);
  if (token.empty()) return false;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  const std::from_chars_result result = std::from_chars(first, last, *value);
  // from_chars also accepts "nan" and "inf"; the dataset grammar does not.
  return result.ec == std::errc() && result.ptr == last &&
         std::isfinite(*value);
}

void ParseLibSvmLine(const std::string& line, const std::string& path,
                     int line_number, LibSvmLine* out) {
  out->entries.clear();
  const std::string_view view(line);
  size_t pos = 0;
  bool saw_label = false;
  while (pos < view.size()) {
    while (pos < view.size() &&
           (view[pos] == ' ' || view[pos] == '\t' || view[pos] == '\r')) {
      ++pos;
    }
    if (pos >= view.size()) break;
    size_t end = pos;
    while (end < view.size() && view[end] != ' ' && view[end] != '\t' &&
           view[end] != '\r') {
      ++end;
    }
    const std::string_view token = view.substr(pos, end - pos);
    pos = end;
    if (!saw_label) {
      SRDA_CHECK(ParseInt(token, &out->label))
          << path << ":" << line_number << ": malformed label '" << token
          << "'";
      saw_label = true;
      continue;
    }
    const size_t colon = token.find(':');
    SRDA_CHECK_NE(colon, std::string_view::npos)
        << path << ":" << line_number << ": malformed pair '" << token << "'";
    LibSvmEntry entry;
    SRDA_CHECK(ParseInt(token.substr(0, colon), &entry.column))
        << path << ":" << line_number << ": malformed feature index in pair '"
        << token << "'";
    SRDA_CHECK(ParseDouble(token.substr(colon + 1), &entry.value))
        << path << ":" << line_number << ": malformed feature value in pair '"
        << token << "'";
    SRDA_CHECK_GE(entry.column, 1)
        << path << ":" << line_number << ": indices are 1-based";
    --entry.column;
    out->entries.push_back(entry);
  }
  SRDA_CHECK(saw_label) << path << ":" << line_number << ": missing label";
}

int ParseCsvLine(const std::string& line, const std::string& path,
                 int line_number, std::vector<double>* values) {
  values->clear();
  const std::string_view view(line);
  int label = 0;
  size_t pos = 0;
  bool saw_label = false;
  while (true) {
    const size_t comma = view.find(',', pos);
    const std::string_view cell =
        view.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    if (!saw_label) {
      SRDA_CHECK(ParseInt(cell, &label))
          << path << ":" << line_number << ": malformed label '" << cell
          << "'";
      saw_label = true;
    } else {
      double value = 0.0;
      SRDA_CHECK(ParseDouble(cell, &value))
          << path << ":" << line_number << ": malformed cell '" << cell << "'";
      values->push_back(value);
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return label;
}

}  // namespace srda
