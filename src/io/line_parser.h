// Strict numeric-field parsing for the dataset text readers.
//
// std::stoi/std::stod throw on malformed fields, which used to escape the
// readers as uncaught std::invalid_argument / std::out_of_range with no file
// context. These helpers parse with std::from_chars, require the whole token
// to be consumed, and report every malformed field through SRDA_CHECK with a
// "path:line" location, so a bad byte in a 10GB stream names its line.
// ScanTextDataset (io/dataset_io.h) is the only caller: the one-shot
// readers and the streaming RowShardReader both run that scan, so the two
// paths accept the same grammar.

#ifndef SRDA_IO_LINE_PARSER_H_
#define SRDA_IO_LINE_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

namespace srda {

// Whole-token parses: false on empty, partial, malformed, or out-of-range
// tokens, never an exception. ParseDouble also rejects non-finite values
// ("nan", "inf"), so NaN/Inf never enter a dataset.
bool ParseInt(std::string_view token, int* value);
bool ParseDouble(std::string_view token, double* value);

// One "<index>:<value>" feature entry, index already converted to 0-based.
struct LibSvmEntry {
  int column = 0;
  double value = 0.0;
};

// One parsed LibSVM data line "<label> <index>:<value> ...".
struct LibSvmLine {
  int label = 0;                   // raw label as written in the file
  std::vector<LibSvmEntry> entries;
};

// Parses one LibSVM data line (callers skip blank and '#' lines first).
// Aborts with a located "path:line_number: ..." message on any malformed
// field. `out->entries` is reused across calls to avoid reallocation.
void ParseLibSvmLine(const std::string& line, const std::string& path,
                     int line_number, LibSvmLine* out);

// Parses one "label,x1,...,xn" CSV line and returns the raw label; feature
// cells are appended to `values` (cleared first). Aborts with a located
// message on malformed cells.
int ParseCsvLine(const std::string& line, const std::string& path,
                 int line_number, std::vector<double>* values);

}  // namespace srda

#endif  // SRDA_IO_LINE_PARSER_H_
