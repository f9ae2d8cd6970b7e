#include "src/sim/sim_io.h"

#include <charconv>
#include <sstream>

#include "src/common/string_util.h"

namespace largeea {

std::string SimMatrixToString(const SparseSimMatrix& m) {
  std::string out;
  out += "largeea-sim v1 " + std::to_string(m.num_rows()) + ' ' +
         std::to_string(m.num_cols()) + ' ' +
         std::to_string(m.max_entries_per_row()) + '\n';
  // to_chars(general, 9) of the score as a double writes what printf's
  // %.9g does (the format's stated contract), without printf's format
  // parsing and locale.
  char field[32];
  const auto append = [&](std::to_chars_result written, char sep) {
    out.append(field, written.ptr);
    out += sep;
  };
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    for (const SimEntry& e : m.Row(r)) {
      append(std::to_chars(field, field + sizeof(field), r), '\t');
      append(std::to_chars(field, field + sizeof(field), e.column), '\t');
      append(std::to_chars(field, field + sizeof(field),
                           static_cast<double>(e.score),
                           std::chars_format::general, 9),
             '\n');
    }
  }
  return out;
}

StatusOr<SparseSimMatrix> SimMatrixFromString(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string header;
  if (!std::getline(in, header)) {
    return InvalidArgumentError("empty sim-matrix document");
  }
  std::istringstream header_stream(header);
  std::string magic, version;
  int64_t rows = 0, cols = 0, max_entries = 0;
  header_stream >> magic >> version >> rows >> cols >> max_entries;
  if (!header_stream || magic != "largeea-sim" || version != "v1" ||
      rows < 0 || cols < 0) {
    return InvalidArgumentError("bad sim-matrix header '" + header + "'");
  }
  SparseSimMatrix m(static_cast<int32_t>(rows), static_cast<int32_t>(cols),
                    static_cast<int32_t>(max_entries));
  std::string line;
  int64_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = StripAsciiWhitespace(line);
    if (stripped.empty()) continue;
    const std::vector<std::string> fields = Split(stripped, '\t');
    if (fields.size() != 3) {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": expected 3 fields, got " +
                                  std::to_string(fields.size()));
    }
    const auto row = ParseInt(fields[0]);
    const auto col = ParseInt(fields[1]);
    const auto score = ParseDouble(fields[2]);
    if (!row || !col || !score || *row < 0 || *row >= rows || *col < 0 ||
        *col >= cols) {
      return InvalidArgumentError("line " + std::to_string(line_number) +
                                  ": malformed or out-of-range entry");
    }
    m.Accumulate(static_cast<int32_t>(*row),
                 static_cast<EntityId>(*col),
                 static_cast<float>(*score));
  }
  m.RefreshMemoryTracking();
  return m;
}

}  // namespace largeea
