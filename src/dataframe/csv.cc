#include "dataframe/csv.h"

#include <fstream>

#include "dataframe/csv_scan.h"

namespace faircap {

namespace {

std::string EscapeCell(const std::string& cell, char delim) {
  const bool needs_quotes =
      cell.find(delim) != std::string::npos ||
      cell.find('"') != std::string::npos ||
      cell.find('\n') != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<Schema> InferCsvSchema(const std::string& path,
                              const CsvOptions& options) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return Status::IOError("cannot open '" + path + "' for reading");
  return csv_scan::InferSchemaFromStream(probe, options);
}

Status WriteCsv(const DataFrame& df, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  const Schema& schema = df.schema();
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out << options.delimiter;
    out << EscapeCell(schema.attribute(i).name, options.delimiter);
  }
  out << "\n";
  for (size_t row = 0; row < df.num_rows(); ++row) {
    for (size_t col = 0; col < df.num_columns(); ++col) {
      if (col > 0) out << options.delimiter;
      const Value v = df.GetValue(row, col);
      if (v.is_null()) {
        out << options.null_token;
      } else {
        out << EscapeCell(v.ToString(), options.delimiter);
      }
    }
    out << "\n";
  }
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace faircap
