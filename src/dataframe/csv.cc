#include "dataframe/csv.h"

#include <fstream>
#include <sstream>

#include "dataframe/csv_scan.h"
#include "util/string_util.h"

namespace faircap {

namespace {

// Splits one CSV record honoring double-quote escaping. Returns false on a
// dangling quote. CR bytes are kept verbatim (quoted fields may legally
// contain CRLF); the record reader strips the line-terminator CR before
// records get here.
bool SplitRecord(const std::string& line, char delim,
                 std::vector<std::string>* out) {
  out->clear();
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      out->push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (in_quotes) return false;
  out->push_back(std::move(field));
  return true;
}

// Quote parity of one physical line (RFC-4180 escaping means parity
// decides whether a quote is open: "" contributes two quotes).
bool OddQuoteCount(const std::string& line) {
  size_t quotes = 0;
  for (const char c : line) quotes += (c == '"');
  return (quotes % 2) != 0;
}

// Reads one *logical* record: a quoted field may contain the record
// delimiter, so physical lines are joined (with the '\n' restored) until
// the quote state closes. Parity is tracked per appended line, so a
// record spanning L lines costs O(L) total, not O(L^2). The terminating
// CR of a CRLF line ending is stripped; CRs inside an open quote are data
// and survive. Returns false at end of input, advancing `line_no` by the
// physical lines consumed.
bool ReadRecord(std::istream& in, std::string* record, size_t* line_no) {
  record->clear();
  std::string line;
  if (!std::getline(in, line)) return false;
  ++*line_no;
  bool open = OddQuoteCount(line);
  *record = std::move(line);
  while (open && std::getline(in, line)) {
    ++*line_no;
    open ^= OddQuoteCount(line);
    *record += '\n';
    *record += line;
  }
  if (!record->empty() && record->back() == '\r' && !open) {
    record->pop_back();
  }
  return true;
}

bool IsNullCell(const std::string& cell, const CsvOptions& options) {
  const std::string_view trimmed = Trim(cell);
  return trimmed.empty() || trimmed == options.null_token;
}

Result<DataFrame> ParseRows(std::istream& in, const Schema& schema,
                            const CsvOptions& options, bool check_header) {
  std::string line;
  size_t line_no = 0;
  if (!ReadRecord(in, &line, &line_no)) {
    return Status::IOError("CSV input is empty (no header)");
  }
  std::vector<std::string> cells;
  if (!SplitRecord(line, options.delimiter, &cells)) {
    return Status::IOError("unterminated quote in CSV header");
  }
  if (check_header) {
    if (cells.size() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "CSV header arity does not match schema");
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      if (std::string(Trim(cells[i])) != schema.attribute(i).name) {
        return Status::InvalidArgument("CSV header column '" + cells[i] +
                                       "' does not match schema attribute '" +
                                       schema.attribute(i).name + "'");
      }
    }
  }

  DataFrame df = DataFrame::Create(schema);
  std::vector<Value> row(schema.num_attributes());
  while (ReadRecord(in, &line, &line_no)) {
    if (line.empty()) continue;
    if (!SplitRecord(line, options.delimiter, &cells)) {
      return Status::IOError("unterminated quote at line " +
                             std::to_string(line_no));
    }
    if (cells.size() != schema.num_attributes()) {
      return Status::InvalidArgument(
          "row at line " + std::to_string(line_no) + " has " +
          std::to_string(cells.size()) + " cells, expected " +
          std::to_string(schema.num_attributes()));
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      if (IsNullCell(cells[i], options)) {
        row[i] = Value::Null();
      } else if (schema.attribute(i).type == AttrType::kNumeric) {
        double v = 0.0;
        if (!ParseDouble(cells[i], &v)) {
          return Status::InvalidArgument(
              "cell '" + cells[i] + "' at line " + std::to_string(line_no) +
              " is not numeric (attribute '" + schema.attribute(i).name +
              "')");
        }
        row[i] = Value(v);
      } else {
        row[i] = Value(std::string(Trim(cells[i])));
      }
    }
    FAIRCAP_RETURN_NOT_OK(df.AppendRow(row));
  }
  return df;
}

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

Result<DataFrame> ReadCsv(const std::string& path, const Schema& schema,
                          const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return ParseRows(in, schema, options, /*check_header=*/true);
}

Result<DataFrame> ParseCsv(const std::string& content, const Schema& schema,
                           const CsvOptions& options) {
  std::istringstream in(content);
  return ParseRows(in, schema, options, /*check_header=*/true);
}

Result<Schema> InferCsvSchema(const std::string& path,
                              const CsvOptions& options) {
  std::ifstream probe(path, std::ios::binary);
  if (!probe) return Status::IOError("cannot open '" + path + "' for reading");
  return csv_scan::InferSchemaFromStream(probe, options);
}

Result<DataFrame> ReadCsvInferSchema(const std::string& path,
                                     const CsvOptions& options) {
  FAIRCAP_ASSIGN_OR_RETURN(Schema schema, InferCsvSchema(path, options));
  return ReadCsv(path, schema, options);
}

Result<DataFrame> ParseCsvInferSchema(const std::string& content,
                                      const CsvOptions& options) {
  std::istringstream probe(content);
  FAIRCAP_ASSIGN_OR_RETURN(Schema schema,
                           csv_scan::InferSchemaFromStream(probe, options));
  return ParseCsv(content, schema, options);
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
