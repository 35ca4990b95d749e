#include "reference/legacy_csv.h"

#include <sstream>
#include <vector>

#include "util/string_util.h"

namespace faircap {

namespace {

// Splits one CSV record honoring double-quote escaping. Returns false on a
// dangling quote. CR bytes are kept verbatim; the record reader strips the
// line-terminator CR before records get here.
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

bool OddQuoteCount(const std::string& line) {
  size_t quotes = 0;
  for (const char c : line) quotes += (c == '"');
  return (quotes % 2) != 0;
}

// Reads one logical record: physical lines are joined (with the '\n'
// restored) until the quote state closes. The terminating CR of a CRLF
// line ending is stripped when the quote is closed. False at end of input,
// advancing `line_no` by the physical lines consumed.
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

// Reads and splits the header record.
Status ReadHeader(std::istream& in, const CsvOptions& options,
                  std::vector<std::string>* header, size_t* line_no) {
  std::string line;
  if (!ReadRecord(in, &line, line_no)) {
    return Status::IOError("CSV input is empty (no header)");
  }
  if (!SplitRecord(line, options.delimiter, header)) {
    return Status::IOError("unterminated quote in CSV header");
  }
  return Status::OK();
}

}  // namespace

Result<Schema> LegacyInferSchema(const std::string& content,
                                 const CsvOptions& options) {
  std::istringstream in(content);
  size_t line_no = 0;
  std::vector<std::string> header;
  FAIRCAP_RETURN_NOT_OK(ReadHeader(in, options, &header, &line_no));
  std::vector<bool> numeric(header.size(), true);
  std::vector<bool> saw_value(header.size(), false);
  std::string line;
  std::vector<std::string> cells;
  while (ReadRecord(in, &line, &line_no)) {
    if (line.empty()) continue;
    if (!SplitRecord(line, options.delimiter, &cells)) {
      return Status::IOError("unterminated quote in CSV body");
    }
    if (cells.size() != header.size()) {
      return Status::InvalidArgument("ragged CSV row during inference");
    }
    for (size_t i = 0; i < cells.size(); ++i) {
      if (IsNullCell(cells[i], options)) continue;
      saw_value[i] = true;
      double v = 0.0;
      if (!ParseDouble(cells[i], &v)) numeric[i] = false;
    }
  }
  std::vector<AttributeSpec> attrs;
  attrs.reserve(header.size());
  for (size_t i = 0; i < header.size(); ++i) {
    AttributeSpec spec;
    spec.name = std::string(Trim(header[i]));
    // Columns that never produced a value stay categorical.
    spec.type = (saw_value[i] && numeric[i]) ? AttrType::kNumeric
                                             : AttrType::kCategorical;
    spec.role = AttrRole::kImmutable;
    attrs.push_back(std::move(spec));
  }
  return Schema::Create(std::move(attrs));
}

Result<DataFrame> LegacyParseCsv(const std::string& content,
                                 const Schema& schema,
                                 const CsvOptions& options) {
  std::istringstream in(content);
  size_t line_no = 0;
  std::vector<std::string> cells;
  FAIRCAP_RETURN_NOT_OK(ReadHeader(in, options, &cells, &line_no));
  if (cells.size() != schema.num_attributes()) {
    return Status::InvalidArgument("CSV header arity does not match schema");
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    if (std::string(Trim(cells[i])) != schema.attribute(i).name) {
      return Status::InvalidArgument("CSV header column '" + cells[i] +
                                     "' does not match schema attribute '" +
                                     schema.attribute(i).name + "'");
    }
  }

  DataFrame df = DataFrame::Create(schema);
  std::vector<Value> row(schema.num_attributes());
  std::string line;
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

}  // namespace faircap
