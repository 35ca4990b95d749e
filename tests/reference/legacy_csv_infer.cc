#include "reference/legacy_csv_infer.h"

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
// line ending is stripped when the quote is closed. False at end of input.
bool ReadRecord(std::istream& in, std::string* record) {
  record->clear();
  std::string line;
  if (!std::getline(in, line)) return false;
  bool open = OddQuoteCount(line);
  *record = std::move(line);
  while (open && std::getline(in, line)) {
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

}  // namespace

Result<Schema> LegacyInferSchema(const std::string& content,
                                 const CsvOptions& options) {
  std::istringstream in(content);
  std::string line;
  if (!ReadRecord(in, &line)) {
    return Status::IOError("CSV input is empty (no header)");
  }
  std::vector<std::string> header;
  if (!SplitRecord(line, options.delimiter, &header)) {
    return Status::IOError("unterminated quote in CSV header");
  }
  std::vector<bool> numeric(header.size(), true);
  std::vector<bool> saw_value(header.size(), false);
  std::vector<std::string> cells;
  while (ReadRecord(in, &line)) {
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

}  // namespace faircap
