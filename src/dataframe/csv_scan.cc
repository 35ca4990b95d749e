#include "dataframe/csv_scan.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <utility>

#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/string_util.h"

namespace faircap {
namespace csv_scan {

size_t FindRecordEnd(std::string_view buf, size_t pos) {
  bool in_quotes = false;
  for (size_t i = pos; i < buf.size(); ++i) {
    const char c = buf[i];
    if (c == '"') {
      in_quotes = !in_quotes;
    } else if (c == '\n' && !in_quotes) {
      return i;
    }
  }
  return kNoRecord;
}

std::string_view StripTailCr(std::string_view record) {
  if (record.empty() || record.back() != '\r') return record;
  // An odd quote count means the quote is still open.
  const size_t quotes =
      static_cast<size_t>(std::count(record.begin(), record.end(), '"'));
  if (quotes % 2 == 0) record.remove_suffix(1);
  return record;
}

namespace {

// Exact powers of ten: 10^k is representable exactly for k <= 22.
constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,
                             1e8,  1e9,  1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
                             1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

// ParseDouble's strtod buffer is 64 bytes: longer cells are rejected.
constexpr size_t kMaxNumberBytes = 63;

}  // namespace

// Fast path: plain decimal with <= 15 significant digits and a decimal
// exponent within +-22 — there the classic mantissa-times-exact-power
// evaluation is a single IEEE operation, hence correctly rounded and
// bit-identical to strtod. Everything else (long mantissas, E notation,
// hex floats, inf/nan, leading '+') falls through to std::from_chars and
// then ParseDouble, so the accepted language is ParseDouble's.
bool FastParseDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  if (s.size() > kMaxNumberBytes) return ParseDouble(s, out);
  const char* p = s.data();
  const char* end = p + s.size();
  bool negative = false;
  if (*p == '-') {
    negative = true;
    ++p;
  }
  uint64_t mantissa = 0;
  int digits = 0;
  int frac_digits = 0;
  bool seen_point = false;
  bool any_digit = false;
  bool fast_ok = p != end;
  for (; p != end; ++p) {
    const char c = *p;
    if (c >= '0' && c <= '9') {
      any_digit = true;
      if (digits >= 15) {
        fast_ok = false;
        break;
      }
      // Skip redundant leading zeros ("0.25" keeps digits low).
      if (mantissa != 0 || c != '0' || seen_point) {
        mantissa = mantissa * 10 + static_cast<uint64_t>(c - '0');
        if (mantissa != 0) ++digits;
      }
      if (seen_point) ++frac_digits;
    } else if (c == '.' && !seen_point) {
      seen_point = true;
    } else {
      fast_ok = false;  // exponent notation or junk: slow path decides
      break;
    }
  }
  if (fast_ok && any_digit && frac_digits <= 22) {
    const double value =
        static_cast<double>(mantissa) / kPow10[frac_digits];
    *out = negative ? -value : value;
    return true;
  }
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  if (ec == std::errc() && ptr == s.data() + s.size()) return true;
  return ParseDouble(s, out);
}

bool FieldSplitter::Split(std::string_view record, char delimiter) {
  fields_.clear();
  size_t scratch_used = 0;
  size_t field_start = 0;
  bool in_quotes = false;
  std::string* current = nullptr;  // non-null once the field hit a quote
  auto emit = [&](size_t end) {
    if (current != nullptr) {
      fields_.push_back(*current);
      ++scratch_used;
      current = nullptr;
    } else {
      fields_.push_back(record.substr(field_start, end - field_start));
    }
  };
  for (size_t i = 0; i < record.size(); ++i) {
    const char c = record[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < record.size() && record[i + 1] == '"') {
          current->push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current->push_back(c);
      }
    } else if (c == '"') {
      if (current == nullptr) {
        if (scratch_.size() <= scratch_used) scratch_.emplace_back();
        current = &scratch_[scratch_used];
        current->assign(record.data() + field_start, i - field_start);
      }
      in_quotes = true;
    } else if (c == delimiter) {
      emit(i);
      field_start = i + 1;
    } else if (current != nullptr) {
      current->push_back(c);
    }
  }
  if (in_quotes) return false;
  emit(record.size());
  return true;
}

WindowReader::WindowReader(std::istream& in, size_t window_bytes)
    : in_(in),
      window_bytes_(std::max<size_t>(window_bytes, 1)),
      buf_(2 * window_bytes_) {}

bool WindowReader::Fill() {
  if (!in_) return false;
  if (buf_.size() < size_ + window_bytes_) {
    buf_.resize(size_ + window_bytes_);  // one record outgrew the window
  }
  in_.read(buf_.data() + size_, static_cast<std::streamsize>(window_bytes_));
  const size_t got = static_cast<size_t>(in_.gcount());
  if (got == 0) return false;
  size_ += got;
  bytes_read_ += got;
  ++fills_;
  return true;
}

void WindowReader::Consume(size_t n) {
  const size_t carry = size_ - n;
  if (n != 0 && carry != 0) std::memmove(buf_.data(), buf_.data() + n, carry);
  size_ = carry;
}

namespace {

// True for cells of the form -?digits[.digits] (either digit run may be
// empty, not both) that fit ParseDouble's buffer: strtod reads all of such
// a cell, so it is numeric without calling it.
__attribute__((always_inline)) inline bool IsPlainDecimal(std::string_view s) {
  if (s.size() > kMaxNumberBytes) return false;
  size_t i = (!s.empty() && s.front() == '-') ? 1 : 0;
  bool any_digit = false;
  bool seen_point = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (c >= '0' && c <= '9') {
      any_digit = true;
    } else if (c == '.' && !seen_point) {
      seen_point = true;
    } else {
      return false;
    }
  }
  return any_digit;
}

// Inference state over the records of one input. Columns are checked only
// while they are still numeric; a settled (categorical) column costs only
// its field boundary.
class SchemaScanner {
 public:
  explicit SchemaScanner(const CsvOptions& options)
      : delimiter_(options.delimiter), null_token_(options.null_token) {}

  /// Scans every complete record of `buf` and returns the offset of the
  /// first unconsumed byte (the start of an incomplete trailing record).
  Result<size_t> Consume(std::string_view buf) {
    size_t pos = 0;
    while (!header_done_) {
      const size_t end = FindRecordEnd(buf, pos);
      if (end == kNoRecord) return pos;
      std::string_view header = buf.substr(pos, end - pos);
      if (!header.empty() && header.back() == '\r') header.remove_suffix(1);
      FAIRCAP_RETURN_NOT_OK(ProcessHeader(header));
      pos = end + 1;
    }
    const size_t consumed =
        ScanRecords(buf, pos, delimiter_, numeric_.size(), *this);
    if (consumed == kNoRecord) return std::move(error_);
    return consumed;
  }

  // ScanRecords sink: quote-free cells are checked in place; other
  // records take the escape-aware path (cells checked before it re-check
  // to the same verdicts).
  bool OnCell(size_t col, std::string_view cell) {
    CheckCell(col, cell);
    return true;
  }
  bool OnRowEnd(size_t col, std::string_view cell) {
    if (col + 1 != numeric_.size()) {
      error_ = RaggedRow();
      return false;
    }
    CheckCell(col, cell);
    return true;
  }
  void OnDiscard(size_t /*cells*/) {}
  bool OnRecord(std::string_view record) {
    error_ = ProcessRecord(record);
    return error_.ok();
  }

  /// Scans the unconsumed tail of the input (a last record without a
  /// newline, or one whose quote never closes) and builds the schema.
  Result<Schema> Finish(std::string_view tail) {
    const std::string_view record = StripTailCr(tail);
    if (!header_done_) {
      // No record-terminating newline anywhere: the tail is the header.
      if (tail.empty()) {
        return Status::IOError("CSV input is empty (no header)");
      }
      FAIRCAP_RETURN_NOT_OK(ProcessHeader(record));
    } else if (!record.empty()) {
      FAIRCAP_RETURN_NOT_OK(ProcessRecord(record));
    }
    std::vector<AttributeSpec> attrs;
    attrs.reserve(names_.size());
    for (size_t i = 0; i < names_.size(); ++i) {
      AttributeSpec spec;
      spec.name = std::move(names_[i]);
      // Columns that never produced a value stay categorical.
      spec.type = (saw_value_[i] && numeric_[i]) ? AttrType::kNumeric
                                                 : AttrType::kCategorical;
      spec.role = AttrRole::kImmutable;
      attrs.push_back(std::move(spec));
    }
    return Schema::Create(std::move(attrs));
  }

  size_t quoted_records() const { return quoted_records_; }

 private:
  static Status RaggedRow() {
    return Status::InvalidArgument("ragged CSV row during inference");
  }

  Status ProcessHeader(std::string_view record) {
    if (!splitter_.Split(record, delimiter_)) {
      return Status::IOError("unterminated quote in CSV header");
    }
    header_done_ = true;
    for (const std::string_view field : splitter_.fields()) {
      names_.emplace_back(TrimView(field));
    }
    numeric_.assign(names_.size(), 1);
    saw_value_.assign(names_.size(), 0);
    return Status::OK();
  }

  // The escape-aware path: one whole body record, split with unescaping.
  Status ProcessRecord(std::string_view record) {
    ++quoted_records_;
    if (!splitter_.Split(record, delimiter_)) {
      return Status::IOError("unterminated quote in CSV body");
    }
    const std::vector<std::string_view>& fields = splitter_.fields();
    if (fields.size() != numeric_.size()) return RaggedRow();
    for (size_t col = 0; col < fields.size(); ++col) {
      CheckCell(col, fields[col]);
    }
    return Status::OK();
  }

  __attribute__((always_inline)) inline void CheckCell(
      size_t col, std::string_view cell) {
    if (numeric_[col] == 0) return;
    const std::string_view trimmed = TrimView(cell);
    if (trimmed.empty() || trimmed == null_token_) return;
    saw_value_[col] = 1;
    double ignored = 0.0;
    if (!IsPlainDecimal(trimmed) && !ParseDouble(trimmed, &ignored)) {
      numeric_[col] = 0;
    }
  }

  const char delimiter_;
  const std::string_view null_token_;  ///< view of the caller's option
  FieldSplitter splitter_;
  Status error_;
  std::vector<std::string> names_;
  std::vector<uint8_t> numeric_;    // still numeric, by column
  std::vector<uint8_t> saw_value_;  // produced a non-null cell, by column
  size_t quoted_records_ = 0;
  bool header_done_ = false;
};

}  // namespace

Result<Schema> InferSchemaFromStream(std::istream& in,
                                     const CsvOptions& options,
                                     size_t window_bytes) {
  const obs::TraceSpan span("ingest_infer");
  SchemaScanner scanner(options);
  WindowReader reader(in, window_bytes);
  Status status;
  while (status.ok() && reader.Fill()) {
    Result<size_t> consumed = scanner.Consume(reader.window());
    if (consumed.ok()) {
      reader.Consume(*consumed);
    } else {
      status = consumed.status();
    }
  }
  Result<Schema> result =
      status.ok() ? scanner.Finish(reader.window()) : Result<Schema>(status);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("ingest.infer_runs").Increment();
  registry.GetCounter("ingest.infer_bytes").Add(reader.bytes_read());
  registry.GetCounter("ingest.infer_quoted_records")
      .Add(scanner.quoted_records());
  return result;
}

}  // namespace csv_scan
}  // namespace faircap
