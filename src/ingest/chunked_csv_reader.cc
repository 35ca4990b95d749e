#include "ingest/chunked_csv_reader.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "dataframe/csv_scan.h"
#include "dataframe/predicate_index.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/string_util.h"
#include "util/task_scheduler.h"
#include "util/timer.h"

namespace faircap {

namespace {

using csv_scan::FindRecordEnd;
using csv_scan::kNoRecord;
using csv_scan::kSwarOnes;
using csv_scan::MatchBytes;
using csv_scan::StripTailCr;
using csv_scan::TrimView;

// First-4 + last-4 bytes packed into one integer. Together with the
// length this is *exact* for strings of <= 8 bytes (the two overlapping
// windows cover every byte), and a strong prefilter beyond (real-world
// category names share prefixes — "level_3" vs "level_7" — so the tail
// bytes discriminate where a prefix key cannot).
__attribute__((always_inline)) inline uint64_t PackKey(std::string_view s) {
  const size_t len = s.size();
  if (len >= 4) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, s.data(), 4);
    std::memcpy(&hi, s.data() + len - 4, 4);
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }
  uint64_t v = 0;
  for (size_t i = 0; i < len; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(s[i])) << (8 * i);
  }
  return v;
}

// One column's storage under construction. The dictionary probe is the
// per-cell hot operation: for the small cardinalities mining actually
// uses, a linear scan over packed (length, prefix) keys beats any tree or
// hash (no allocation, no pointer chasing, one integer compare per
// entry). Columns that outgrow the linear window migrate to a
// transparent std::map.
struct ColumnBuilder {
  static constexpr size_t kLinearProbeMax = 32;

  explicit ColumnBuilder(AttrType type_in) : type(type_in) {}

  struct DictKey {
    uint64_t packed;
    uint32_t len;
  };
  static constexpr size_t kHashSlots = 128;  // power of two, > 2x entries

  AttrType type;
  std::vector<int32_t> codes;
  std::deque<std::string> dict_storage;  // deque: views stay stable
  std::vector<std::string_view> dict_views;  // by code
  std::vector<DictKey> packed_keys;          // by code
  /// Direct-mapped probe table: slot -> code + 1 (0 = empty). One
  /// multiplicative hash, one load, one key compare for the usual hit; a
  /// displaced entry (collision) falls back to the linear scan.
  std::array<int32_t, kHashSlots> hash_slots{};
  std::map<std::string, int32_t, std::less<>> big_index;
  bool use_big_index = false;
  std::vector<double> values;

  static __attribute__((always_inline)) inline size_t SlotOf(uint64_t packed,
                                                             uint32_t len) {
    return static_cast<size_t>(
               ((packed ^ len) * 0x2545F4914F6CDD1DULL) >> 57) &
           (kHashSlots - 1);
  }

  __attribute__((always_inline)) inline bool KeyMatches(
      size_t code, uint64_t packed, uint32_t len,
      std::string_view category) const {
    const DictKey& k = packed_keys[code];
    if (k.packed != packed || k.len != len) return false;
    // (packed, len) is exact up to 8 bytes; longer strings memcmp the
    // middle the two 4-byte windows did not cover.
    return len <= 8 || std::memcmp(dict_views[code].data() + 4,
                                   category.data() + 4, len - 8) == 0;
  }

  /// Probe-only lookup; -1 when `category` is not in the dictionary.
  /// Probed with the *raw* cell first (dictionary entries are trimmed, so
  /// a raw hit is always correct) — the common case then skips the trim
  /// and null-token work entirely.
  __attribute__((always_inline)) inline int32_t FindCategory(
      std::string_view category) const {
    if (!use_big_index) {
      const uint64_t key = PackKey(category);
      const uint32_t len = static_cast<uint32_t>(category.size());
      const int32_t slot = hash_slots[SlotOf(key, len)];
      if (slot != 0 &&
          KeyMatches(static_cast<size_t>(slot - 1), key, len, category)) {
        return slot - 1;
      }
      // Displaced by a hash collision (or absent): linear scan decides.
      const size_t n = packed_keys.size();
      for (size_t i = 0; i < n; ++i) {
        if (KeyMatches(i, key, len, category)) return static_cast<int32_t>(i);
      }
      return -1;
    }
    const auto it = big_index.find(category);
    return it != big_index.end() ? it->second : -1;
  }

  int32_t GetOrAddCategory(std::string_view category) {
    const int32_t found = FindCategory(category);
    if (found >= 0) return found;
    if (!use_big_index) {
      if (packed_keys.size() < kLinearProbeMax) return AddCategory(category);
      for (size_t i = 0; i < dict_views.size(); ++i) {
        big_index.emplace(std::string(dict_views[i]),
                          static_cast<int32_t>(i));
      }
      use_big_index = true;
    }
    const int32_t code = AddCategory(category);
    big_index.emplace(std::string(category), code);
    return code;
  }

  int32_t AddCategory(std::string_view category) {
    const int32_t code = static_cast<int32_t>(dict_views.size());
    dict_storage.emplace_back(category);
    dict_views.push_back(dict_storage.back());
    const DictKey key{PackKey(category),
                      static_cast<uint32_t>(category.size())};
    packed_keys.push_back(key);
    // First writer keeps the slot; displaced entries rely on the scan.
    int32_t& slot = hash_slots[SlotOf(key.packed, key.len)];
    if (slot == 0) slot = code + 1;
    return code;
  }

  std::vector<std::string> TakeDictionary() {
    return std::vector<std::string>(dict_storage.begin(), dict_storage.end());
  }

  void Reserve(size_t rows) {
    if (type == AttrType::kCategorical) {
      codes.reserve(rows);
    } else {
      values.reserve(rows);
    }
  }
};

// Builds the per-category equality masks from the (cache-hot) code
// vectors and installs them into the table's PredicateIndex. Shared by
// the sequential and parallel assembly paths.
void WarmStartIndex(const DataFrame& df, IngestStats* stats) {
  for (size_t attr = 0; attr < df.num_columns(); ++attr) {
    const Column& col = df.column(attr);
    if (col.type() != AttrType::kCategorical) continue;
    const size_t num_categories = col.num_categories();
    if (num_categories == 0 ||
        num_categories > PredicateIndex::kBatchBuildMaxCategories) {
      continue;
    }
    df.predicate_index().WarmStartCategoryMasks(
        df, attr, PredicateIndex::BuildCategoryMasks(df, attr));
    if (stats != nullptr) stats->warm_atom_masks += num_categories;
  }
}

// Chunk-driven CSV parser: feed it complete records, then Finish().
class StreamParser {
 public:
  /// `skip_header` pre-marks the header as consumed — the parallel path
  /// hands every segment after the first a headerless slice of the file.
  /// `first_record` is the number of records before the input, so error
  /// messages count records from the start of the file.
  StreamParser(const Schema& schema, const IngestOptions& options,
               bool skip_header = false, size_t first_record = 0)
      : schema_(schema),
        options_(options),
        null_token_(options.null_token),
        record_no_(first_record) {
    header_done_ = skip_header;
    builders_.reserve(schema.num_attributes());
    for (size_t i = 0; i < schema.num_attributes(); ++i) {
      builders_.emplace_back(schema.attribute(i).type);
    }
  }

  /// Splits `record` into fields and appends one row (or checks the
  /// header on first call). `record` must be a complete logical record
  /// with the terminating newline and CR already stripped.
  Status ProcessRecord(std::string_view record) {
    ++record_no_;
    if (!splitter_.Split(record, options_.delimiter)) {
      return Status::IOError("unterminated quote at record " +
                             std::to_string(record_no_));
    }
    const std::vector<std::string_view>& fields = splitter_.fields();
    if (!header_done_) {
      header_done_ = true;
      if (fields.size() != schema_.num_attributes()) {
        return Status::InvalidArgument(
            "CSV header arity does not match schema");
      }
      for (size_t i = 0; i < fields.size(); ++i) {
        if (Trim(fields[i]) != schema_.attribute(i).name) {
          return Status::InvalidArgument(
              "CSV header column '" + std::string(fields[i]) +
              "' does not match schema attribute '" +
              schema_.attribute(i).name + "'");
        }
      }
      return Status::OK();
    }
    if (fields.size() != schema_.num_attributes()) {
      return Status::InvalidArgument(
          "record " + std::to_string(record_no_) + " has " +
          std::to_string(fields.size()) + " cells, expected " +
          std::to_string(schema_.num_attributes()));
    }
    for (size_t i = 0; i < fields.size(); ++i) {
      if (!AppendCell(i, fields[i], record_no_)) return std::move(error_);
    }
    ++rows_;
    return Status::OK();
  }

  Status TakeError() { return std::move(error_); }

  /// Parses every complete row of `buf` and returns the offset of the
  /// first unconsumed byte (the start of an incomplete trailing record).
  ///
  /// Quote-free rows — the overwhelmingly common case — come from the
  /// shared SWAR scan (csv_scan::ScanRecords) and append cells straight
  /// into the column builders with zero copies. A quote (or one cell too
  /// many) rolls the current row's cells back and re-drives that record
  /// through the escape-aware splitter.
  Result<size_t> Consume(std::string_view buf) {
    size_t pos = 0;
    while (!header_done_) {
      const size_t end = FindRecordEnd(buf, pos);
      if (end == kNoRecord) return pos;
      std::string_view record = buf.substr(pos, end - pos);
      if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
      FAIRCAP_RETURN_NOT_OK(ProcessRecord(record));
      pos = end + 1;
    }
    const size_t consumed = csv_scan::ScanRecords(
        buf, pos, options_.delimiter, schema_.num_attributes(), *this);
    if (consumed == kNoRecord) return TakeError();
    return consumed;
  }

  // csv_scan::ScanRecords sink.
  __attribute__((always_inline)) inline bool OnCell(size_t col,
                                                    std::string_view cell) {
    // The record is counted at its last cell (OnRowEnd).
    return AppendCell(col, cell, record_no_ + 1);
  }
  __attribute__((always_inline)) inline bool OnRowEnd(size_t col,
                                                      std::string_view cell) {
    ++record_no_;
    if (col + 1 != schema_.num_attributes()) {
      error_ = Status::InvalidArgument(
          "record " + std::to_string(record_no_) + " has " +
          std::to_string(col + 1) + " cells, expected " +
          std::to_string(schema_.num_attributes()));
      return false;
    }
    if (!AppendCell(col, cell, record_no_)) return false;
    ++rows_;
    return true;
  }
  void OnDiscard(size_t cells) {
    // Undo the row's partial appends; they re-parse to identical values,
    // so the dictionaries stay in first-appearance order.
    for (size_t b = 0; b < cells; ++b) {
      ColumnBuilder& builder = builders_[b];
      if (builder.type == AttrType::kCategorical) {
        builder.codes.pop_back();
      } else {
        builder.values.pop_back();
      }
    }
  }
  bool OnRecord(std::string_view record) {
    error_ = ProcessRecord(record);
    return error_.ok();
  }

  /// Pre-sizes the column vectors once the average record size is known.
  void ReserveRows(size_t rows) {
    for (ColumnBuilder& b : builders_) b.Reserve(rows);
  }

  size_t rows() const { return rows_; }
  /// Records consumed so far (the header included), plus `first_record`.
  size_t records() const { return record_no_; }
  bool header_done() const { return header_done_; }

  /// Segment-local column storage (the parallel path's merge input).
  std::vector<ColumnBuilder>& builders() { return builders_; }

  /// Drives a complete record-aligned segment through the parser: the
  /// SWAR scan over every newline-terminated record, then the tail
  /// record (last segment of a file without a trailing newline).
  Status ParseSegment(std::string_view segment) {
    FAIRCAP_ASSIGN_OR_RETURN(const size_t consumed, Consume(segment));
    const std::string_view tail = segment.substr(consumed);
    if (tail.empty()) return Status::OK();
    // Same dangling-record handling as the streaming tail.
    const std::string_view record = StripTailCr(tail);
    if (record.empty() && header_done_) return Status::OK();
    return ProcessRecord(record);
  }

  /// Assembles the DataFrame and (optionally) warm-starts its index.
  Result<DataFrame> Finish(IngestStats* stats) {
    if (!header_done_) {
      return Status::IOError("CSV input is empty (no header)");
    }
    std::vector<Column> columns;
    columns.reserve(builders_.size());
    for (ColumnBuilder& b : builders_) {
      if (b.type == AttrType::kCategorical) {
        // The builder minted every code from its own dictionary, so the
        // per-code range validation is skippable.
        FAIRCAP_ASSIGN_OR_RETURN(
            Column col,
            Column::FromCodes(std::move(b.codes), b.TakeDictionary(),
                              /*trusted=*/true));
        columns.push_back(std::move(col));
      } else {
        columns.push_back(Column::FromNumeric(std::move(b.values)));
      }
    }
    FAIRCAP_ASSIGN_OR_RETURN(DataFrame df, DataFrame::FromColumns(
                                               schema_, std::move(columns)));
    if (options_.warm_start_index) WarmStartIndex(df, stats);
    return df;
  }

 private:
  /// Parses one cell of record number `record` into its column. Returns
  /// false with error_ set on a malformed numeric cell (bool keeps Status
  /// construction off the hot path).
  __attribute__((always_inline)) inline bool AppendCell(
      size_t col, std::string_view cell, size_t record) {
    ColumnBuilder& b = builders_[col];
    if (b.type == AttrType::kCategorical) {
      // Raw-cell probe first: dictionary entries are trimmed non-null
      // values, so a hit needs no trim or null-token check.
      const int32_t code = b.FindCategory(cell);
      if (code >= 0) {
        b.codes.push_back(code);
        return true;
      }
      const std::string_view trimmed = TrimView(cell);
      if (trimmed.empty() || trimmed == null_token_) {
        b.codes.push_back(Column::kNullCode);
      } else {
        b.codes.push_back(b.GetOrAddCategory(trimmed));
      }
      return true;
    }
    const std::string_view trimmed = TrimView(cell);
    if (trimmed.empty() || trimmed == null_token_) {
      b.values.push_back(std::nan(""));
      return true;
    }
    double v = 0.0;
    if (!csv_scan::FastParseDouble(trimmed, &v)) {
      error_ = Status::InvalidArgument(
          "cell '" + std::string(cell) + "' at record " +
          std::to_string(record) + " is not numeric (attribute '" +
          schema_.attribute(col).name + "')");
      return false;
    }
    b.values.push_back(v);
    return true;
  }

  const Schema& schema_;
  const IngestOptions& options_;
  const std::string_view null_token_;  ///< hot-path view of the option
  std::vector<ColumnBuilder> builders_;
  csv_scan::FieldSplitter splitter_;
  Status error_;
  size_t record_no_;
  size_t rows_ = 0;
  bool header_done_ = false;
};

/// Flushes one completed ingest's totals into the global registry (the
/// run report's "ingest" section). Called once per ingest, off any hot
/// loop.
void PublishIngestStats(const IngestStats& local, size_t segments) {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  r.GetCounter("ingest.runs").Increment();
  r.GetCounter("ingest.rows").Add(local.rows);
  r.GetCounter("ingest.bytes").Add(local.bytes);
  r.GetCounter("ingest.chunks").Add(local.chunks);
  r.GetCounter("ingest.segments").Add(segments);
}

/// `size_hint` (total input bytes, 0 = unknown) drives a one-shot reserve
/// of the column vectors once the average record size is known.
Result<DataFrame> StreamFrom(std::istream& in, const Schema& schema,
                             const IngestOptions& options,
                             IngestStats* stats, size_t size_hint) {
  const obs::TraceSpan span("ingest_stream");
  StopWatch watch;
  IngestStats local;
  StreamParser parser(schema, options);
  csv_scan::WindowReader reader(in, options.chunk_bytes);
  while (reader.Fill()) {
    FAIRCAP_ASSIGN_OR_RETURN(const size_t consumed,
                             parser.Consume(reader.window()));
    reader.Consume(consumed);
    if (size_hint != 0 && parser.rows() > 0) {
      // One-shot reserve from the observed bytes-per-row, with 5% slack
      // so a slightly long sample never forces a full-table realloc.
      const size_t done = reader.bytes_read() - reader.window().size();
      if (done > 0) {
        parser.ReserveRows(1 + parser.rows() * size_hint / done * 21 / 20);
      }
      size_hint = 0;
    }
  }
  local.bytes = reader.bytes_read();
  local.chunks = reader.fills();
  if (!reader.window().empty()) {
    // Final record without a trailing newline (or a dangling quote, which
    // ProcessRecord rejects).
    const std::string_view record = StripTailCr(reader.window());
    if (!(record.empty() && parser.header_done())) {
      FAIRCAP_RETURN_NOT_OK(parser.ProcessRecord(record));
    }
  }

  local.rows = parser.rows();
  FAIRCAP_ASSIGN_OR_RETURN(DataFrame df, parser.Finish(&local));
  local.seconds = watch.ElapsedSeconds();
  PublishIngestStats(local, /*segments=*/0);
  if (stats != nullptr) *stats = local;
  return df;
}

// ---------------------------------------------------------------------------
// Parallel (segmented) ingestion: record-aligned split, per-segment SWAR
// parse into segment-local columns, ordered concat with dictionary merge.

/// Record-aligned segment start offsets over `content` (offset 0 always
/// included; segment i spans [starts[i], starts[i+1]), the last one runs
/// to the end). Boundaries sit immediately past a record-terminating
/// '\n' — one preceded by an even number of quotes since the start of
/// the input — so a newline inside a quoted field never splits a record.
/// Segments target `target_bytes` each, capped at `max_segments`.
std::vector<size_t> SegmentStarts(std::string_view content,
                                  size_t target_bytes, size_t max_segments) {
  std::vector<size_t> starts{0};
  if (max_segments <= 1 || content.size() <= target_bytes) return starts;
  const size_t segments = std::min(
      max_segments, (content.size() + target_bytes - 1) / target_bytes);
  const uint64_t quote8 = kSwarOnes * static_cast<uint64_t>('"');
  const char* p = content.data();
  bool parity = false;  // quote parity of [0, cursor)
  size_t cursor = 0;
  for (size_t b = 1; b < segments; ++b) {
    const size_t naive = content.size() * b / segments;
    if (naive <= cursor) continue;
    // Advance the running parity to the naive split point (SWAR quote
    // count, 8 bytes per step — a popcount pass, far cheaper than the
    // parse it unblocks).
    size_t quotes = 0;
    size_t i = cursor;
    for (; i + 8 <= naive; i += 8) {
      uint64_t v;
      std::memcpy(&v, p + i, 8);
      quotes +=
          static_cast<size_t>(__builtin_popcountll(MatchBytes(v, quote8)));
    }
    for (; i < naive; ++i) quotes += (p[i] == '"');
    if (quotes % 2 != 0) parity = !parity;
    cursor = naive;
    // First record-terminating newline at or after the split point.
    size_t j = cursor;
    bool par = parity;
    for (; j < content.size(); ++j) {
      const char c = p[j];
      if (c == '"') {
        par = !par;
      } else if (c == '\n' && !par) {
        break;
      }
    }
    if (j >= content.size()) break;  // no further record boundary
    parity = par;
    cursor = j + 1;
    if (cursor >= content.size()) break;
    starts.push_back(cursor);
  }
  return starts;
}

/// One parallel ingest pass over in-memory content. Bit-for-bit the
/// sequential result: segments are record-aligned, segment columns
/// concatenate in file order, and dictionaries merge in first-appearance
/// order — which IS the sequential code-assignment order, because every
/// row of segment s precedes every row of segment s+1. A malformed input
/// fails with the sequential reader's error: the first failing segment is
/// parsed again with its record count starting after the records of the
/// (clean) segments before it.
Result<DataFrame> ParseSegmented(std::string_view content,
                                 const Schema& schema,
                                 const IngestOptions& options,
                                 IngestStats* stats,
                                 TaskScheduler& pool) {
  const obs::TraceSpan span("ingest_segmented");
  StopWatch watch;
  IngestStats local;
  const size_t target = std::max<size_t>(options.chunk_bytes, 1);
  const std::vector<size_t> starts =
      SegmentStarts(content, target, pool.num_threads() * 4);
  const size_t num_segments = starts.size();
  const auto segment = [&](size_t s) {
    const size_t end = s + 1 < num_segments ? starts[s + 1] : content.size();
    return content.substr(starts[s], end - starts[s]);
  };

  std::vector<std::unique_ptr<StreamParser>> parsers;
  parsers.reserve(num_segments);
  for (size_t s = 0; s < num_segments; ++s) {
    parsers.push_back(std::make_unique<StreamParser>(
        schema, options, /*skip_header=*/s != 0));
  }
  std::vector<Status> segment_status(num_segments);
  pool.ParallelFor(num_segments, [&](size_t s) {
    const obs::TraceSpan segment_span("segment", static_cast<int64_t>(s));
    segment_status[s] = parsers[s]->ParseSegment(segment(s));
  });
  size_t records_before = 0;
  for (size_t s = 0; s < num_segments; ++s) {
    if (segment_status[s].ok()) {
      records_before += parsers[s]->records();
      continue;
    }
    StreamParser retry(schema, options, /*skip_header=*/s != 0,
                       records_before);
    FAIRCAP_RETURN_NOT_OK(retry.ParseSegment(segment(s)));
    return segment_status[s];  // unreachable: the segment failed above
  }
  if (!parsers[0]->header_done()) {
    return Status::IOError("CSV input is empty (no header)");
  }

  size_t total_rows = 0;
  for (const auto& parser : parsers) total_rows += parser->rows();
  std::vector<Column> columns;
  columns.reserve(schema.num_attributes());
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (schema.attribute(c).type == AttrType::kCategorical) {
      std::vector<std::string> dict;
      // Transparent comparator: segment dictionary views probe without a
      // per-lookup string copy. Keyed by owned strings so `dict`'s
      // reallocation cannot invalidate anything.
      std::map<std::string, int32_t, std::less<>> index;
      std::vector<int32_t> codes;
      codes.reserve(total_rows);
      for (const auto& parser : parsers) {
        ColumnBuilder& b = parser->builders()[c];
        std::vector<int32_t> remap(b.dict_views.size());
        for (size_t k = 0; k < b.dict_views.size(); ++k) {
          const std::string_view name = b.dict_views[k];
          const auto it = index.find(name);
          if (it != index.end()) {
            remap[k] = it->second;
          } else {
            const int32_t code = static_cast<int32_t>(dict.size());
            dict.emplace_back(name);
            index.emplace(dict.back(), code);
            remap[k] = code;
          }
        }
        for (const int32_t code : b.codes) {
          codes.push_back(code < 0 ? Column::kNullCode
                                   : remap[static_cast<size_t>(code)]);
        }
      }
      FAIRCAP_ASSIGN_OR_RETURN(
          Column col, Column::FromCodes(std::move(codes), std::move(dict),
                                        /*trusted=*/true));
      columns.push_back(std::move(col));
    } else {
      std::vector<double> values;
      values.reserve(total_rows);
      for (const auto& parser : parsers) {
        ColumnBuilder& b = parser->builders()[c];
        values.insert(values.end(), b.values.begin(), b.values.end());
      }
      columns.push_back(Column::FromNumeric(std::move(values)));
    }
  }
  FAIRCAP_ASSIGN_OR_RETURN(DataFrame df,
                           DataFrame::FromColumns(schema, std::move(columns)));
  if (options.warm_start_index) WarmStartIndex(df, &local);

  local.rows = total_rows;
  local.bytes = content.size();
  local.chunks = num_segments;
  local.parse_threads = pool.num_threads();
  local.seconds = watch.ElapsedSeconds();
  PublishIngestStats(local, num_segments);
  if (stats != nullptr) *stats = local;
  return df;
}

/// Resolved parse-thread count for the options (1 = sequential reader).
size_t ResolveParseThreads(const IngestOptions& options) {
  if (options.scheduler != nullptr) {
    return options.scheduler->num_threads();
  }
  return ResolveThreadCount(options.num_threads);
}

/// Parallel entry point over in-memory content: parses on the borrowed
/// pool, or on one started for the call.
Result<DataFrame> IngestSegmented(std::string_view content,
                                  const Schema& schema,
                                  const IngestOptions& options,
                                  IngestStats* stats, size_t workers) {
  if (options.scheduler != nullptr) {
    return ParseSegmented(content, schema, options, stats, *options.scheduler);
  }
  TaskScheduler pool(workers);
  return ParseSegmented(content, schema, options, stats, pool);
}

}  // namespace

Result<DataFrame> StreamCsv(const std::string& path, const Schema& schema,
                            const IngestOptions& options,
                            IngestStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  const size_t workers = ResolveParseThreads(options);
  if (workers > 1 && size > 0) {
    // Parallel mode buffers the file (the segment parsers need random
    // access); the sequential reader below streams in bounded windows.
    std::string content(static_cast<size_t>(size), '\0');
    in.read(content.data(), size);
    content.resize(static_cast<size_t>(in.gcount()));
    return IngestSegmented(content, schema, options, stats, workers);
  }
  return StreamFrom(in, schema, options, stats,
                    size > 0 ? static_cast<size_t>(size) : 0);
}

Result<DataFrame> StreamCsvInferSchema(const std::string& path,
                                       const IngestOptions& options,
                                       IngestStats* stats) {
  FAIRCAP_ASSIGN_OR_RETURN(const Schema schema,
                           InferCsvSchema(path, options));
  return StreamCsv(path, schema, options, stats);
}

Result<DataFrame> StreamCsvFromString(const std::string& content,
                                      const Schema& schema,
                                      const IngestOptions& options,
                                      IngestStats* stats) {
  const size_t workers = ResolveParseThreads(options);
  if (workers > 1) {
    return IngestSegmented(content, schema, options, stats, workers);
  }
  std::istringstream in(content);
  return StreamFrom(in, schema, options, stats, content.size());
}

}  // namespace faircap
