// Internal CSV record scanner shared by schema inference (csv.cc) and the
// streaming columnar reader (ingest/chunked_csv_reader.cc), so both split
// records and fields, trim cells, and recognise numbers the same way. Not
// a public API: only those two readers and the tests include it; everyone
// else goes through dataframe/csv.h or ingest/chunked_csv_reader.h.
//
// Record rules (RFC-4180, as the test oracle tests/reference/legacy_csv.h
// reads them): a record ends at a '\n' outside quotes; "" inside quotes is
// an escaped quote (it flips the quote state twice); one CR before the
// terminating '\n' is stripped when the quote is closed; a last record
// without a newline is kept.

#ifndef FAIRCAP_DATAFRAME_CSV_SCAN_H_
#define FAIRCAP_DATAFRAME_CSV_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "dataframe/csv.h"
#include "dataframe/schema.h"
#include "util/result.h"

namespace faircap {
namespace csv_scan {

inline constexpr size_t kNoRecord = static_cast<size_t>(-1);

/// Bytes read per window by the inference pass (the streaming reader's
/// IngestOptions::chunk_bytes default is the same 1 MiB).
inline constexpr size_t kDefaultWindowBytes = size_t{1} << 20;

/// Index of the '\n' terminating the record that starts at `pos`, honoring
/// quote parity. kNoRecord when the record is incomplete in `buf`.
size_t FindRecordEnd(std::string_view buf, size_t pos);

/// The last record of an input that does not end in a newline: strips one
/// trailing CR unless a quote is still open (then the CR is field data of
/// a malformed record, which splitting rejects).
std::string_view StripTailCr(std::string_view record);

inline constexpr uint64_t kSwarOnes = 0x0101010101010101ULL;
inline constexpr uint64_t kSwarHighs = 0x8080808080808080ULL;

/// SWAR byte search: the high bit of each byte of the result is set iff
/// that byte of `v` equals the byte replicated through `pattern8`.
__attribute__((always_inline)) inline uint64_t MatchBytes(uint64_t v,
                                                          uint64_t pattern8) {
  const uint64_t x = v ^ pattern8;
  return (x - kSwarOnes) & ~x & kSwarHighs;
}

/// isspace over the ASCII set Trim uses: ' ' plus \t \n \v \f \r.
__attribute__((always_inline)) inline bool IsSpaceAscii(unsigned char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Always-inlined Trim (util::Trim showed up in profiles at one call per
/// cell). The `> ' '` pre-test exits in one compare for the common
/// untrimmed cell.
__attribute__((always_inline)) inline std::string_view TrimView(
    std::string_view s) {
  while (!s.empty()) {
    const unsigned char c = static_cast<unsigned char>(s.front());
    if (c > ' ' || !IsSpaceAscii(c)) break;
    s.remove_prefix(1);
  }
  while (!s.empty()) {
    const unsigned char c = static_cast<unsigned char>(s.back());
    if (c > ' ' || !IsSpaceAscii(c)) break;
    s.remove_suffix(1);
  }
  return s;
}

/// strtod-compatible double parse of a trimmed cell, bit-identical to
/// ParseDouble and accepting the same language (see csv_scan.cc).
bool FastParseDouble(std::string_view s, double* out);

/// The quote-free fast path shared by the streaming reader and inference:
/// scans every newline-terminated record of buf[pos, ...) up to the last
/// '\n' with one SWAR pass (8 bytes per step) over delimiters, newlines,
/// and quotes, and hands quote-free records to `sink` cell by cell with
/// zero copies:
///   bool OnCell(size_t col, std::string_view cell)
///       a cell that is not its record's last (col + 1 < arity);
///   bool OnRowEnd(size_t col, std::string_view cell)
///       the last cell of a non-blank record, at column `col` (the sink
///       owns the arity check; the terminator's CR is stripped);
///   void OnDiscard(size_t cells)
///       the fast path gave up on the current record — it holds a quote,
///       or more than `arity` cells — after `cells` of its cells went to
///       OnCell; the record comes back whole through OnRecord, or is
///       rescanned from its start with the next window;
///   bool OnRecord(std::string_view record)
///       such a record, whole (terminator and CR stripped; its quotes are
///       closed).
/// Blank and CR-only records are skipped. A sink returning false stops the
/// scan, which then returns kNoRecord; otherwise the result is the offset
/// of the first byte not consumed (the start of an incomplete record).
template <typename Sink>
__attribute__((always_inline)) inline size_t ScanRecords(std::string_view buf,
                                                         size_t pos,
                                                         char delimiter,
                                                         size_t arity,
                                                         Sink& sink) {
  const char* p = buf.data();
  const void* last_nl = memrchr(p + pos, '\n', buf.size() - pos);
  if (last_nl == nullptr) return pos;
  const size_t scan_end =
      static_cast<size_t>(static_cast<const char*>(last_nl) - p) + 1;

  const uint64_t delim8 = kSwarOnes * static_cast<unsigned char>(delimiter);
  const uint64_t quote8 = kSwarOnes * static_cast<uint64_t>('"');
  const uint64_t nl8 = kSwarOnes * static_cast<uint64_t>('\n');

  size_t row_start = pos;  // current record's first byte
  size_t start = pos;      // current cell's first byte
  size_t col = 0;
  size_t i = pos;

  enum class Act { kNext, kMoved, kNeedMore, kStop };

  // Handles the special byte at `idx`.
  auto handle = [&](size_t idx) -> Act {
    const char c = p[idx];
    if (c == delimiter && col + 1 < arity) {
      if (!sink.OnCell(col, std::string_view(p + start, idx - start))) {
        return Act::kStop;
      }
      ++col;
      start = idx + 1;
      return Act::kNext;
    }
    if (c == '\n') {
      size_t cell_end = idx;
      if (cell_end > start && p[cell_end - 1] == '\r') --cell_end;
      if ((col != 0 || cell_end != start) &&
          !sink.OnRowEnd(col, std::string_view(p + start, cell_end - start))) {
        return Act::kStop;
      }
      col = 0;
      start = idx + 1;
      row_start = idx + 1;
      return Act::kNext;
    }
    // A quote, or one cell too many: whether the record is ragged or an
    // unterminated quote depends on the rest of it.
    sink.OnDiscard(col);
    const size_t end = FindRecordEnd(buf, row_start);
    if (end == kNoRecord) return Act::kNeedMore;  // resume next window
    std::string_view record(p + row_start, end - row_start);
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    if (!sink.OnRecord(record)) return Act::kStop;
    i = end + 1;
    col = 0;
    start = i;
    row_start = i;
    return Act::kMoved;  // scan position jumped; restart the word loop
  };

  while (i < scan_end) {
    if (i + 8 <= scan_end) {
      uint64_t v = 0;
      std::memcpy(&v, p + i, 8);
      uint64_t hits =
          MatchBytes(v, delim8) | MatchBytes(v, quote8) | MatchBytes(v, nl8);
      bool advance = true;
      while (hits != 0) {
        const size_t idx =
            i + (static_cast<size_t>(__builtin_ctzll(hits)) >> 3);
        hits &= hits - 1;
        const Act act = handle(idx);
        if (act == Act::kNext) continue;
        if (act == Act::kStop) return kNoRecord;
        if (act == Act::kNeedMore) return row_start;
        advance = false;  // kMoved: i was repositioned past the record
        break;
      }
      if (advance) i += 8;
    } else {
      const char c = p[i];
      if (c == delimiter || c == '\n' || c == '"') {
        const Act act = handle(i);
        if (act == Act::kStop) return kNoRecord;
        if (act == Act::kNeedMore) return row_start;
        if (act == Act::kMoved) continue;  // i repositioned
      }
      ++i;
    }
  }
  return scan_end;
}

/// Escape-aware field splitter for records that contain quotes. Fields
/// without quotes are views into the record; quoted fields are unescaped
/// into reused scratch strings (a deque, so earlier views stay valid while
/// later fields are split). Views live until the next Split.
class FieldSplitter {
 public:
  /// Splits one complete record (terminator and CR already stripped).
  /// False when a quote is left open.
  bool Split(std::string_view record, char delimiter);
  const std::vector<std::string_view>& fields() const { return fields_; }

 private:
  std::vector<std::string_view> fields_;
  std::deque<std::string> scratch_;
};

/// Bounded read window over a stream: each Fill reads up to
/// `window_bytes` after the bytes the caller left unconsumed (a record
/// that straddles the window edge). The buffer grows only when a single
/// record outgrows it.
class WindowReader {
 public:
  WindowReader(std::istream& in, size_t window_bytes);

  /// Reads the next window; false at end of input.
  bool Fill();
  /// Carried-over bytes followed by the bytes of the last Fill. After Fill
  /// returned false this is the unconsumed tail of the input.
  std::string_view window() const { return {buf_.data(), size_}; }
  /// Drops the first `n` bytes of window(); the rest is carried over.
  void Consume(size_t n);

  size_t bytes_read() const { return bytes_read_; }
  size_t fills() const { return fills_; }

 private:
  std::istream& in_;
  size_t window_bytes_;
  std::vector<char> buf_;
  size_t size_ = 0;
  size_t bytes_read_ = 0;
  size_t fills_ = 0;
};

/// Schema inference over a stream in `window_bytes` windows: numeric when
/// every non-null cell of a column parses as a double (and at least one
/// does), categorical otherwise; roles all kImmutable. Every record is
/// read, so a ragged row or an unterminated quote anywhere fails the call.
Result<Schema> InferSchemaFromStream(std::istream& in,
                                     const CsvOptions& options,
                                     size_t window_bytes = kDefaultWindowBytes);

}  // namespace csv_scan
}  // namespace faircap

#endif  // FAIRCAP_DATAFRAME_CSV_SCAN_H_
