// Streaming columnar CSV ingestion: the one CSV row reader. It consumes
// the input in fixed-size chunks and parses fields straight into
// dictionary-encoded columnar storage (zero-copy string_view fields for
// the unquoted common case), assembles the DataFrame wholesale, and
// warm-starts its PredicateIndex with the per-category bitmap masks built
// from the still-hot column codes, so Apriori, the intervention lattice,
// and treatment-mask evaluation never pay a first-touch column scan.
//
// Records and fields are split by the scanner schema inference also uses
// (dataframe/csv_scan.h): RFC-4180 quoting, quoted fields may contain
// delimiters / CRLF / record separators, CRLF line endings, trailing empty
// columns, and null-token handling. The tests pin the result bit for bit
// (dictionary code order included) against the row-by-row oracle in
// tests/reference/legacy_csv.h, and the parallel reader against the
// sequential one (same tables; same status code and message on failure).

#ifndef FAIRCAP_INGEST_CHUNKED_CSV_READER_H_
#define FAIRCAP_INGEST_CHUNKED_CSV_READER_H_

#include <cstddef>
#include <string>

#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "util/result.h"

namespace faircap {

class TaskScheduler;  // util/task_scheduler.h

/// Knobs for streaming ingestion: the CSV dialect (delimiter, null token)
/// plus how the input is read.
struct IngestOptions : CsvOptions {
  /// Bytes read from the source per chunk.
  size_t chunk_bytes = 1 << 20;
  /// Build per-category bitmap masks during ingest and install them into
  /// the DataFrame's PredicateIndex. Columns with more than
  /// PredicateIndex::kBatchBuildMaxCategories categories get no warm masks
  /// (the index's own batch-build cap: rare categories of high-cardinality
  /// columns should stay on-demand).
  bool warm_start_index = true;
  /// Parse threads (1 = the sequential streaming reader; 0 = hardware
  /// concurrency). With T > 1 the input is split into record-aligned
  /// segments of ~chunk_bytes each, every segment is SWAR-parsed into
  /// segment-local columns by one ParallelFor on a flat pool of T workers
  /// (the calling thread parses segments too), and the segment columns
  /// concatenate in file order with their dictionaries merged in
  /// first-appearance order — bit-for-bit the sequential result (same
  /// codes, same values, same nulls).
  /// Parallel mode buffers the whole input in memory (the sequential
  /// reader streams in chunk_bytes windows). On a malformed input only the
  /// first failing segment is parsed again, with its record count starting
  /// after the records of the segments before it, so the error (code and
  /// message, record number included) is the sequential reader's.
  size_t num_threads = 1;
  /// Run the parallel parse on this pool instead of starting one
  /// (borrowed, so many parses can share one set of workers). Null with
  /// num_threads > 1 starts a pool for the duration of the call.
  TaskScheduler* scheduler = nullptr;
};

/// Observability for benchmarks and the CLI `ingest` verb.
struct IngestStats {
  size_t rows = 0;
  size_t bytes = 0;
  size_t chunks = 0;           ///< read chunks (sequential) or parse segments
  size_t parse_threads = 1;    ///< pool workers used (1 = sequential)
  size_t warm_atom_masks = 0;  ///< category masks installed into the index
  double seconds = 0.0;        ///< wall time inside the ingest call
  double RowsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(rows) / seconds : 0.0;
  }
};

/// Streams a CSV file into a columnar DataFrame whose header must match
/// `schema` (same names, same order).
Result<DataFrame> StreamCsv(const std::string& path, const Schema& schema,
                            const IngestOptions& options = {},
                            IngestStats* stats = nullptr);

/// Streams a CSV file, inferring the schema first with InferCsvSchema (one
/// extra bounded-window pass over the same record scanner, csv_scan.h).
Result<DataFrame> StreamCsvInferSchema(const std::string& path,
                                       const IngestOptions& options = {},
                                       IngestStats* stats = nullptr);

/// Streams CSV content held in memory (tests and small inputs).
Result<DataFrame> StreamCsvFromString(const std::string& content,
                                      const Schema& schema,
                                      const IngestOptions& options = {},
                                      IngestStats* stats = nullptr);

}  // namespace faircap

#endif  // FAIRCAP_INGEST_CHUNKED_CSV_READER_H_
