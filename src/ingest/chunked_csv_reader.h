// Streaming columnar CSV ingestion. The legacy loader (dataframe/csv.h)
// parses line by line into row-oriented Values and appends them one row at
// a time; every cell allocates a Value and every row re-validates types
// and invalidates the predicate index. This reader instead consumes the
// input in fixed-size chunks and parses fields straight into
// dictionary-encoded columnar storage (zero-copy string_view fields for
// the unquoted common case), assembles the DataFrame wholesale, and
// warm-starts its PredicateIndex with the per-category bitmap masks built
// from the still-hot column codes — so Apriori, the intervention lattice,
// and treatment-mask evaluation never pay a first-touch column scan.
//
// Semantics are identical to the legacy loader (a test pins bit-for-bit
// DataFrame equality, including dictionary code assignment order):
// RFC-4180 quoting, quoted fields may contain delimiters / CRLF / record
// separators, CRLF line endings, trailing empty columns, and the same
// null-token handling.

#ifndef FAIRCAP_INGEST_CHUNKED_CSV_READER_H_
#define FAIRCAP_INGEST_CHUNKED_CSV_READER_H_

#include <cstddef>
#include <string>

#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "dataframe/predicate_index.h"
#include "util/result.h"

namespace faircap {

class TaskScheduler;  // util/task_scheduler.h

/// Knobs for streaming ingestion.
struct IngestOptions {
  char delimiter = ',';
  /// Cells equal to this literal (after trimming) become nulls, in
  /// addition to empty cells (same contract as CsvOptions).
  std::string null_token = "NA";
  /// Bytes read from the source per chunk.
  size_t chunk_bytes = 1 << 20;
  /// Verify that the header matches the schema attribute names.
  bool check_header = true;
  /// Build per-category bitmap masks during ingest and install them into
  /// the DataFrame's PredicateIndex.
  bool warm_start_index = true;
  /// Columns with more categories than this get no warm masks (the
  /// index's own batch-build cap: rare categories of high-cardinality
  /// columns should stay on-demand).
  size_t warm_max_categories = PredicateIndex::kBatchBuildMaxCategories;
  /// Parse threads (1 = the sequential streaming reader; 0 = hardware
  /// concurrency). With more than one thread the input is split into
  /// record-aligned segments of ~chunk_bytes each, every segment is
  /// SWAR-parsed into segment-local columns on the work-stealing
  /// scheduler, and the segment columns concatenate in file order with
  /// their dictionaries merged in first-appearance order — bit-for-bit
  /// the sequential result (same codes, same values, same nulls).
  /// Parallel mode buffers the whole input in memory (the sequential
  /// reader streams in chunk_bytes windows).
  size_t num_threads = 1;
  /// Run the parallel parse on this scheduler instead of spawning one
  /// (borrowed; e.g. the pipeline's own Step-2 scheduler). Null with
  /// num_threads > 1 spawns a scheduler for the duration of the call.
  TaskScheduler* scheduler = nullptr;
};

/// Observability for benchmarks and the CLI `ingest` verb.
struct IngestStats {
  size_t rows = 0;
  size_t bytes = 0;
  size_t chunks = 0;           ///< read chunks (sequential) or parse segments
  size_t parse_threads = 1;    ///< scheduler workers used (1 = sequential)
  size_t warm_atom_masks = 0;  ///< category masks installed into the index
  double seconds = 0.0;        ///< wall time inside the ingest call
  double RowsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(rows) / seconds : 0.0;
  }
};

/// Streams a CSV file into a columnar DataFrame whose header must match
/// `schema` (same names, same order) unless options.check_header is off.
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
