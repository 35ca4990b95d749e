// CSV dialect options, schema inference, and export. Rows are read by the
// streaming columnar reader (ingest/chunked_csv_reader.h: StreamCsv and
// friends), which shares its record scanner (csv_scan.h) with
// InferCsvSchema. Quoting is RFC-4180 style; a column infers as numeric if
// every non-null cell parses as a double.

#ifndef FAIRCAP_DATAFRAME_CSV_H_
#define FAIRCAP_DATAFRAME_CSV_H_

#include <string>

#include "dataframe/dataframe.h"
#include "util/result.h"

namespace faircap {

/// The CSV dialect, shared by inference, the streaming reader
/// (IngestOptions extends it), and the writer.
struct CsvOptions {
  char delimiter = ',';
  /// Cells equal to this literal (after trimming) become nulls, in addition
  /// to empty cells.
  std::string null_token = "NA";
};

/// The schema a CSV file would load under (numeric if every non-null cell
/// parses as a double and one does, categorical otherwise; roles all
/// kImmutable). One bounded-window, zero-copy pass on the record scanner
/// the streaming reader also uses (csv_scan.h); every record is read, so a
/// ragged row or an unterminated quote anywhere fails.
Result<Schema> InferCsvSchema(const std::string& path,
                              const CsvOptions& options = {});

/// Writes `df` as CSV (header + rows).
Status WriteCsv(const DataFrame& df, const std::string& path,
                const CsvOptions& options = {});

}  // namespace faircap

#endif  // FAIRCAP_DATAFRAME_CSV_H_
