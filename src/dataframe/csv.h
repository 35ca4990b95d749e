// CSV import/export. Supports RFC-4180-style quoting, explicit schemas,
// and type inference (numeric if every non-empty cell parses as a double).

#ifndef FAIRCAP_DATAFRAME_CSV_H_
#define FAIRCAP_DATAFRAME_CSV_H_

#include <string>

#include "dataframe/dataframe.h"
#include "util/result.h"

namespace faircap {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// Cells equal to this literal (after trimming) become nulls, in addition
  /// to empty cells.
  std::string null_token = "NA";
};

/// Reads a CSV file whose header must match `schema` attribute names
/// exactly (same order).
Result<DataFrame> ReadCsv(const std::string& path, const Schema& schema,
                          const CsvOptions& options = {});

/// Reads a CSV file, inferring the schema from the header and cell values.
/// All inferred attributes default to AttrRole::kImmutable; callers assign
/// roles afterwards via DataFrame::SetRole.
Result<DataFrame> ReadCsvInferSchema(const std::string& path,
                                     const CsvOptions& options = {});

/// Inference pass only: the schema a CSV file would load under (numeric if
/// every non-null cell parses as a double and one does, categorical
/// otherwise; roles all kImmutable). One bounded-window, zero-copy pass on
/// the record scanner the streaming reader also uses (csv_scan.h); every
/// record is read, so a ragged row or an unterminated quote anywhere fails.
Result<Schema> InferCsvSchema(const std::string& path,
                              const CsvOptions& options = {});

/// Parses CSV content from a string (same semantics as ReadCsv).
Result<DataFrame> ParseCsv(const std::string& content, const Schema& schema,
                           const CsvOptions& options = {});

/// Parses CSV content from a string with schema inference.
Result<DataFrame> ParseCsvInferSchema(const std::string& content,
                                      const CsvOptions& options = {});

/// Writes `df` as CSV (header + rows).
Status WriteCsv(const DataFrame& df, const std::string& path,
                const CsvOptions& options = {});

}  // namespace faircap

#endif  // FAIRCAP_DATAFRAME_CSV_H_
