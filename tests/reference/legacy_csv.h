// Test-side pinning oracles for CSV reading: the original istream
// loader. It reads records with std::getline (joining lines while a quote
// is open), copies every cell into a std::string, trims it, and tests
// numbers with ParseDouble. One tokenizer serves both oracles:
//   - LegacyInferSchema pins schema inference (InferCsvSchema, one
//     bounded-window pass on the shared record scanner in
//     dataframe/csv_scan.h): the same names and types on success, the
//     same code and message on failure;
//   - LegacyParseCsv pins the streaming reader (StreamCsv and friends in
//     ingest/chunked_csv_reader.h): bit-identical tables on success, the
//     same status code on failure. Its messages count physical lines
//     ("at line N"); the streaming reader counts logical records.
// Production code has one CSV row reader, the streaming one.

#ifndef FAIRCAP_TESTS_REFERENCE_LEGACY_CSV_H_
#define FAIRCAP_TESTS_REFERENCE_LEGACY_CSV_H_

#include <string>

#include "dataframe/csv.h"
#include "dataframe/dataframe.h"
#include "dataframe/schema.h"
#include "util/result.h"

namespace faircap {

/// Infers the schema of the CSV `content`: numeric when every non-null
/// cell of a column parses as a double (and one does), categorical
/// otherwise; roles all kImmutable.
Result<Schema> LegacyInferSchema(const std::string& content,
                                 const CsvOptions& options = {});

/// Parses the CSV `content` row by row into a DataFrame under `schema`,
/// whose attribute names the header must match (same order).
Result<DataFrame> LegacyParseCsv(const std::string& content,
                                 const Schema& schema,
                                 const CsvOptions& options = {});

}  // namespace faircap

#endif  // FAIRCAP_TESTS_REFERENCE_LEGACY_CSV_H_
