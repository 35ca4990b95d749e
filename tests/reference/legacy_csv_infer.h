// Test-side pinning oracle for CSV schema inference: the original
// istream pass. It reads records with std::getline (joining lines while a
// quote is open), copies every cell into a std::string, trims it, and
// tests it with ParseDouble. Production inference (InferCsvSchema and
// ParseCsvInferSchema) is one bounded-window pass on the shared record
// scanner in dataframe/csv_scan.h; the tests pin it against this oracle:
// the same names and types on success, the same code and message on
// failure.

#ifndef FAIRCAP_TESTS_REFERENCE_LEGACY_CSV_INFER_H_
#define FAIRCAP_TESTS_REFERENCE_LEGACY_CSV_INFER_H_

#include <string>

#include "dataframe/csv.h"
#include "dataframe/schema.h"
#include "util/result.h"

namespace faircap {

/// Infers the schema of the CSV `content`: numeric when every non-null
/// cell of a column parses as a double (and one does), categorical
/// otherwise; roles all kImmutable.
Result<Schema> LegacyInferSchema(const std::string& content,
                                 const CsvOptions& options = {});

}  // namespace faircap

#endif  // FAIRCAP_TESTS_REFERENCE_LEGACY_CSV_INFER_H_
