// CSV edge-case corpus shared by the loader tests: quoting, escapes,
// embedded delimiters and newlines, CRLF, nulls, blank and CR-only lines,
// trailing empty columns, and a last line without a newline — everything
// the legacy loader, the streaming reader, and schema inference must agree
// on.

#ifndef FAIRCAP_TESTS_CSV_CORPUS_H_
#define FAIRCAP_TESTS_CSV_CORPUS_H_

namespace faircap {

inline constexpr char kEdgeCaseCsv[] =
    "name,city,score\n"
    "alice,berlin,1.5\r\n"
    "\"smith, john\",\"a\nb\",2\n"
    "\"say \"\"hi\"\"\",paris,NA\n"
    "NA,,\r\n"
    "\r\n"
    "bob,tokyo,-3e2\n"
    "carol,berlin,";

}  // namespace faircap

#endif  // FAIRCAP_TESTS_CSV_CORPUS_H_
