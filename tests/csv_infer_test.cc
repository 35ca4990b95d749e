// Differential tests for CSV schema inference: InferCsvSchema and the
// stream pass behind it (one bounded-window pass on dataframe/csv_scan.h)
// against the legacy istream pass in tests/reference. On success both
// must give the same names and types; on failure the same status code and
// message. Window sizes down to one byte make quoted newlines and CRLF
// pairs straddle every read boundary.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "csv_corpus.h"
#include "dataframe/csv.h"
#include "dataframe/csv_scan.h"
#include "ingest/chunked_csv_reader.h"
#include "reference/legacy_csv.h"

namespace faircap {
namespace {

// Same verdict: equal schemas (names, types, roles) or equal failures.
void ExpectSameResult(const Result<Schema>& want, const Result<Schema>& got,
                      const std::string& tag) {
  ASSERT_EQ(want.ok(), got.ok())
      << tag << ": oracle "
      << (want.ok() ? "OK" : want.status().ToString()) << ", new "
      << (got.ok() ? "OK" : got.status().ToString());
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << tag;
    EXPECT_EQ(want.status().message(), got.status().message()) << tag;
    return;
  }
  ASSERT_EQ(want->num_attributes(), got->num_attributes()) << tag;
  for (size_t i = 0; i < want->num_attributes(); ++i) {
    EXPECT_EQ(want->attribute(i).name, got->attribute(i).name)
        << tag << " column " << i;
    EXPECT_EQ(want->attribute(i).type, got->attribute(i).type)
        << tag << " column " << i;
    EXPECT_EQ(want->attribute(i).role, got->attribute(i).role)
        << tag << " column " << i;
  }
}

Result<Schema> InferInWindows(const std::string& content, size_t window,
                              const CsvOptions& options = {}) {
  std::istringstream in(content);
  return csv_scan::InferSchemaFromStream(in, options, window);
}

// Every entry point against the oracle: the stream pass at the default
// window and at every small window, and the file entry point; a table
// that infers must then load under its schema. Returns the oracle's result.
Result<Schema> ExpectMatchesOracle(const std::string& content,
                                   const CsvOptions& options = {}) {
  const Result<Schema> want = LegacyInferSchema(content, options);
  ExpectSameResult(want, InferInWindows(content, csv_scan::kDefaultWindowBytes,
                                        options),
                   "default window");
  for (size_t window = 1; window <= content.size() + 1; ++window) {
    ExpectSameResult(want, InferInWindows(content, window, options),
                     "window " + std::to_string(window));
  }

  const std::string path = testing::TempDir() + "/faircap_csv_infer_test.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  ExpectSameResult(want, InferCsvSchema(path, options), "InferCsvSchema");
  std::remove(path.c_str());

  if (want.ok()) {
    IngestOptions ingest;
    static_cast<CsvOptions&>(ingest) = options;
    const Result<DataFrame> parsed =
        StreamCsvFromString(content, *want, ingest);
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
  return want;
}

AttrType TypeOf(const Result<Schema>& schema, size_t column) {
  return schema->attribute(column).type;
}

TEST(CsvInferTest, EdgeCaseCorpusMatchesOracle) {
  const Result<Schema> schema = ExpectMatchesOracle(kEdgeCaseCsv);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(TypeOf(schema, 0), AttrType::kCategorical);
  EXPECT_EQ(TypeOf(schema, 1), AttrType::kCategorical);
  EXPECT_EQ(TypeOf(schema, 2), AttrType::kNumeric);
}

TEST(CsvInferTest, QuotedNewlineAndCrlfStraddleTheWindow) {
  // ExpectMatchesOracle walks every window size, so the quoted "\r\n"
  // and the CRLF terminators fall on both sides of a read boundary.
  const std::string content =
      "id,note,value\r\n"
      "1,\"line one\r\nline two\",2.5\r\n"
      "2,\"x,\"\"y\"\"\",3\r\n"
      "3,plain,\"4\"\r\n"
      "\r\n"
      "\r\r\n";
  ExpectMatchesOracle(content);
  const Result<Schema> schema = ExpectMatchesOracle(
      "id,note,value\r\n1,\"a\r\nb\",2.5\r\n3,\"c\nd\",\"4\"\r\n");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(TypeOf(schema, 0), AttrType::kNumeric);
  EXPECT_EQ(TypeOf(schema, 1), AttrType::kCategorical);
  EXPECT_EQ(TypeOf(schema, 2), AttrType::kNumeric);
}

TEST(CsvInferTest, NumericCellLengthCapIsParseDoubles) {
  // ParseDouble copies into a 64-byte buffer: 63 bytes parse, 64 do not.
  const std::string digits63 = "1" + std::string(62, '0');
  const std::string digits64 = "1" + std::string(63, '0');
  const std::string decimal63 = "-0." + std::string(59, '0') + "1";
  ASSERT_EQ(digits63.size(), 63u);
  ASSERT_EQ(digits64.size(), 64u);
  ASSERT_EQ(decimal63.size(), 63u);
  const Result<Schema> schema = ExpectMatchesOracle(
      "a,b,c,d\n" + digits63 + "," + digits64 + "," + decimal63 + ", " +
      digits63 + " \n1,2,3,4\n");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(TypeOf(schema, 0), AttrType::kNumeric);
  EXPECT_EQ(TypeOf(schema, 1), AttrType::kCategorical);
  EXPECT_EQ(TypeOf(schema, 2), AttrType::kNumeric);
  EXPECT_EQ(TypeOf(schema, 3), AttrType::kNumeric);  // trimmed to 63
}

TEST(CsvInferTest, NumberSpellingsFollowParseDouble) {
  struct Case {
    const char* cell;
    AttrType type;
  };
  const Case cases[] = {
      {"inf", AttrType::kNumeric},     {"nan", AttrType::kNumeric},
      {"0x1p3", AttrType::kNumeric},   {"+1", AttrType::kNumeric},
      {"1e5", AttrType::kNumeric},     {"-.5", AttrType::kNumeric},
      {"5.", AttrType::kNumeric},      {"007", AttrType::kNumeric},
      {"\" 7 \"", AttrType::kNumeric}, {".", AttrType::kCategorical},
      {"-", AttrType::kCategorical},   {"1.2.3", AttrType::kCategorical},
      {"--1", AttrType::kCategorical}, {"1,5", AttrType::kCategorical},
      {"\"1,5\"", AttrType::kCategorical},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cell);
    const Result<Schema> schema =
        ExpectMatchesOracle(std::string("x,k\n") + c.cell + ",a\n2,b\n");
    if (std::string(c.cell) == "1,5") {
      // An unquoted delimiter makes the row ragged.
      ASSERT_FALSE(schema.ok());
      continue;
    }
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    EXPECT_EQ(TypeOf(schema, 0), c.type);
  }
}

TEST(CsvInferTest, QuotedNullTokenIsNull) {
  const Result<Schema> schema =
      ExpectMatchesOracle("v,w\n\"NA\",\" NA \"\n1,\"NA\"\n\"\",\n");
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(TypeOf(schema, 0), AttrType::kNumeric);
  // A column holding only nulls never produced a value: categorical.
  EXPECT_EQ(TypeOf(schema, 1), AttrType::kCategorical);

  CsvOptions options;
  options.null_token = "?";
  const Result<Schema> custom = ExpectMatchesOracle("v\n?\n\"?\"\n3\nNA\n",
                                                    options);
  ASSERT_TRUE(custom.ok());
  EXPECT_EQ(TypeOf(custom, 0), AttrType::kCategorical);  // "NA" is a value
}

TEST(CsvInferTest, HeaderOnlyAndEmptyInputs) {
  const Result<Schema> header_only = ExpectMatchesOracle("a,b,c\n");
  ASSERT_TRUE(header_only.ok()) << header_only.status().ToString();
  ASSERT_EQ(header_only->num_attributes(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(TypeOf(header_only, i), AttrType::kCategorical);
  }
  ExpectMatchesOracle("a,b,c");    // no newline at all
  ExpectMatchesOracle(" a , b\r");  // trimmed names, CR-terminated

  const Result<Schema> empty = ExpectMatchesOracle("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kIOError);
  EXPECT_EQ(empty.status().message(), "CSV input is empty (no header)");
  ExpectMatchesOracle("\n");    // a header with one unnamed column
  ExpectMatchesOracle("\n\n1\n");
}

TEST(CsvInferTest, RaggedRowAfterEveryColumnSettled) {
  // Every column is categorical after the first row; the ragged row near
  // the end must still be found.
  std::string content = "a,b\n";
  for (int i = 0; i < 200; ++i) content += "x" + std::to_string(i) + ",y\n";
  content += "p,q,r\n";
  content += "1,2\n";
  const Result<Schema> schema = ExpectMatchesOracle(content);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.status().message(), "ragged CSV row during inference");
  ExpectMatchesOracle("a,b\nx,y\nz\n");          // too few cells
  ExpectMatchesOracle("a,b\nx,y\n\"z\",w,v\n");  // quoted, too many
  ExpectMatchesOracle("a,b\nx,y\nz,w,v");        // unterminated last line
}

TEST(CsvInferTest, UnterminatedQuoteAtEndOfInput) {
  const Result<Schema> body = ExpectMatchesOracle("a,b\n1,2\n3,\"4\n5,6\n");
  ASSERT_FALSE(body.ok());
  EXPECT_EQ(body.status().code(), StatusCode::kIOError);
  EXPECT_EQ(body.status().message(), "unterminated quote in CSV body");
  // An extra cell before the open quote: the quote still decides.
  ExpectMatchesOracle("a,b\n1,2\n3,4,5\"\n6,7\n");
  ExpectMatchesOracle("a,b\n1,2\r\n3,\"4\r");

  const Result<Schema> header = ExpectMatchesOracle("a,\"b\n1,2\n");
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kIOError);
  EXPECT_EQ(header.status().message(), "unterminated quote in CSV header");
}

TEST(CsvInferTest, OtherDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  const Result<Schema> schema =
      ExpectMatchesOracle("a;b\n1,5;x\n\"2;3\";4\n7;8\n", options);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(TypeOf(schema, 0), AttrType::kCategorical);
  EXPECT_EQ(TypeOf(schema, 1), AttrType::kCategorical);
}

TEST(CsvInferTest, MissingFileIsIOError) {
  const Result<Schema> schema = InferCsvSchema("/nonexistent/infer.csv");
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kIOError);
  EXPECT_EQ(schema.status().message(),
            "cannot open '/nonexistent/infer.csv' for reading");
}

}  // namespace
}  // namespace faircap
