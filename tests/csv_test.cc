// CSV reading and writing through the production entry points: the
// streaming reader (StreamCsvFromString, StreamCsv, StreamCsvInferSchema)
// for quoting, CRLF, nulls, and every rejection, and WriteCsv round trips.

#include "dataframe/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "ingest/chunked_csv_reader.h"

namespace faircap {
namespace {

Schema TestSchema() {
  return Schema::Create({
                            {"name", AttrType::kCategorical,
                             AttrRole::kImmutable},
                            {"score", AttrType::kNumeric, AttrRole::kOutcome},
                        })
      .ValueOrDie();
}

// Loads `content` from a file with schema inference.
Result<DataFrame> ParseInferred(const std::string& content) {
  const std::string path = testing::TempDir() + "/faircap_csv_infer.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << content;
  }
  Result<DataFrame> df = StreamCsvInferSchema(path);
  std::remove(path.c_str());
  return df;
}

TEST(CsvTest, ParseBasic) {
  const auto df =
      StreamCsvFromString("name,score\nalice,1.5\nbob,2\n", TestSchema());
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  EXPECT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->GetValue(0, 0), Value("alice"));
  EXPECT_EQ(df->GetValue(1, 1), Value(2.0));
}

TEST(CsvTest, ParseQuotedFieldsAndEscapes) {
  const auto df = StreamCsvFromString(
      "name,score\n\"smith, john\",1\n\"say \"\"hi\"\"\",2\n", TestSchema());
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  EXPECT_EQ(df->GetValue(0, 0), Value("smith, john"));
  EXPECT_EQ(df->GetValue(1, 0), Value("say \"hi\""));
}

TEST(CsvTest, NullTokensAndEmptyCells) {
  const auto df =
      StreamCsvFromString("name,score\nNA,\nalice,3\n", TestSchema());
  ASSERT_TRUE(df.ok());
  EXPECT_TRUE(df->GetValue(0, 0).is_null());
  EXPECT_TRUE(df->GetValue(0, 1).is_null());
}

TEST(CsvTest, CrlfTolerated) {
  const auto df =
      StreamCsvFromString("name,score\r\nalice,1\r\n", TestSchema());
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->num_rows(), 1u);
  EXPECT_EQ(df->GetValue(0, 0), Value("alice"));
}

TEST(CsvTest, QuotedFieldMayContainRecordSeparators) {
  // A quoted field legally contains the delimiter, embedded newlines, and
  // CRLF sequences; only the terminating CR of the line ending is
  // stripped.
  const auto df = StreamCsvFromString(
      "name,score\n\"line1\nline2\",1\r\n\"a,b\r\nc\",2\r\n", TestSchema());
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  ASSERT_EQ(df->num_rows(), 2u);
  EXPECT_EQ(df->GetValue(0, 0), Value("line1\nline2"));
  EXPECT_EQ(df->GetValue(1, 0), Value("a,b\r\nc"));
}

TEST(CsvTest, TrailingEmptyColumnIsNull) {
  const auto df =
      StreamCsvFromString("name,score\nalice,\nbob,\r\n", TestSchema());
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  ASSERT_EQ(df->num_rows(), 2u);
  EXPECT_TRUE(df->GetValue(0, 1).is_null());
  EXPECT_TRUE(df->GetValue(1, 1).is_null());  // CRLF after the empty cell
}

TEST(CsvTest, CrOnlyBlankLineSkipped) {
  const auto df =
      StreamCsvFromString("name,score\r\n\r\nalice,1\r\n", TestSchema());
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  EXPECT_EQ(df->num_rows(), 1u);
}

TEST(CsvTest, UnterminatedQuoteAcrossLinesRejected) {
  const auto df =
      StreamCsvFromString("name,score\n\"open\nnever,1\n", TestSchema());
  EXPECT_EQ(df.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, HeaderMismatchRejected) {
  const auto df = StreamCsvFromString("wrong,score\nalice,1\n", TestSchema());
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, RaggedRowRejected) {
  const auto df = StreamCsvFromString("name,score\nalice\n", TestSchema());
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, NonNumericCellRejected) {
  const auto df = StreamCsvFromString("name,score\nalice,abc\n", TestSchema());
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
}

TEST(CsvTest, NonNumericCellMessageNamesItsRecord) {
  // The bad cell is not its record's last: the message still counts the
  // record it sits in (the header is record 1).
  const Schema schema =
      Schema::Create({
                         {"score", AttrType::kNumeric, AttrRole::kOutcome},
                         {"name", AttrType::kCategorical,
                          AttrRole::kImmutable},
                     })
          .ValueOrDie();
  const auto df = StreamCsvFromString("score,name\n1,a\nabc,b\n", schema);
  EXPECT_EQ(df.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(df.status().message(),
            "cell 'abc' at record 3 is not numeric (attribute 'score')");
}

TEST(CsvTest, DanglingQuoteRejected) {
  const auto df = StreamCsvFromString("name,score\n\"alice,1\n", TestSchema());
  EXPECT_EQ(df.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, EmptyInputRejected) {
  const auto df = StreamCsvFromString("", TestSchema());
  EXPECT_EQ(df.status().code(), StatusCode::kIOError);
}

TEST(CsvTest, SchemaInference) {
  const auto df = ParseInferred(
      "a,b,c\nx,1,2.5\ny,2,NA\nz,3,7\n");
  ASSERT_TRUE(df.ok()) << df.status().ToString();
  EXPECT_EQ(df->schema().attribute(0).type, AttrType::kCategorical);
  EXPECT_EQ(df->schema().attribute(1).type, AttrType::kNumeric);
  EXPECT_EQ(df->schema().attribute(2).type, AttrType::kNumeric);
  EXPECT_TRUE(df->GetValue(1, 2).is_null());
}

TEST(CsvTest, InferenceMixedColumnFallsBackToCategorical) {
  const auto df = ParseInferred("a\n1\nx\n");
  ASSERT_TRUE(df.ok());
  EXPECT_EQ(df->schema().attribute(0).type, AttrType::kCategorical);
}

TEST(CsvTest, WriteReadRoundTrip) {
  DataFrame df = DataFrame::Create(TestSchema());
  ASSERT_TRUE(df.AppendRow({Value("has,comma"), Value(1.5)}).ok());
  ASSERT_TRUE(df.AppendRow({Value::Null(), Value(2.0)}).ok());

  const std::string path = testing::TempDir() + "/faircap_csv_test.csv";
  ASSERT_TRUE(WriteCsv(df, path).ok());
  const auto loaded = StreamCsv(path, TestSchema());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->GetValue(0, 0), Value("has,comma"));
  EXPECT_TRUE(loaded->GetValue(1, 0).is_null());
  EXPECT_EQ(loaded->GetValue(1, 1), Value(2.0));
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileIsIOError) {
  const auto df = StreamCsv("/nonexistent/path.csv", TestSchema());
  EXPECT_EQ(df.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace faircap
