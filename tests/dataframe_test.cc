#include "dataframe/dataframe.h"

#include <gtest/gtest.h>

#include <cmath>

namespace faircap {
namespace {

DataFrame SmallFrame() {
  auto schema = Schema::Create({
      {"city", AttrType::kCategorical, AttrRole::kImmutable},
      {"job", AttrType::kCategorical, AttrRole::kMutable},
      {"income", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  EXPECT_TRUE(df.AppendRow({Value("nyc"), Value("dev"), Value(100.0)}).ok());
  EXPECT_TRUE(df.AppendRow({Value("sf"), Value("dev"), Value(150.0)}).ok());
  EXPECT_TRUE(df.AppendRow({Value("nyc"), Value("qa"), Value(80.0)}).ok());
  EXPECT_TRUE(
      df.AppendRow({Value("sf"), Value::Null(), Value::Null()}).ok());
  return df;
}

TEST(DataFrameTest, BasicShapeAndAccess) {
  const DataFrame df = SmallFrame();
  EXPECT_EQ(df.num_rows(), 4u);
  EXPECT_EQ(df.num_columns(), 3u);
  EXPECT_EQ(df.GetValue(0, 0), Value("nyc"));
  EXPECT_EQ(df.GetValue(1, 2), Value(150.0));
  EXPECT_TRUE(df.GetValue(3, 1).is_null());
}

TEST(DataFrameTest, ColumnByName) {
  const DataFrame df = SmallFrame();
  const auto col = df.ColumnByName("income");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->type(), AttrType::kNumeric);
  EXPECT_FALSE(df.ColumnByName("bogus").ok());
}

TEST(DataFrameTest, AppendRowRejectsArityMismatch) {
  DataFrame df = SmallFrame();
  EXPECT_EQ(df.AppendRow({Value("x")}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(df.num_rows(), 4u);
}

TEST(DataFrameTest, AppendRowRejectsTypeMismatchWithoutPartialWrite) {
  DataFrame df = SmallFrame();
  // Second cell bad: no column may grow.
  EXPECT_FALSE(df.AppendRow({Value("la"), Value(3.0), Value(1.0)}).ok());
  EXPECT_EQ(df.num_rows(), 4u);
  for (size_t c = 0; c < df.num_columns(); ++c) {
    EXPECT_EQ(df.column(c).size(), 4u);
  }
}

TEST(DataFrameTest, CategoricalDictionaryEncoding) {
  const DataFrame df = SmallFrame();
  const Column& city = df.column(0);
  EXPECT_EQ(city.num_categories(), 2u);
  EXPECT_EQ(city.code(0), city.code(2));  // both nyc
  EXPECT_NE(city.code(0), city.code(1));
  EXPECT_EQ(city.CategoryName(city.code(1)), "sf");
  EXPECT_FALSE(city.CodeOf("tokyo").ok());
}

TEST(DataFrameTest, NullHandling) {
  const DataFrame df = SmallFrame();
  EXPECT_TRUE(df.column(1).IsNull(3));
  EXPECT_TRUE(df.column(2).IsNull(3));
  EXPECT_FALSE(df.column(0).IsNull(3));
}

TEST(DataFrameTest, MeanSkipsNulls) {
  const DataFrame df = SmallFrame();
  EXPECT_DOUBLE_EQ(df.Mean(2), (100.0 + 150.0 + 80.0) / 3.0);
}

TEST(DataFrameTest, MeanOverMask) {
  const DataFrame df = SmallFrame();
  Bitmap mask(df.num_rows());
  mask.Set(0);
  mask.Set(2);
  EXPECT_DOUBLE_EQ(df.Mean(2, mask), 90.0);
}

TEST(DataFrameTest, MeanOfEmptySelectionIsNaN) {
  const DataFrame df = SmallFrame();
  Bitmap mask(df.num_rows());
  EXPECT_TRUE(std::isnan(df.Mean(2, mask)));
}

TEST(DataFrameTest, TakePreservesSchemaAndDictionary) {
  const DataFrame df = SmallFrame();
  Bitmap mask(df.num_rows());
  mask.Set(1);
  mask.Set(3);
  const DataFrame sub = df.Take(mask);
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.GetValue(0, 0), Value("sf"));
  EXPECT_TRUE(sub.GetValue(1, 2).is_null());
  // Dictionary survives: codes of "nyc" still resolvable even if unused.
  EXPECT_TRUE(sub.column(0).CodeOf("nyc").ok());
}

TEST(DataFrameTest, SampleFraction) {
  const DataFrame df = SmallFrame();
  Rng rng(5);
  const DataFrame half = df.SampleFraction(0.5, &rng);
  EXPECT_EQ(half.num_rows(), 2u);
  const DataFrame all = df.SampleFraction(1.0, &rng);
  EXPECT_EQ(all.num_rows(), 4u);
  const DataFrame none = df.SampleFraction(0.0, &rng);
  EXPECT_EQ(none.num_rows(), 0u);
}

// Checked in every build type: in Release these read out of bounds.
TEST(DataFrameDeathTest, SampleFractionRejectsFractionOutsideUnitRange) {
  const DataFrame df = SmallFrame();
  Rng rng(5);
  EXPECT_DEATH((void)df.SampleFraction(1.5, &rng), "fraction");
  EXPECT_DEATH((void)df.SampleFraction(-0.1, &rng), "fraction");
  EXPECT_DEATH((void)df.SampleFraction(std::nan(""), &rng), "fraction");
}

TEST(DataFrameDeathTest, MeanRejectsBadColumnOrMask) {
  const DataFrame df = SmallFrame();
  EXPECT_DEATH((void)df.Mean(3, df.AllRows()), "col < columns_.size");
  EXPECT_DEATH((void)df.Mean(0, df.AllRows()), "kNumeric");
  EXPECT_DEATH((void)df.Mean(2, Bitmap(3, /*value=*/true)), "num_rows_");
  EXPECT_DEATH((void)df.Mean(2, Bitmap(5, /*value=*/true)), "num_rows_");
}

TEST(DataFrameTest, SetRoleRebuildsSchema) {
  DataFrame df = SmallFrame();
  ASSERT_TRUE(df.SetRole("job", AttrRole::kIgnored).ok());
  EXPECT_EQ(df.schema().attribute(1).role, AttrRole::kIgnored);
  // Cannot demote outcome to a second outcome elsewhere.
  EXPECT_FALSE(df.SetRole("city", AttrRole::kOutcome).ok());
}

TEST(DataFrameTest, AllRowsMask) {
  const DataFrame df = SmallFrame();
  EXPECT_EQ(df.AllRows().Count(), df.num_rows());
}

TEST(DataFrameTest, AppendFrameConcatenatesAndBumpsGeneration) {
  DataFrame df = SmallFrame();
  const DataFrame delta = SmallFrame();
  const uint64_t gen_before = df.generation();
  ASSERT_TRUE(df.AppendFrame(delta).ok());
  EXPECT_EQ(df.num_rows(), 8u);
  EXPECT_GT(df.generation(), gen_before);
  // Appended rows read back exactly, nulls included.
  EXPECT_EQ(df.GetValue(4, 0), Value("nyc"));
  EXPECT_EQ(df.GetValue(5, 2), Value(150.0));
  EXPECT_TRUE(df.GetValue(7, 1).is_null());
  // Resident rows are untouched.
  EXPECT_EQ(df.GetValue(0, 0), Value("nyc"));
  EXPECT_EQ(df.GetValue(2, 1), Value("qa"));
}

TEST(DataFrameTest, AppendFrameMergesDictionariesInFirstAppearanceOrder) {
  DataFrame df = SmallFrame();  // city dictionary: {nyc, sf}
  auto schema = Schema::Create({
      {"city", AttrType::kCategorical, AttrRole::kImmutable},
      {"job", AttrType::kCategorical, AttrRole::kMutable},
      {"income", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame delta = DataFrame::Create(std::move(schema).ValueOrDie());
  // The delta's own dictionary leads with categories the resident table
  // has never seen, in a different order than the resident dictionary.
  ASSERT_TRUE(
      delta.AppendRow({Value("tokyo"), Value("qa"), Value(90.0)}).ok());
  ASSERT_TRUE(delta.AppendRow({Value("sf"), Value("ops"), Value(95.0)}).ok());
  ASSERT_TRUE(
      delta.AppendRow({Value("lisbon"), Value("dev"), Value(85.0)}).ok());
  ASSERT_TRUE(df.AppendFrame(delta).ok());
  // New categories intern after the resident ones, in first-appearance
  // order — exactly the codes a cold parse of the concatenation assigns.
  const Column& city = df.column(0);
  ASSERT_EQ(city.num_categories(), 4u);
  EXPECT_EQ(city.CategoryName(0), "nyc");
  EXPECT_EQ(city.CategoryName(1), "sf");
  EXPECT_EQ(city.CategoryName(2), "tokyo");
  EXPECT_EQ(city.CategoryName(3), "lisbon");
  EXPECT_EQ(df.GetValue(4, 0), Value("tokyo"));
  EXPECT_EQ(df.GetValue(5, 0), Value("sf"));
  EXPECT_EQ(df.GetValue(6, 0), Value("lisbon"));
  EXPECT_EQ(df.GetValue(5, 1), Value("ops"));
}

TEST(DataFrameTest, AppendFrameRejectsSchemaMismatch) {
  DataFrame df = SmallFrame();
  auto wrong_arity = Schema::Create({
      {"city", AttrType::kCategorical, AttrRole::kImmutable},
      {"income", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame delta1 = DataFrame::Create(std::move(wrong_arity).ValueOrDie());
  EXPECT_EQ(df.AppendFrame(delta1).code(), StatusCode::kInvalidArgument);
  auto wrong_type = Schema::Create({
      {"city", AttrType::kNumeric, AttrRole::kImmutable},
      {"job", AttrType::kCategorical, AttrRole::kMutable},
      {"income", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame delta2 = DataFrame::Create(std::move(wrong_type).ValueOrDie());
  EXPECT_EQ(df.AppendFrame(delta2).code(), StatusCode::kInvalidArgument);
  auto wrong_name = Schema::Create({
      {"town", AttrType::kCategorical, AttrRole::kImmutable},
      {"job", AttrType::kCategorical, AttrRole::kMutable},
      {"income", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame delta3 = DataFrame::Create(std::move(wrong_name).ValueOrDie());
  EXPECT_EQ(df.AppendFrame(delta3).code(), StatusCode::kInvalidArgument);
  // Failed appends leave the table untouched.
  EXPECT_EQ(df.num_rows(), 4u);
}

TEST(DataFrameTest, AppendFrameMatchesRowByRowReplay) {
  // AppendFrame(delta) must produce the exact table that appending the
  // delta's rows one by one would — same codes, same nulls, same values.
  DataFrame by_frame = SmallFrame();
  DataFrame by_row = SmallFrame();
  auto schema = Schema::Create({
      {"city", AttrType::kCategorical, AttrRole::kImmutable},
      {"job", AttrType::kCategorical, AttrRole::kMutable},
      {"income", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame delta = DataFrame::Create(std::move(schema).ValueOrDie());
  const std::vector<std::vector<Value>> rows = {
      {Value("sf"), Value("ops"), Value(70.0)},
      {Value("berlin"), Value::Null(), Value(60.0)},
      {Value::Null(), Value("dev"), Value::Null()},
  };
  for (const auto& row : rows) {
    ASSERT_TRUE(delta.AppendRow(row).ok());
    ASSERT_TRUE(by_row.AppendRow(row).ok());
  }
  ASSERT_TRUE(by_frame.AppendFrame(delta).ok());
  ASSERT_EQ(by_frame.num_rows(), by_row.num_rows());
  for (size_t r = 0; r < by_frame.num_rows(); ++r) {
    for (size_t c = 0; c < by_frame.num_columns(); ++c) {
      EXPECT_EQ(by_frame.GetValue(r, c), by_row.GetValue(r, c))
          << "row " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace faircap
