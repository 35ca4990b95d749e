// Pins ConfounderPartition's cell interning against the legacy
// string-keyed interner (tests/reference/legacy_partition.h), element for
// element: the per-row cell ids and valid-row bitmap, every cell's
// stratum id, the one-hot CSR and the stratum order. Cell numbering is
// what every accumulation slot, assembly order and FP add hangs off, so
// equality here is what keeps rulesets bit-identical.

#include "causal/cate_stats_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "causal/estimator.h"
#include "data/german.h"
#include "data/stackoverflow.h"
#include "reference/legacy_estimator.h"
#include "reference/legacy_partition.h"
#include "util/random.h"

namespace faircap {
namespace {

LegacyCells CellsOf(const ConfounderPartition& part) {
  LegacyCells out;
  out.cell_of_row = part.cell_of_row();
  out.outcome_valid = part.outcome_valid();
  for (const ConfounderPartition::Cell& cell : part.cells()) {
    out.stratum_id.push_back(cell.stratum_id);
  }
  out.onehot_begin = part.onehot_begin();
  out.onehot_ids = part.onehot_ids();
  out.cells_by_stratum = part.cells_by_stratum();
  return out;
}

void ExpectSameCells(const LegacyCells& got, const LegacyCells& want,
                     const std::string& label) {
  EXPECT_EQ(got.cell_of_row, want.cell_of_row) << label;
  EXPECT_TRUE(got.outcome_valid == want.outcome_valid) << label;
  EXPECT_EQ(got.stratum_id, want.stratum_id) << label;
  EXPECT_EQ(got.onehot_begin, want.onehot_begin) << label;
  EXPECT_EQ(got.onehot_ids, want.onehot_ids) << label;
  EXPECT_EQ(got.cells_by_stratum, want.cells_by_stratum) << label;
}

// The distinct adjustment sets the estimator picks for one- and
// two-attribute treatments over the mutable categorical attributes, plus
// the set of every immutable attribute (wider than any backdoor set).
std::vector<std::vector<size_t>> AdjustmentSets(const CateEstimator& est) {
  const DataFrame& df = est.data();
  std::vector<size_t> mutables;
  for (size_t attr : df.schema().IndicesWithRole(AttrRole::kMutable)) {
    const Column& col = df.column(attr);
    if (col.type() == AttrType::kCategorical && col.num_categories() > 0) {
      mutables.push_back(attr);
    }
  }
  const auto first_level = [&](size_t attr) {
    return Predicate(attr, CompareOp::kEq,
                     Value(df.column(attr).CategoryName(0)));
  };
  std::vector<std::vector<size_t>> sets;
  const auto add = [&](const Pattern& treatment) {
    const auto adjustment = est.AdjustmentAttrs(treatment);
    if (!adjustment.ok()) return;
    if (std::find(sets.begin(), sets.end(), *adjustment) == sets.end()) {
      sets.push_back(*adjustment);
    }
  };
  for (size_t i = 0; i < mutables.size(); ++i) {
    add(Pattern({first_level(mutables[i])}));
    for (size_t j = i + 1; j < mutables.size(); ++j) {
      add(Pattern({first_level(mutables[i]), first_level(mutables[j])}));
    }
  }
  sets.push_back(df.schema().IndicesWithRole(AttrRole::kImmutable));
  return sets;
}

void ExpectBuildsMatchOracle(const CateEstimator& est,
                             const std::string& label) {
  const std::vector<std::vector<size_t>> sets = AdjustmentSets(est);
  ASSERT_GT(sets.size(), 1u) << label;
  for (size_t i = 0; i < sets.size(); ++i) {
    const auto part = ConfounderPartition::Build(
        est.data(), est.outcome_attr(), sets[i], est.options());
    ExpectSameCells(CellsOf(*part),
                    LegacyInternCells(est.data(), est.outcome_attr(), sets[i],
                                      est.options()),
                    label + "/set" + std::to_string(i));
  }
}

TEST(ConfounderPartitionOracleTest, GermanMatchesLegacyInterner) {
  const auto data = MakeGerman();
  ASSERT_TRUE(data.ok());
  const auto est = CateEstimator::Create(&data->df, &data->dag);
  ASSERT_TRUE(est.ok());
  ExpectBuildsMatchOracle(*est, "german");
}

TEST(ConfounderPartitionOracleTest, StackOverflow5kMatchesLegacyInterner) {
  StackOverflowConfig config;
  config.num_rows = 5000;
  const auto data = MakeStackOverflow(config);
  ASSERT_TRUE(data.ok());
  const auto est = CateEstimator::Create(&data->df, &data->dag);
  ASSERT_TRUE(est.ok());
  ExpectBuildsMatchOracle(*est, "stackoverflow_5k");
}

TEST(ConfounderPartitionOracleTest, NullConfoundersAndOutcomesMatchLegacy) {
  // Null categorical codes, NaN numeric values and null outcomes, over
  // more rows than one interning block.
  auto schema = Schema::Create({
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zd", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zn", AttrType::kNumeric, AttrRole::kImmutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(91);
  const char* c_levels[] = {"a", "b", "c"};
  const char* d_levels[] = {"p", "q", "r", "s", "t"};
  for (size_t i = 0; i < 5000; ++i) {
    const Value zc = rng.NextBernoulli(0.1)
                         ? Value::Null()
                         : Value(c_levels[rng.NextBounded(3)]);
    const Value zd = rng.NextBernoulli(0.05)
                         ? Value::Null()
                         : Value(d_levels[rng.NextBounded(5)]);
    const Value zn = rng.NextBernoulli(0.1)
                         ? Value::Null()
                         : Value(rng.NextGaussian(0.0, 3.0));
    const Value o = rng.NextBernoulli(0.1) ? Value::Null()
                                           : Value(rng.NextGaussian(5.0, 1.0));
    ASSERT_TRUE(df.AppendRow({zc, zd, zn, o}).ok());
  }
  const std::vector<std::vector<size_t>> sets = {
      {}, {0}, {2}, {0, 1}, {2, 0}, {0, 1, 2}};
  for (const size_t bins : {1, 4, 16}) {
    CateOptions options;
    options.numeric_confounder_bins = bins;
    for (size_t i = 0; i < sets.size(); ++i) {
      const auto part = ConfounderPartition::Build(df, 3, sets[i], options);
      ExpectSameCells(CellsOf(*part),
                      LegacyInternCells(df, 3, sets[i], options),
                      "bins" + std::to_string(bins) + "/set" +
                          std::to_string(i));
    }
  }
}

TEST(ConfounderPartitionOracleTest, ExtendInPlaceMatchesColdBuild) {
  GermanConfig config;
  config.num_rows = 3000;
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  const DataFrame& full = data->df;
  const auto est = CateEstimator::Create(&full, &data->dag);
  ASSERT_TRUE(est.ok());
  std::vector<std::vector<size_t>> sets;
  for (const std::vector<size_t>& set : AdjustmentSets(*est)) {
    // Numeric confounders are never extendable (their edges move).
    const bool categorical = std::all_of(set.begin(), set.end(), [&](size_t a) {
      return full.column(a).type() == AttrType::kCategorical;
    });
    if (categorical) sets.push_back(set);
  }
  ASSERT_FALSE(sets.empty());

  // A 40-row base, then three uneven appends; the first delta crosses an
  // interning block boundary and interns cells the base never saw.
  const uint32_t cuts[] = {40, 2500, 2900, 3000};
  const auto rows = [](uint32_t begin, uint32_t end) {
    std::vector<uint32_t> out(end - begin);
    std::iota(out.begin(), out.end(), begin);
    return out;
  };
  DataFrame df = full.TakeRows(rows(0, cuts[0]));
  std::vector<std::shared_ptr<const ConfounderPartition>> parts;
  std::vector<uint64_t> lineages;
  parts.reserve(sets.size());
  lineages.reserve(sets.size());
  for (const std::vector<size_t>& set : sets) {
    parts.push_back(ConfounderPartition::Build(df, est->outcome_attr(), set,
                                               est->options()));
    lineages.push_back(parts.back()->lineage_id());
  }
  for (size_t step = 1; step < 4; ++step) {
    ASSERT_TRUE(df.AppendFrame(full.TakeRows(rows(cuts[step - 1], cuts[step])))
                    .ok());
    for (const auto& part : parts) {
      ASSERT_TRUE(const_cast<ConfounderPartition*>(part.get())
                      ->ExtendInPlace(df));
    }
  }
  for (size_t i = 0; i < sets.size(); ++i) {
    const std::string label = "set" + std::to_string(i);
    EXPECT_EQ(parts[i]->lineage_id(), lineages[i]) << label;
    EXPECT_EQ(parts[i]->rows_covered(), full.num_rows()) << label;
    const auto cold = ConfounderPartition::Build(df, est->outcome_attr(),
                                                 sets[i], est->options());
    ExpectSameCells(CellsOf(*parts[i]), CellsOf(*cold), label + "/cold");
    ExpectSameCells(CellsOf(*parts[i]),
                    LegacyInternCells(df, est->outcome_attr(), sets[i],
                                      est->options()),
                    label + "/legacy");
  }
}

// Twenty-two ten-category confounders: the mixed-radix stratum id would
// need 11^22 > 2^63, so the partition must intern a prefix of the key
// instead of overflowing it.
struct WideData {
  DataFrame df;
  CausalDag dag;
};

WideData MakeWideData(size_t n, size_t num_confounders, uint64_t seed) {
  std::vector<AttributeSpec> specs;
  std::vector<std::string> nodes;
  std::vector<std::pair<std::string, std::string>> edges;
  specs.reserve(num_confounders + 2);
  nodes.reserve(num_confounders + 2);
  edges.reserve(2 * num_confounders + 1);
  for (size_t a = 0; a < num_confounders; ++a) {
    const std::string name = "Z" + std::to_string(a);
    specs.push_back({name, AttrType::kCategorical, AttrRole::kImmutable});
    nodes.push_back(name);
    edges.push_back({name, "T"});
    edges.push_back({name, "O"});
  }
  specs.push_back({"T", AttrType::kCategorical, AttrRole::kMutable});
  specs.push_back({"O", AttrType::kNumeric, AttrRole::kOutcome});
  nodes.push_back("T");
  nodes.push_back("O");
  edges.push_back({"T", "O"});
  DataFrame df = DataFrame::Create(Schema::Create(specs).ValueOrDie());
  Rng rng(seed);
  const char* levels[] = {"l0", "l1", "l2", "l3", "l4",
                          "l5", "l6", "l7", "l8", "l9"};
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> row;
    row.reserve(num_confounders + 2);
    double signal = 0.0;
    for (size_t a = 0; a < num_confounders; ++a) {
      const size_t code = rng.NextBounded(10);
      signal += static_cast<double>(code % 3);
      row.push_back(rng.NextBernoulli(0.02) ? Value::Null()
                                            : Value(levels[code]));
    }
    const bool t = rng.NextBernoulli(signal > 22.0 ? 0.6 : 0.4);
    row.push_back(Value(t ? "yes" : "no"));
    row.push_back(
        Value(signal + (t ? 2.0 : 0.0) + rng.NextGaussian(0.0, 1.0)));
    EXPECT_TRUE(df.AppendRow(row).ok());
  }
  CausalDag dag = CausalDag::Create(nodes, edges).ValueOrDie();
  return {std::move(df), std::move(dag)};
}

TEST(ConfounderPartitionOracleTest, WideAdjustmentSetDoesNotOverflow) {
  const WideData data = MakeWideData(3000, 22, 93);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern treatment({Predicate(t, CompareOp::kEq, Value("yes"))});
  const auto adjustment = est->AdjustmentAttrs(treatment);
  ASSERT_TRUE(adjustment.ok());
  ASSERT_EQ(adjustment->size(), 22u);

  const auto part = ConfounderPartition::Build(
      data.df, est->outcome_attr(), *adjustment, est->options());
  ExpectSameCells(CellsOf(*part),
                  LegacyInternCells(data.df, est->outcome_attr(), *adjustment,
                                    est->options()),
                  "wide");
  // Nearly every row is its own cell; the strata still come out in
  // digit-tuple order, numbered by rank.
  ASSERT_GT(part->cells_by_stratum().size(), 1000u);
  for (size_t rank = 0; rank < part->cells_by_stratum().size(); ++rank) {
    EXPECT_EQ(part->cells()[part->cells_by_stratum()[rank]].stratum_id,
              static_cast<int64_t>(rank));
  }

  // Regression reads the one-hot layout only: it must match the
  // reference estimator on the full table.
  const auto batch = est->EstimateSubgroups(treatment, data.df.AllRows(),
                                            nullptr, /*min_subgroup=*/5);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const Result<CateEstimate> reference =
      ReferenceEstimate(*est, treatment, data.df.AllRows());
  ASSERT_TRUE(batch->overall.ok()) << batch->overall.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(batch->overall->n_treated, reference->n_treated);
  EXPECT_EQ(batch->overall->n_control, reference->n_control);
  EXPECT_NEAR(batch->overall->cate, reference->cate,
              1e-9 * std::max(1.0, std::abs(reference->cate)));
  EXPECT_NEAR(batch->overall->std_error, reference->std_error,
              1e-6 * std::max(1.0, reference->std_error));
}

}  // namespace
}  // namespace faircap
