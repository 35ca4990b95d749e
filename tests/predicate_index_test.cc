// PredicateIndex engine tests: the index-backed Predicate/Pattern
// evaluation must be bit-identical to the naive per-row scan on randomized
// dataframes (the property the whole shared-engine refactor rests on),
// masks must be memoized (stable references, cache hits), and any row
// mutation must invalidate the cache.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "dataframe/predicate_index.h"
#include "mining/pattern.h"
#include "util/obs/metrics.h"
#include "util/random.h"

namespace faircap {
namespace {

// Randomized table: a few categorical columns (varying cardinality), a few
// numeric ones, nulls sprinkled into both.
DataFrame RandomFrame(Rng* rng, size_t num_rows) {
  auto schema = Schema::Create({
      {"c0", AttrType::kCategorical, AttrRole::kImmutable},
      {"c1", AttrType::kCategorical, AttrRole::kImmutable},
      {"c2", AttrType::kCategorical, AttrRole::kMutable},
      {"n0", AttrType::kNumeric, AttrRole::kImmutable},
      {"n1", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  const std::vector<std::string> cats = {"a", "b", "c", "d", "e", "f"};
  for (size_t i = 0; i < num_rows; ++i) {
    auto cat = [&](size_t cardinality) {
      if (rng->NextBernoulli(0.05)) return Value::Null();
      return Value(cats[rng->NextBounded(cardinality)]);
    };
    auto num = [&] {
      if (rng->NextBernoulli(0.05)) return Value::Null();
      return Value(rng->NextUniform(-4.0, 4.0));
    };
    EXPECT_TRUE(df.AppendRow({cat(2), cat(4), cat(6), num(), num()}).ok());
  }
  return df;
}

// Random valid predicate: equality ops on categoricals (sometimes with a
// category no row carries), any op on numerics.
Predicate RandomPredicate(Rng* rng, const DataFrame& df) {
  const size_t attr = rng->NextBounded(df.num_columns());
  if (df.column(attr).type() == AttrType::kCategorical) {
    const CompareOp op =
        rng->NextBernoulli(0.5) ? CompareOp::kEq : CompareOp::kNe;
    const std::vector<std::string> pool = {"a", "b", "c", "d", "e", "f",
                                           "never-seen"};
    return Predicate(attr, op, Value(pool[rng->NextBounded(pool.size())]));
  }
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kGt, CompareOp::kLe, CompareOp::kGe};
  return Predicate(attr, ops[rng->NextBounded(6)],
                   Value(rng->NextUniform(-4.0, 4.0)));
}

class PredicateIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateIndexProperty, IndexedEvaluationMatchesNaiveScan) {
  Rng rng(GetParam());
  const DataFrame df = RandomFrame(&rng, 100 + rng.NextBounded(400));
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Predicate> preds;
    const size_t len = rng.NextBounded(4);  // 0..3, empty pattern included
    for (size_t i = 0; i < len; ++i) preds.push_back(RandomPredicate(&rng, df));
    const Pattern pattern(std::move(preds));

    const Bitmap indexed = pattern.Evaluate(df);
    const Bitmap naive = pattern.EvaluateNaive(df);
    ASSERT_EQ(indexed.size(), naive.size());
    EXPECT_TRUE(indexed == naive)
        << "mismatch for pattern: " << pattern.ToString(df.schema());

    for (const Predicate& p : pattern.predicates()) {
      EXPECT_TRUE(p.Evaluate(df) == p.EvaluateNaive(df))
          << "mismatch for predicate: " << p.ToString(df.schema());
    }
  }
}

TEST_P(PredicateIndexProperty, CachedMasksAreStableReferences) {
  Rng rng(GetParam() + 17);
  const DataFrame df = RandomFrame(&rng, 200);
  const Predicate p = RandomPredicate(&rng, df);
  const Bitmap& m1 = p.EvaluateCached(df);
  const Bitmap& m2 = p.EvaluateCached(df);
  EXPECT_EQ(&m1, &m2);

  const Pattern pattern({RandomPredicate(&rng, df), RandomPredicate(&rng, df)});
  const Bitmap& c1 = pattern.EvaluateCached(df);
  const Bitmap& c2 = pattern.EvaluateCached(df);
  EXPECT_EQ(&c1, &c2);

  const PredicateIndex::CacheStats stats = df.predicate_index().GetStats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.atom_masks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateIndexProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

TEST(PredicateIndexTest, RowMutationInvalidatesCache) {
  auto schema = Schema::Create({
      {"g", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  ASSERT_TRUE(df.AppendRow({Value("x"), Value(1.0)}).ok());
  const Predicate p(0, CompareOp::kEq, Value("x"));
  EXPECT_EQ(p.Evaluate(df).Count(), 1u);
  EXPECT_EQ(p.Evaluate(df).size(), 1u);

  ASSERT_TRUE(df.AppendRow({Value("x"), Value(2.0)}).ok());
  const Bitmap after = p.Evaluate(df);
  EXPECT_EQ(after.size(), 2u);  // stale 1-row mask would fail here
  EXPECT_EQ(after.Count(), 2u);
  EXPECT_TRUE(after == p.EvaluateNaive(df));
}

TEST(PredicateIndexTest, CopiedFrameGetsIndependentIndex) {
  auto schema = Schema::Create({
      {"g", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  ASSERT_TRUE(df.AppendRow({Value("x"), Value(1.0)}).ok());
  const Predicate p(0, CompareOp::kEq, Value("x"));
  const Bitmap& original_mask = p.EvaluateCached(df);

  DataFrame copy = df;
  ASSERT_TRUE(copy.AppendRow({Value("y"), Value(2.0)}).ok());
  EXPECT_EQ(p.Evaluate(copy).Count(), 1u);
  EXPECT_EQ(p.Evaluate(copy).size(), 2u);
  // The original's cache is untouched by the copy's mutation.
  EXPECT_EQ(&p.EvaluateCached(df), &original_mask);
  EXPECT_EQ(original_mask.size(), 1u);
}

TEST(PredicateIndexTest, MemoryBudgetEvictsColdConjunctions) {
  Rng rng(91);
  const DataFrame df = RandomFrame(&rng, 512);
  PredicateIndex& index = df.predicate_index();
  // Budget of two conjunction masks (512 bits = 64 bytes each).
  index.SetMemoryBudget(2 * 64);

  // Create many distinct 2-atom conjunctions; the cache must stay within
  // budget and keep evicting the cold tail.
  std::vector<Pattern> patterns;
  for (int t = 0; t < 12; ++t) {
    Pattern p({RandomPredicate(&rng, df), RandomPredicate(&rng, df)});
    if (p.predicates().size() < 2) continue;  // degenerate duplicate atoms
    patterns.push_back(std::move(p));
    patterns.back().Evaluate(df);
  }
  ASSERT_GT(patterns.size(), 4u);

  const auto stats = index.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.conjunction_bytes, 2u * 64u);
  EXPECT_LE(stats.conjunction_masks, 2u);

  // Evicted conjunctions still evaluate correctly (recomposed from the
  // never-evicted atom masks).
  for (const Pattern& p : patterns) {
    EXPECT_TRUE(p.Evaluate(df) == p.EvaluateNaive(df))
        << p.ToString(df.schema());
  }
}

TEST(PredicateIndexTest, SharedMaskSurvivesEviction) {
  Rng rng(92);
  const DataFrame df = RandomFrame(&rng, 256);
  PredicateIndex& index = df.predicate_index();
  index.SetMemoryBudget(64);  // roughly one 256-bit mask

  Pattern held({Predicate(0, CompareOp::kEq, Value("a")),
                Predicate(3, CompareOp::kGt, Value(0.0))});
  const std::shared_ptr<const Bitmap> mask = held.EvaluateShared(df);
  const Bitmap expected = held.EvaluateNaive(df);
  ASSERT_TRUE(*mask == expected);

  // Flood the cache so the held conjunction is evicted.
  for (int t = 0; t < 10; ++t) {
    Pattern({RandomPredicate(&rng, df), RandomPredicate(&rng, df)})
        .Evaluate(df);
  }
  EXPECT_GT(index.GetStats().evictions, 0u);
  // The shared_ptr keeps the evicted mask alive and intact.
  EXPECT_TRUE(*mask == expected);
}

TEST(PredicateIndexTest, ShrinkingBudgetEvictsImmediately) {
  Rng rng(93);
  const DataFrame df = RandomFrame(&rng, 256);
  PredicateIndex& index = df.predicate_index();
  for (int t = 0; t < 8; ++t) {
    Pattern({RandomPredicate(&rng, df), RandomPredicate(&rng, df)})
        .Evaluate(df);
  }
  const auto before = index.GetStats();
  ASSERT_GT(before.conjunction_masks, 1u);
  index.SetMemoryBudget(1);  // smaller than any mask: keep only the MRU
  const auto after = index.GetStats();
  EXPECT_EQ(after.conjunction_masks, 1u);
  EXPECT_EQ(index.memory_budget(), 1u);
}

TEST(PredicateIndexTest, WarmStartedMasksServeHitsAndMatchScans) {
  auto schema = Schema::Create({
      {"g", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(7);
  const std::vector<std::string> cats = {"x", "y", "z"};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        df.AppendRow({Value(cats[rng.NextBounded(3)]), Value(1.0 * i)}).ok());
  }

  // Build the per-category masks externally (as ingest does) and install.
  // masks[i] must correspond to dictionary code i, not insertion order of
  // the test's category list.
  const Column& col = df.column(0);
  std::vector<Bitmap> masks;
  masks.reserve(col.num_categories());
  for (size_t code = 0; code < col.num_categories(); ++code) {
    masks.push_back(PredicateIndex::Scan(
        df, 0, CompareOp::kEq,
        Value(col.CategoryName(static_cast<int32_t>(code)))));
  }
  df.predicate_index().WarmStartCategoryMasks(df, 0, std::move(masks));

  const auto warm = df.predicate_index().GetStats();
  EXPECT_EQ(warm.warm_atom_masks, 3u);
  EXPECT_EQ(warm.atom_masks, 3u);
  EXPECT_EQ(warm.misses, 0u);

  for (const std::string& cat : cats) {
    const Predicate p(0, CompareOp::kEq, Value(cat));
    EXPECT_TRUE(p.Evaluate(df) == p.EvaluateNaive(df)) << cat;
  }
  const auto after = df.predicate_index().GetStats();
  EXPECT_EQ(after.misses, 0u);  // every category request was a warm hit
  EXPECT_GT(after.hits, 0u);
}

TEST(PredicateIndexTest, AtomTierEvictsLruLastAndRebuildsTransparently) {
  Rng rng(95);
  const DataFrame df = RandomFrame(&rng, 512);
  PredicateIndex& index = df.predicate_index();

  // Touch plenty of atoms and conjunctions with no budget.
  std::vector<Pattern> patterns;
  for (int t = 0; t < 16; ++t) {
    Pattern p({RandomPredicate(&rng, df), RandomPredicate(&rng, df)});
    patterns.push_back(p);
    p.Evaluate(df);
  }
  const auto before = index.GetStats();
  ASSERT_GT(before.atom_masks, 1u);
  ASSERT_GT(before.atom_bytes, 64u);

  // Budget below the atom working set: conjunctions must go first, then
  // atoms from the LRU tail (ids stay valid, masks rebuilt on demand).
  index.SetMemoryBudget(64);  // one 512-bit mask
  const auto squeezed = index.GetStats();
  EXPECT_GT(squeezed.atom_evictions, 0u);
  EXPECT_LE(squeezed.conjunction_masks, 1u);
  EXPECT_LE(squeezed.atom_bytes + squeezed.conjunction_bytes, 2u * 64u);

  // Every pattern still evaluates correctly through rescans/recompose.
  for (const Pattern& p : patterns) {
    EXPECT_TRUE(p.Evaluate(df) == p.EvaluateNaive(df))
        << p.ToString(df.schema());
  }
}

TEST(PredicateIndexTest, SharedAtomMaskSurvivesAtomEviction) {
  Rng rng(96);
  const DataFrame df = RandomFrame(&rng, 256);
  PredicateIndex& index = df.predicate_index();

  const Predicate held(0, CompareOp::kEq, Value("a"));
  const std::shared_ptr<const Bitmap> mask =
      index.AtomMaskShared(df, held.attr, held.op, held.value);
  const Bitmap expected = held.EvaluateNaive(df);
  ASSERT_TRUE(*mask == expected);

  // Squeeze the whole cache; the held atom is eventually LRU-tail.
  index.SetMemoryBudget(1);
  for (int t = 0; t < 12; ++t) {
    Pattern({RandomPredicate(&rng, df)}).Evaluate(df);
  }
  EXPECT_GT(index.GetStats().atom_evictions, 0u);
  // The shared_ptr keeps the evicted atom mask alive and intact, and a
  // re-request rebuilds an identical mask.
  EXPECT_TRUE(*mask == expected);
  EXPECT_TRUE(held.Evaluate(df) == expected);
}

TEST(PredicateIndexTest, ConjunctionKeysSurviveAtomEviction) {
  Rng rng(97);
  const DataFrame df = RandomFrame(&rng, 256);
  PredicateIndex& index = df.predicate_index();

  const Pattern pattern({Predicate(0, CompareOp::kEq, Value("a")),
                         Predicate(3, CompareOp::kGt, Value(0.0))});
  const Bitmap expected = pattern.EvaluateNaive(df);
  ASSERT_TRUE(pattern.Evaluate(df) == expected);

  // Evict the atoms (but not necessarily the conjunction): atom ids are
  // stable, so the cached conjunction still resolves under the same key
  // after its atoms were rebuilt.
  index.SetMemoryBudget(3 * 32);  // a few 256-bit masks
  for (int t = 0; t < 12; ++t) {
    Pattern({RandomPredicate(&rng, df)}).Evaluate(df);
  }
  ASSERT_GT(index.GetStats().atom_evictions, 0u);
  EXPECT_TRUE(pattern.Evaluate(df) == expected);
  EXPECT_TRUE(pattern.Evaluate(df) == expected);  // and again, via cache
}

TEST(PredicateIndexTest, WarmStartedAtomsAreBudgetAccounted) {
  auto schema = Schema::Create({
      {"g", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(98);
  const std::vector<std::string> cats = {"x", "y", "z"};
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        df.AppendRow({Value(cats[rng.NextBounded(3)]), Value(1.0 * i)}).ok());
  }
  const Column& col = df.column(0);
  df.predicate_index().WarmStartCategoryMasks(
      df, 0, PredicateIndex::BuildCategoryMasks(df, 0));
  const auto warm = df.predicate_index().GetStats();
  ASSERT_EQ(warm.warm_atom_masks, 3u);
  ASSERT_GT(warm.atom_bytes, 0u);
  (void)col;

  // Shrinking the budget below the warm set evicts warm atoms LRU-last
  // (they are just atoms to the tier) and keeps the cache consistent.
  df.predicate_index().SetMemoryBudget(warm.atom_bytes - 1);
  const auto after = df.predicate_index().GetStats();
  EXPECT_GT(after.atom_evictions, 0u);
  EXPECT_LT(after.atom_bytes, warm.atom_bytes);
  for (const std::string& cat : cats) {
    const Predicate p(0, CompareOp::kEq, Value(cat));
    EXPECT_TRUE(p.Evaluate(df) == p.EvaluateNaive(df)) << cat;
  }
}

// The word-batched categorical scan (kEq, kNe, and out-of-dictionary
// values — the cold paths that used to compare int32 codes row by row)
// must match a naive per-row loop bit for bit, including null exclusion
// and sizes that are not multiples of 64.
TEST(PredicateIndexTest, CategoricalScanMatchesNaivePerRowLoop) {
  Rng rng(77);
  auto schema = Schema::Create({
      {"c", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  const char* levels[] = {"a", "b", "c", "d", "e"};
  const size_t rows = 1000 + 37;  // exercise the partial tail word
  for (size_t i = 0; i < rows; ++i) {
    const bool null = rng.NextBernoulli(0.1);
    ASSERT_TRUE(df.AppendRow({null ? Value::Null()
                                   : Value(levels[rng.NextBounded(5)]),
                              Value(0.0)})
                    .ok());
  }
  const Column& col = df.column(0);
  const std::vector<std::string> probes = {"a", "c", "e", "zz", ""};
  for (const std::string& probe : probes) {
    for (const CompareOp op : {CompareOp::kEq, CompareOp::kNe}) {
      const Bitmap scanned = PredicateIndex::Scan(df, 0, op, Value(probe));
      Bitmap naive(rows);
      const Result<int32_t> code = col.CodeOf(probe);
      for (size_t r = 0; r < rows; ++r) {
        if (col.IsNull(r)) continue;
        const bool eq = code.ok() && col.code(r) == *code;
        if (op == CompareOp::kEq ? eq : !eq) naive.Set(r);
      }
      EXPECT_TRUE(scanned == naive)
          << "op " << CompareOpName(op) << " probe '" << probe << "'";
      // The cached atom path serves the identical mask.
      EXPECT_TRUE(df.predicate_index().AtomMask(df, 0, op, Value(probe)) ==
                  naive)
          << "atom op " << CompareOpName(op) << " probe '" << probe << "'";
    }
  }
}

// Numeric nulls are NaN cells; like categorical nulls they must be
// absent from every selection — including kNe (where raw IEEE comparison
// would admit them: NaN != x is true) and kLt (where the sorted-index
// range path must exclude them from the order entirely).
TEST(PredicateIndexTest, NumericNullsExcludedUnderEveryOperator) {
  auto schema = Schema::Create({
      {"n", AttrType::kNumeric, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  // Rows: 1.0, null, 3.0, null, 5.0.
  for (int i = 0; i < 5; ++i) {
    const bool null = i % 2 == 1;
    ASSERT_TRUE(
        df.AppendRow({null ? Value::Null() : Value(static_cast<double>(i + 1)),
                      Value(0.0)})
            .ok());
  }
  const PredicateIndex& index = df.predicate_index();
  struct Case {
    CompareOp op;
    double rhs;
    std::vector<size_t> expect;
  };
  const std::vector<Case> cases = {
      {CompareOp::kLt, 4.0, {0, 2}},   // nulls NOT "less than"
      {CompareOp::kLe, 3.0, {0, 2}},
      {CompareOp::kGt, 2.0, {2, 4}},
      {CompareOp::kGe, 3.0, {2, 4}},
      {CompareOp::kEq, 3.0, {2}},
      {CompareOp::kNe, 3.0, {0, 4}},   // nulls NOT "not equal" either
      {CompareOp::kNe, -99.0, {0, 2, 4}},
  };
  for (const Case& c : cases) {
    const Bitmap& mask = index.AtomMask(df, 0, c.op, Value(c.rhs));
    const Bitmap reference = PredicateIndex::Scan(df, 0, c.op, Value(c.rhs));
    EXPECT_TRUE(mask == reference)
        << CompareOpName(c.op) << " " << c.rhs << " diverges from Scan";
    ASSERT_EQ(mask.Count(), c.expect.size()) << CompareOpName(c.op);
    for (const size_t r : c.expect) {
      EXPECT_TRUE(mask.Get(r)) << CompareOpName(c.op) << " row " << r;
    }
    // Null rows (1, 3) never match.
    EXPECT_FALSE(mask.Get(1)) << CompareOpName(c.op);
    EXPECT_FALSE(mask.Get(3)) << CompareOpName(c.op);
  }
}

// The sorted-index range path must agree with the reference scan on ties,
// infinities, thresholds between values, and a NaN threshold — and build
// the per-column order exactly once however many thresholds are asked.
TEST(PredicateIndexTest, NumericRangeMasksMatchReferenceScan) {
  Rng rng(1234);
  auto schema = Schema::Create({
      {"n", AttrType::kNumeric, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  for (size_t i = 0; i < 3000; ++i) {
    // Heavy ties (quantized values) plus nulls.
    const bool null = rng.NextBernoulli(0.1);
    const double v = std::floor(rng.NextUniform(-8.0, 8.0) * 2.0) / 2.0;
    ASSERT_TRUE(df.AppendRow({null ? Value::Null() : Value(v), Value(0.0)})
                    .ok());
  }
  const PredicateIndex& index = df.predicate_index();
  std::vector<double> thresholds = {-8.0, -2.5, -2.25, 0.0, 0.5, 7.5, 8.0,
                                    -1e300, 1e300,
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 20; ++i) thresholds.push_back(rng.NextUniform(-9, 9));
  for (const CompareOp op :
       {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (const double rhs : thresholds) {
      const Bitmap& mask = index.AtomMask(df, 0, op, Value(rhs));
      const Bitmap reference = PredicateIndex::Scan(df, 0, op, Value(rhs));
      EXPECT_TRUE(mask == reference)
          << CompareOpName(op) << " " << rhs << ": index "
          << mask.Count() << " rows vs scan " << reference.Count();
    }
  }
  // One sorted order serves every threshold of the column.
  EXPECT_EQ(index.GetStats().numeric_orders, 1u);
  EXPECT_GT(index.GetStats().numeric_order_bytes, 0u);

  // The order is budget-accounted: shrinking the budget below its
  // footprint evicts it (behind the conjunction and atom tiers), and a
  // later range request transparently re-sorts — same masks either way.
  df.predicate_index().SetMemoryBudget(1);
  EXPECT_EQ(index.GetStats().numeric_orders, 0u);
  EXPECT_EQ(index.GetStats().numeric_order_bytes, 0u);
  df.predicate_index().SetMemoryBudget(0);
  const Bitmap& rebuilt = index.AtomMask(df, 0, CompareOp::kLt, Value(0.25));
  EXPECT_TRUE(rebuilt == PredicateIndex::Scan(df, 0, CompareOp::kLt,
                                              Value(0.25)));
  EXPECT_EQ(index.GetStats().numeric_orders, 1u);
}

// Every category of column 0 is served from the cache: each AtomMask
// call is a hit, none a miss, and each mask equals a fresh scan.
void ExpectEveryCategoryWarm(const DataFrame& df, const char* const* levels,
                             size_t num_levels) {
  const PredicateIndex& index = df.predicate_index();
  const PredicateIndex::CacheStats before = index.GetStats();
  for (size_t i = 0; i < num_levels; ++i) {
    const Bitmap& mask =
        index.AtomMask(df, 0, CompareOp::kEq, Value(levels[i]));
    EXPECT_TRUE(mask == PredicateIndex::Scan(df, 0, CompareOp::kEq,
                                             Value(levels[i])))
        << levels[i];
  }
  const PredicateIndex::CacheStats after = index.GetStats();
  EXPECT_EQ(after.hits - before.hits, num_levels);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(PredicateIndexTest, WarmStartReinstallsBudgetEvictedMasks) {
  Rng rng(98);
  auto schema = Schema::Create({
      {"c", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  const char* levels[] = {"a", "b", "c", "d"};
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        df.AppendRow({Value(levels[rng.NextBounded(4)]), Value(0.0)}).ok());
  }
  const PredicateIndex& index = df.predicate_index();
  (void)index.AtomMask(df, 0, CompareOp::kEq, Value("a"));  // batch build
  ASSERT_EQ(index.GetStats().atom_masks, 4u);
  // Evict the atom masks (ids survive), then warm-start again: the masks
  // must be reinstalled into their existing slots, not silently dropped.
  df.predicate_index().SetMemoryBudget(1);
  df.predicate_index().SetMemoryBudget(0);
  const size_t live = index.GetStats().atom_masks;
  ASSERT_LT(live, 4u);
  const size_t warm_before = index.GetStats().warm_atom_masks;
  index.WarmStartCategoryMasks(df, 0,
                               PredicateIndex::BuildCategoryMasks(df, 0));
  EXPECT_EQ(index.GetStats().atom_masks, 4u);
  EXPECT_EQ(index.GetStats().warm_atom_masks - warm_before, 4u - live);
  ExpectEveryCategoryWarm(df, levels, 4);
}

TEST(PredicateIndexTest, BatchBuildWarmsEveryCategoryUntilClear) {
  Rng rng(99);
  auto schema = Schema::Create({
      {"c", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  const char* levels[] = {"a", "b", "c"};
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        df.AppendRow({Value(levels[rng.NextBounded(3)]), Value(0.0)}).ok());
  }
  const PredicateIndex& index = df.predicate_index();
  EXPECT_EQ(index.GetStats().atom_masks, 0u);
  // First equality touch batch-builds every sibling category: one miss.
  (void)index.AtomMask(df, 0, CompareOp::kEq, Value("a"));
  EXPECT_EQ(index.GetStats().misses, 1u);
  ExpectEveryCategoryWarm(df, levels, 3);
  df.predicate_index().Clear();
  EXPECT_EQ(index.GetStats().atom_masks, 0u);
  const size_t misses = index.GetStats().misses;
  (void)index.AtomMask(df, 0, CompareOp::kEq, Value("b"));
  EXPECT_EQ(index.GetStats().misses, misses + 1);
}

TEST(PredicateIndexTest, EmptyPatternSelectsAllRows) {
  auto schema = Schema::Create({
      {"g", AttrType::kCategorical, AttrRole::kImmutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(df.AppendRow({Value("x"), Value(1.0 * i)}).ok());
  }
  EXPECT_EQ(Pattern::Empty().Evaluate(df).Count(), 5u);
  EXPECT_EQ(Pattern::Empty().EvaluateCached(df).Count(), 5u);
}

// Append path: AppendFrame must not throw warm masks away — they extend
// lazily by tail words on next touch (append.masks_extended) and the
// extended masks must be bit-identical to a naive scan of the grown
// table, for categorical equality, numeric ranges, and conjunctions.
TEST(PredicateIndexTest, AppendExtendsWarmMasksAndMatchesNaiveScan) {
  Rng rng(97);
  DataFrame df = RandomFrame(&rng, 300);
  std::vector<Pattern> patterns;
  for (int i = 0; i < 12; ++i) {
    std::vector<Predicate> preds;
    const size_t len = 1 + rng.NextBounded(3);
    for (size_t j = 0; j < len; ++j) {
      preds.push_back(RandomPredicate(&rng, df));
    }
    patterns.emplace_back(std::move(preds));
  }
  for (const Pattern& pattern : patterns) {
    (void)pattern.EvaluateCached(df);  // warm the masks pre-append
  }
  const uint64_t extended_before =
      obs::MetricsRegistry::Global().CounterValue("append.masks_extended");
  // Three appends of awkward sizes: sub-word, word-boundary-crossing,
  // and one that lands the row count exactly on a word boundary.
  const size_t deltas[] = {7, 100, 361};  // 300 -> 307 -> 407 -> 768
  for (const size_t delta_rows : deltas) {
    Rng delta_rng(delta_rows);
    const DataFrame delta = RandomFrame(&delta_rng, delta_rows);
    ASSERT_TRUE(df.AppendFrame(delta).ok());
    for (const Pattern& pattern : patterns) {
      const Bitmap& cached = pattern.EvaluateCached(df);
      ASSERT_EQ(cached.size(), df.num_rows());
      EXPECT_TRUE(cached == pattern.EvaluateNaive(df))
          << "rows=" << df.num_rows()
          << " pattern: " << pattern.ToString(df.schema());
    }
  }
  EXPECT_EQ(df.num_rows(), 768u);
  EXPECT_GT(
      obs::MetricsRegistry::Global().CounterValue("append.masks_extended"),
      extended_before);
}

TEST(PredicateIndexTest, AppendedFrameMatchesFreshFrameEvaluation) {
  // The lazily-extended index must agree with a cold index built over an
  // identical table assembled in one shot.
  Rng rng(98);
  const DataFrame full = RandomFrame(&rng, 500);
  std::vector<uint32_t> base_rows(440);
  for (size_t i = 0; i < 440; ++i) base_rows[i] = static_cast<uint32_t>(i);
  std::vector<uint32_t> delta_rows(60);
  for (size_t i = 0; i < 60; ++i) {
    delta_rows[i] = static_cast<uint32_t>(440 + i);
  }
  DataFrame grown = full.TakeRows(base_rows);
  Rng pred_rng(99);
  std::vector<Predicate> preds;
  for (int i = 0; i < 20; ++i) preds.push_back(RandomPredicate(&pred_rng, full));
  for (const Predicate& p : preds) (void)p.EvaluateCached(grown);
  ASSERT_TRUE(grown.AppendFrame(full.TakeRows(delta_rows)).ok());
  for (const Predicate& p : preds) {
    EXPECT_TRUE(p.EvaluateCached(grown) == p.Evaluate(full))
        << p.ToString(full.schema());
  }
}

}  // namespace
}  // namespace faircap
