// Incremental append + delta-aware re-mining equivalence: after any
// number of appended batches, an IncrementalSession's ruleset must be
// indistinguishable from a cold run over the concatenated table — at
// every thread count, bit-for-bit wherever the accumulated sums are exact
// in double (integer-valued data), and to 1e-9 relative on continuous
// outcomes (the delta merge, CateStatsEngine::MergeAccum, reassociates
// the final partial sum). Also pins the refresh plumbing:
// partition extension vs rebuild stats, the new-category full-remine
// escape hatch, and the accum cache's cold/cached/delta paths at the
// engine level.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "causal/estimator.h"
#include "core/faircap.h"
#include "core/incremental.h"
#include "data/german.h"
#include "util/obs/metrics.h"
#include "util/random.h"

namespace faircap {
namespace {

uint64_t Counter(const std::string& name) {
  return obs::MetricsRegistry::Global().CounterValue(name);
}

struct TestData {
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;
};

// Categorical-only confounders (plus the numeric outcome, which is never
// an adjustment attribute): confounder partitions copy-extend under
// appends and group-level reuse is sound. Integer-valued outcomes keep
// every sufficient-statistics sum exact in double, so the delta merge is
// associative and incremental estimates must be bit-for-bit cold. Nulls
// exercise the cell-(-1) and null-mask paths across the append boundary.
TestData MakeCategoricalSynthetic(size_t n, uint64_t seed,
                                  bool integer_outcome) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"G", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
      {"T1", AttrType::kCategorical, AttrRole::kMutable},
      {"T2", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* zc_levels[] = {"a", "b", "c"};
  const char* g_levels[] = {"g0", "g1", "g2"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t g = rng.NextBounded(3);
    const size_t zc = rng.NextBounded(3);
    const bool zc_null = rng.NextBernoulli(0.06);
    const bool t1 = rng.NextBernoulli(0.25 + 0.15 * static_cast<double>(zc));
    const bool t2 = rng.NextBernoulli(0.5);
    double o = 5.0 + 3.0 * static_cast<double>(zc) +
               (t1 ? (prot ? 2.0 : 6.0) : 0.0) + (t2 ? 3.0 : 0.0) +
               static_cast<double>(rng.NextBounded(5));
    if (!integer_outcome) o += rng.NextDouble();
    const Status st = df.AppendRow(
        {Value(prot ? "yes" : "no"), Value(g_levels[g]),
         zc_null ? Value::Null() : Value(zc_levels[zc]),
         Value(t1 ? "yes" : "no"), Value(t2 ? "hi" : "lo"), Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag = CausalDag::Create({"Prot", "G", "Zc", "T1", "T2", "O"},
                                    {{"Zc", "T1"},
                                     {"Zc", "O"},
                                     {"Prot", "O"},
                                     {"T1", "O"},
                                     {"T2", "O"}})
                      .ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

// Integer-valued data with a numeric confounder Zn, which forces the
// partition-rebuild path on every append (quantile edges shift) and
// gates group-level reuse off — the session must still match cold.
TestData MakeIntegerSynthetic(size_t n, uint64_t seed) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"G", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zn", AttrType::kNumeric, AttrRole::kImmutable},
      {"T1", AttrType::kCategorical, AttrRole::kMutable},
      {"T2", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* zc_levels[] = {"a", "b", "c"};
  const char* g_levels[] = {"g0", "g1", "g2"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t g = rng.NextBounded(3);
    const size_t zc = rng.NextBounded(3);
    const double zn = static_cast<double>(rng.NextBounded(9)) - 4.0;
    const bool zc_null = rng.NextBernoulli(0.06);
    const bool zn_null = rng.NextBernoulli(0.06);
    const bool t1 =
        rng.NextBernoulli(0.25 + 0.15 * static_cast<double>(zc) +
                          (zn > 0.0 ? 0.15 : 0.0));
    const bool t2 = rng.NextBernoulli(0.5);
    const double o = 5.0 + 3.0 * static_cast<double>(zc) + 2.0 * zn +
                     (t1 ? (prot ? 2.0 : 6.0) : 0.0) + (t2 ? 3.0 : 0.0) +
                     static_cast<double>(rng.NextBounded(5));
    const Status st = df.AppendRow(
        {Value(prot ? "yes" : "no"), Value(g_levels[g]),
         zc_null ? Value::Null() : Value(zc_levels[zc]),
         zn_null ? Value::Null() : Value(zn), Value(t1 ? "yes" : "no"),
         Value(t2 ? "hi" : "lo"), Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag = CausalDag::Create({"Prot", "G", "Zc", "Zn", "T1", "T2", "O"},
                                    {{"Zc", "T1"},
                                     {"Zn", "T1"},
                                     {"Zc", "O"},
                                     {"Zn", "O"},
                                     {"Prot", "O"},
                                     {"T1", "O"},
                                     {"T2", "O"}})
                      .ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

// First `k` rows as a fresh frame. TakeRows copies the full dictionaries,
// so a prefix and a prefix-plus-appended-deltas assign identical category
// codes — the cold reference sees the same encoded table.
DataFrame Prefix(const DataFrame& df, size_t k) {
  std::vector<uint32_t> rows(k);
  for (size_t i = 0; i < k; ++i) rows[i] = static_cast<uint32_t>(i);
  return df.TakeRows(rows);
}

DataFrame Slice(const DataFrame& df, size_t begin, size_t end) {
  std::vector<uint32_t> rows;
  rows.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) rows.push_back(static_cast<uint32_t>(i));
  return df.TakeRows(rows);
}

FairCapOptions PipelineOptions(size_t num_threads) {
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.25;
  options.apriori.max_pattern_length = 2;
  options.lattice.max_predicates = 2;
  options.fairness = FairnessConstraint::GroupSP(1e9);
  options.num_threads = num_threads;
  return options;
}

FairCapResult RunCold(const DataFrame& df, const CausalDag& dag,
                      const Pattern& protected_pattern,
                      const FairCapOptions& options) {
  auto solver = FairCap::Create(&df, &dag, protected_pattern, options);
  EXPECT_TRUE(solver.ok());
  auto result = solver->Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

void ExpectSameRuleset(const FairCapResult& warm, const FairCapResult& cold,
                       double tol, const std::string& label) {
  EXPECT_EQ(warm.num_grouping_patterns, cold.num_grouping_patterns) << label;
  EXPECT_EQ(warm.num_treatment_evaluations, cold.num_treatment_evaluations)
      << label;
  ASSERT_EQ(warm.rules.size(), cold.rules.size()) << label;
  for (size_t i = 0; i < warm.rules.size(); ++i) {
    const PrescriptionRule& a = warm.rules[i];
    const PrescriptionRule& b = cold.rules[i];
    const std::string tag = label + "/rule" + std::to_string(i);
    EXPECT_TRUE(a.grouping == b.grouping) << tag;
    EXPECT_TRUE(a.intervention == b.intervention) << tag;
    EXPECT_EQ(a.support, b.support) << tag;
    EXPECT_EQ(a.support_protected, b.support_protected) << tag;
    if (tol == 0.0) {
      EXPECT_EQ(a.utility, b.utility) << tag << " (bit-for-bit)";
      EXPECT_EQ(a.utility_protected, b.utility_protected) << tag;
      EXPECT_EQ(a.utility_nonprotected, b.utility_nonprotected) << tag;
    } else {
      EXPECT_NEAR(a.utility, b.utility,
                  tol * std::max(1.0, std::abs(b.utility)))
          << tag;
      EXPECT_NEAR(a.utility_protected, b.utility_protected,
                  tol * std::max(1.0, std::abs(b.utility_protected)))
          << tag;
      EXPECT_NEAR(a.utility_nonprotected, b.utility_nonprotected,
                  tol * std::max(1.0, std::abs(b.utility_nonprotected)))
          << tag;
    }
  }
}

// The core pin: base run, then `num_batches` Append+Run cycles, each
// compared against a cold FairCap over an independently built prefix
// frame (fresh index, fresh partitions, no incremental state).
void RunSessionSweep(const TestData& full, size_t batch_rows,
                     size_t num_batches, size_t num_threads, double tol,
                     const std::string& label) {
  const size_t total = full.df.num_rows();
  const size_t base_rows = total - batch_rows * num_batches;
  const FairCapOptions options = PipelineOptions(num_threads);
  auto session =
      IncrementalSession::Create(Prefix(full.df, base_rows), full.dag,
                                 full.protected_pattern, options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t b = 0; b <= num_batches; ++b) {
    if (b > 0) {
      const size_t begin = base_rows + (b - 1) * batch_rows;
      const Status st = session->Append(Slice(full.df, begin,
                                              begin + batch_rows));
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
    const size_t rows_now = base_rows + b * batch_rows;
    ASSERT_EQ(session->df().num_rows(), rows_now);
    auto warm = session->Run();
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const DataFrame cold_df = Prefix(full.df, rows_now);
    const FairCapResult cold =
        RunCold(cold_df, full.dag, full.protected_pattern, options);
    ExpectSameRuleset(*warm, cold, tol,
                      label + "/rows" + std::to_string(rows_now));
  }
}

TEST(IncrementalTest, SessionMatchesColdBitForBitOnCategoricalIntegerData) {
  const TestData full =
      MakeCategoricalSynthetic(2500, 71, /*integer_outcome=*/true);
  const uint64_t delta_before = Counter("append.evals_delta");
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    RunSessionSweep(full, /*batch_rows=*/25, /*num_batches=*/3, threads,
                    /*tol=*/0.0, "cat-int/t" + std::to_string(threads));
  }
  // Categorical-only schema: stale accums take the delta-merge path.
  // (Group-level reuse does NOT fire here: a uniformly random delta puts
  // rows into every frequent group, changing every support — see
  // GroupReuseFiresWhenDeltaAvoidsGroups for the reuse pin.)
  EXPECT_GT(Counter("append.evals_delta"), delta_before);
}

TEST(IncrementalTest, GroupReuseFiresWhenDeltaAvoidsGroups) {
  // A skewed delta — every appended row lands in Prot=no, G=g0, Zc=a —
  // leaves the supports of groups over the other levels unchanged, so
  // their cached candidate rules are re-emitted without re-running the
  // intervention lattice, and the result still matches cold.
  const TestData base_data =
      MakeCategoricalSynthetic(2000, 81, /*integer_outcome=*/true);
  DataFrame delta = Prefix(base_data.df, 0);
  DataFrame cold_df = Prefix(base_data.df, 2000);
  Rng rng(82);
  for (size_t i = 0; i < 40; ++i) {
    const bool t1 = rng.NextBernoulli(0.4);
    const bool t2 = rng.NextBernoulli(0.5);
    const double o = 5.0 + (t1 ? 6.0 : 0.0) + (t2 ? 3.0 : 0.0) +
                     static_cast<double>(rng.NextBounded(5));
    const std::vector<Value> row{Value("no"),         Value("g0"),
                                 Value("a"),          Value(t1 ? "yes" : "no"),
                                 Value(t2 ? "hi" : "lo"), Value(o)};
    ASSERT_TRUE(delta.AppendRow(row).ok());
    ASSERT_TRUE(cold_df.AppendRow(row).ok());
  }
  const FairCapOptions options = PipelineOptions(/*num_threads=*/4);
  auto session =
      IncrementalSession::Create(Prefix(base_data.df, 2000), base_data.dag,
                                 base_data.protected_pattern, options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Run().ok());
  EXPECT_TRUE(session->state().GetCacheStats().group_reuse_sound);
  const uint64_t reused_before = Counter("append.patterns_reused");
  ASSERT_TRUE(session->Append(delta).ok());
  auto warm = session->Run();
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(Counter("append.patterns_reused"), reused_before);
  const FairCapResult cold =
      RunCold(cold_df, base_data.dag, base_data.protected_pattern, options);
  ExpectSameRuleset(*warm, cold, /*tol=*/0.0, "reuse");
}

TEST(IncrementalTest, SessionMatchesColdToMergePrecisionOnContinuousOutcome) {
  // Continuous outcomes on the delta-merge path: resident + delta partial
  // sums reassociate the final addition — pin to 1e-9 relative.
  const TestData full =
      MakeCategoricalSynthetic(2500, 72, /*integer_outcome=*/false);
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    RunSessionSweep(full, /*batch_rows=*/25, /*num_batches=*/2, threads,
                    /*tol=*/1e-9, "cat-fp/t" + std::to_string(threads));
  }
}

TEST(IncrementalTest, SessionMatchesColdWithNumericConfounderRebuilds) {
  // Numeric confounder: every append shifts quantile edges, partitions
  // rebuild cold (fresh lineage voids cached accums) and group reuse is
  // gated off — the warm run IS a cold run and must match bit-for-bit.
  const TestData full = MakeIntegerSynthetic(2500, 73);
  const uint64_t reused_before = Counter("append.patterns_reused");
  const uint64_t rebuilt_before = Counter("append.partitions_rebuilt");
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    RunSessionSweep(full, /*batch_rows=*/25, /*num_batches=*/2, threads,
                    /*tol=*/0.0, "num/t" + std::to_string(threads));
  }
  EXPECT_EQ(Counter("append.patterns_reused"), reused_before);
  EXPECT_GT(Counter("append.partitions_rebuilt"), rebuilt_before);
}

TEST(IncrementalTest, SessionMatchesColdOnGerman) {
  GermanConfig config;
  config.num_rows = 1300;
  config.seed = 74;
  const auto german = MakeGerman(config);
  ASSERT_TRUE(german.ok());
  const TestData full{german->df, german->dag, german->protected_pattern};
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    RunSessionSweep(full, /*batch_rows=*/25, /*num_batches=*/2, threads,
                    /*tol=*/1e-9, "german/t" + std::to_string(threads));
  }
}

TEST(IncrementalTest, BackToBackAppendsThenSingleRunMatchesCold) {
  const TestData full =
      MakeCategoricalSynthetic(2000, 75, /*integer_outcome=*/true);
  const FairCapOptions options = PipelineOptions(/*num_threads=*/4);
  auto session = IncrementalSession::Create(
      Prefix(full.df, 1900), full.dag, full.protected_pattern, options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Run().ok());
  // Two appends with no Run in between: the second Run's delta paths must
  // cover both batches at once ([rows_covered, num_rows) spans them).
  ASSERT_TRUE(session->Append(Slice(full.df, 1900, 1950)).ok());
  ASSERT_TRUE(session->Append(Slice(full.df, 1950, 2000)).ok());
  auto warm = session->Run();
  ASSERT_TRUE(warm.ok());
  const FairCapResult cold =
      RunCold(full.df, full.dag, full.protected_pattern, options);
  ExpectSameRuleset(*warm, cold, /*tol=*/0.0, "backtoback");
}

TEST(IncrementalTest, NewCategoryInDeltaForcesFullRemineAndMatchesCold) {
  // Base table never sees Zc="c"; the delta introduces it. Cell
  // numbering, one-hot layouts and the atom set all change, so the
  // session must void every cache (append.full_remines) and the next run
  // must still match a cold run over the concatenated rows — built here
  // by replaying the same rows through AppendRow, which interns
  // categories in the same first-appearance order AppendFrame uses.
  auto make_frame = []() {
    auto schema = Schema::Create({
        {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
        {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
        {"T1", AttrType::kCategorical, AttrRole::kMutable},
        {"O", AttrType::kNumeric, AttrRole::kOutcome},
    });
    return DataFrame::Create(std::move(schema).ValueOrDie());
  };
  auto make_row = [](Rng& rng, bool allow_c) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t zc = rng.NextBounded(allow_c ? 3 : 2);
    const bool t1 = rng.NextBernoulli(0.4);
    const double o = 4.0 + 2.0 * static_cast<double>(zc) + (t1 ? 3.0 : 0.0) +
                     static_cast<double>(rng.NextBounded(4));
    const char* zc_levels[] = {"a", "b", "c"};
    return std::vector<Value>{Value(prot ? "yes" : "no"),
                              Value(zc_levels[zc]), Value(t1 ? "yes" : "no"),
                              Value(o)};
  };
  DataFrame base = make_frame();
  DataFrame delta = make_frame();
  DataFrame cold_df = make_frame();
  Rng rng(76);
  for (size_t i = 0; i < 900; ++i) {
    const auto row = make_row(rng, /*allow_c=*/false);
    ASSERT_TRUE(base.AppendRow(row).ok());
    ASSERT_TRUE(cold_df.AppendRow(row).ok());
  }
  bool saw_c = false;
  for (size_t i = 0; i < 60; ++i) {
    const auto row = make_row(rng, /*allow_c=*/true);
    saw_c = saw_c || row[1] == Value("c");
    ASSERT_TRUE(delta.AppendRow(row).ok());
    ASSERT_TRUE(cold_df.AppendRow(row).ok());
  }
  ASSERT_TRUE(saw_c);
  CausalDag dag = CausalDag::Create({"Prot", "Zc", "T1", "O"},
                                    {{"Zc", "T1"},
                                     {"Zc", "O"},
                                     {"Prot", "O"},
                                     {"T1", "O"}})
                      .ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  const FairCapOptions options = PipelineOptions(/*num_threads=*/2);
  auto session = IncrementalSession::Create(std::move(base), dag,
                                            protected_pattern, options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Run().ok());
  EXPECT_GT(session->state().GetCacheStats().accum_entries, 0u);
  const uint64_t remines_before = Counter("append.full_remines");
  ASSERT_TRUE(session->Append(delta).ok());
  EXPECT_EQ(Counter("append.full_remines"), remines_before + 1);
  const IncrementalState::CacheStats stats = session->state().GetCacheStats();
  EXPECT_EQ(stats.accum_entries, 0u);
  EXPECT_EQ(stats.group_entries, 0u);
  auto warm = session->Run();
  ASSERT_TRUE(warm.ok());
  const FairCapResult cold = RunCold(cold_df, dag, protected_pattern, options);
  ExpectSameRuleset(*warm, cold, /*tol=*/0.0, "newcat");
}

TEST(IncrementalTest, NotifyAppendReportsExtensionVsRebuild) {
  {
    // Categorical-only adjustment sets: partitions copy-extend and their
    // engines refresh in place.
    TestData data = MakeCategoricalSynthetic(1550, 77, true);
    DataFrame df = Prefix(data.df, 1500);
    const DataFrame delta = Slice(data.df, 1500, 1550);
    auto solver = FairCap::Create(&df, &data.dag, data.protected_pattern,
                                  PipelineOptions(/*num_threads=*/2));
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE(solver->Run().ok());
    ASSERT_TRUE(df.AppendFrame(delta).ok());
    const CateEstimator::AppendRefreshStats stats = solver->NotifyAppend();
    EXPECT_GT(stats.partitions_extended, 0u);
    EXPECT_EQ(stats.partitions_rebuilt, 0u);
    EXPECT_GT(stats.engines_refreshed, 0u);
    EXPECT_EQ(stats.engines_dropped, 0u);
  }
  {
    // Numeric confounder Zn: its partitions cannot extend (quantile edges
    // shift) and are dropped for cold rebuild.
    TestData data = MakeIntegerSynthetic(1550, 78);
    DataFrame df = Prefix(data.df, 1500);
    const DataFrame delta = Slice(data.df, 1500, 1550);
    auto solver = FairCap::Create(&df, &data.dag, data.protected_pattern,
                                  PipelineOptions(/*num_threads=*/2));
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE(solver->Run().ok());
    ASSERT_TRUE(df.AppendFrame(delta).ok());
    const CateEstimator::AppendRefreshStats stats = solver->NotifyAppend();
    EXPECT_GT(stats.partitions_rebuilt + stats.engines_dropped, 0u);
  }
}

void ExpectSameEstimate(const Result<CateEstimate>& warm,
                        const Result<CateEstimate>& cold,
                        const std::string& label) {
  ASSERT_EQ(warm.ok(), cold.ok()) << label;
  if (!warm.ok()) return;
  EXPECT_EQ(warm->n_treated, cold->n_treated) << label;
  EXPECT_EQ(warm->n_control, cold->n_control) << label;
  EXPECT_EQ(warm->cate, cold->cate) << label << " (bit-for-bit)";
  EXPECT_EQ(warm->std_error, cold->std_error) << label;
}

TEST(IncrementalTest, EstimateWithCacheColdCachedAndDeltaPathsMatchOracle) {
  const TestData data =
      MakeCategoricalSynthetic(2000, 79, /*integer_outcome=*/true);
  DataFrame df = Prefix(data.df, 1900);
  const DataFrame delta = Slice(data.df, 1900, 2000);
  auto est = CateEstimator::Create(&df, &data.dag, CateOptions());
  ASSERT_TRUE(est.ok());
  const Pattern intervention({Predicate(3, CompareOp::kEq, Value("yes"))});
  const Pattern group_pattern({Predicate(1, CompareOp::kEq, Value("g0"))});
  IncrementalState state;
  state.Attach(df);

  Bitmap group = group_pattern.Evaluate(df);
  Bitmap prot = data.protected_pattern.Evaluate(df);
  const auto oracle_base =
      est->EstimateSubgroups(intervention, group, &prot, 5);
  ASSERT_TRUE(oracle_base.ok());

  // Cold fill, then a pure cache hit: both must equal the direct call.
  const uint64_t full_before = Counter("append.evals_full");
  const uint64_t cached_before = Counter("append.evals_cached");
  const uint64_t delta_before = Counter("append.evals_delta");
  for (int pass = 0; pass < 2; ++pass) {
    const auto got = state.EstimateWithCache(
        *est, "g", intervention, group, prot, /*want_subgroups=*/true, 5,
        /*skip_subgroups_unless_positive=*/false);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::string tag = "base/pass" + std::to_string(pass);
    ExpectSameEstimate(got->overall, oracle_base->overall, tag + "/overall");
    ExpectSameEstimate(got->protected_group, oracle_base->protected_group,
                       tag + "/protected");
    ExpectSameEstimate(got->nonprotected, oracle_base->nonprotected,
                       tag + "/nonprotected");
  }
  EXPECT_EQ(Counter("append.evals_full"), full_before + 1);
  EXPECT_EQ(Counter("append.evals_cached"), cached_before + 1);

  // Append, refresh, and take the delta-merge path: on integer data it
  // must be bit-for-bit equal to a cold estimator over an independently
  // built full frame.
  ASSERT_TRUE(df.AppendFrame(delta).ok());
  est->NotifyAppend();
  state.OnAppend(df);
  group = group_pattern.Evaluate(df);
  prot = data.protected_pattern.Evaluate(df);
  const auto got = state.EstimateWithCache(
      *est, "g", intervention, group, prot, /*want_subgroups=*/true, 5,
      /*skip_subgroups_unless_positive=*/false);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(Counter("append.evals_delta"), delta_before + 1);

  const DataFrame cold_df = Prefix(data.df, 2000);
  const auto cold_est =
      CateEstimator::Create(&cold_df, &data.dag, CateOptions());
  ASSERT_TRUE(cold_est.ok());
  Bitmap cold_group = group_pattern.Evaluate(cold_df);
  Bitmap cold_prot = data.protected_pattern.Evaluate(cold_df);
  const auto oracle =
      cold_est->EstimateSubgroups(intervention, cold_group, &cold_prot, 5);
  ASSERT_TRUE(oracle.ok());
  ExpectSameEstimate(got->overall, oracle->overall, "delta/overall");
  ExpectSameEstimate(got->protected_group, oracle->protected_group,
                     "delta/protected");
  ExpectSameEstimate(got->nonprotected, oracle->nonprotected,
                     "delta/nonprotected");
}

}  // namespace
}  // namespace faircap
