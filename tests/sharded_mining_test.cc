// Shard-merge determinism for Step-2 mining: the sharded
// sufficient-statistics path must reproduce the unsharded oracle across
// shard counts {1, 2, 7, thread-count} — support and arm counts exactly
// for every shard count; estimates bit-for-bit wherever the accumulated
// sums are exact in double (integer-valued outcomes/confounders — the
// synthetic-with-nulls table below), and within tight tolerance on
// continuous data (german), where only floating-point summation order
// differs at shard boundaries. The full pipeline must select the same
// ruleset either way, and a fixed shard count must be bit-identical no
// matter how many threads execute it. Step 2's candidate rules must not
// depend on the schedule (threads x shards) at all.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "causal/estimator.h"
#include "core/faircap.h"
#include "data/german.h"
#include "ingest/synthetic.h"
#include "mining/shard_plan.h"
#include "util/random.h"
#include "util/task_scheduler.h"

namespace faircap {
namespace {

struct TestData {
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;
};

// Synthetic-with-nulls: every numeric value is a small integer, so all
// sufficient-statistics sums ({n, Σy, Σy²}, numeric moments) are exact in
// double and the shard merge is associative — sharded estimates must be
// bit-for-bit equal to the unsharded pass. Nulls in both confounders and
// the grouping attribute exercise the cell-(-1) and null-mask paths.
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

void ExpectSameEstimate(const Result<CateEstimate>& sharded,
                        const Result<CateEstimate>& oracle, double tol,
                        const std::string& label) {
  ASSERT_EQ(sharded.ok(), oracle.ok())
      << label << ": sharded="
      << (sharded.ok() ? "ok" : sharded.status().ToString()) << " oracle="
      << (oracle.ok() ? "ok" : oracle.status().ToString());
  if (!sharded.ok()) return;
  // Integer statistics are exact for every shard count.
  EXPECT_EQ(sharded->n_treated, oracle->n_treated) << label;
  EXPECT_EQ(sharded->n_control, oracle->n_control) << label;
  if (tol == 0.0) {
    EXPECT_EQ(sharded->cate, oracle->cate) << label << " (bit-for-bit)";
    EXPECT_EQ(sharded->std_error, oracle->std_error) << label;
  } else {
    EXPECT_NEAR(sharded->cate, oracle->cate,
                tol * std::max(1.0, std::abs(oracle->cate)))
        << label;
    EXPECT_NEAR(sharded->std_error, oracle->std_error,
                1e-6 * std::max(1.0, oracle->std_error))
        << label;
  }
}

// Engine-level pin: sharded EstimateSubgroups vs the unsharded batch call
// for all three methods and all three subgroups.
void RunEngineSweep(const TestData& data, double tol, uint64_t seed,
                    const std::string& label) {
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  // First mutable categorical attribute, first category: present in every
  // dataset under test.
  size_t t_attr = SIZE_MAX;
  for (size_t attr : data.df.schema().IndicesWithRole(AttrRole::kMutable)) {
    if (data.df.column(attr).type() == AttrType::kCategorical &&
        data.df.column(attr).num_categories() > 0) {
      t_attr = attr;
      break;
    }
  }
  ASSERT_NE(t_attr, SIZE_MAX);
  const Pattern intervention({Predicate(
      t_attr, CompareOp::kEq, Value(data.df.column(t_attr).CategoryName(0)))});
  TaskScheduler scheduler(4);
  Rng rng(seed);
  Bitmap dense(data.df.num_rows());
  for (size_t r = 0; r < data.df.num_rows(); ++r) {
    if (rng.NextBernoulli(0.7)) dense.Set(r);
  }
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    for (const Bitmap* group : {&dense}) {
      const Result<CateSubgroupEstimates> oracle =
          est->EstimateSubgroups(intervention, *group, &protected_mask, 5);
      ASSERT_TRUE(oracle.ok());
      for (const size_t shards :
           {size_t{1}, size_t{2}, size_t{7}, size_t{16}}) {
        const ShardPlan plan = ShardPlan::Create(data.df.num_rows(), shards);
        const std::string tag = label + "/m" +
                                std::to_string(static_cast<int>(method)) +
                                "/s" + std::to_string(shards);
        // Scheduled and inline execution of the same plan must both
        // match: the merge order comes from the plan, not the scheduler.
        for (const bool scheduled : {false, true}) {
          TaskGroup shard_tasks(scheduled ? &scheduler : nullptr);
          const Result<CateSubgroupEstimates> sharded =
              est->EstimateSubgroups(intervention, *group, &protected_mask, 5,
                                     /*skip_subgroups_unless_positive=*/false,
                                     &plan, scheduled ? &shard_tasks : nullptr);
          ASSERT_TRUE(sharded.ok()) << tag;
          // A single-shard plan IS the unsharded pass: always bit-for-bit.
          const double want_tol = shards == 1 ? 0.0 : tol;
          ExpectSameEstimate(sharded->overall, oracle->overall, want_tol,
                             tag + "/overall");
          ExpectSameEstimate(sharded->protected_group, oracle->protected_group,
                             want_tol, tag + "/protected");
          ExpectSameEstimate(sharded->nonprotected, oracle->nonprotected,
                             want_tol, tag + "/nonprotected");
        }
      }
    }
  }
}

TEST(ShardedMiningTest, EngineShardedMatchesOracleBitForBitOnIntegerData) {
  // Integer-valued data: exact sums, so every shard count is bit-for-bit.
  RunEngineSweep(MakeIntegerSynthetic(6000, 31), /*tol=*/0.0, 31, "int");
}

TEST(ShardedMiningTest, EngineShardedMatchesOracleOnGerman) {
  GermanConfig config;
  config.num_rows = 2000;
  config.seed = 32;
  const auto german = MakeGerman(config);
  ASSERT_TRUE(german.ok());
  TestData data{german->df, german->dag, german->protected_pattern};
  // Continuous outcomes: shard boundaries reassociate the sums, so pin to
  // tight tolerance (counts stay exact inside ExpectSameEstimate).
  RunEngineSweep(data, /*tol=*/1e-9, 32, "german");
}

void ExpectSameRuleset(const FairCapResult& sharded,
                       const FairCapResult& oracle, double tol,
                       const std::string& label) {
  EXPECT_EQ(sharded.num_grouping_patterns, oracle.num_grouping_patterns)
      << label;
  ASSERT_EQ(sharded.rules.size(), oracle.rules.size()) << label;
  for (size_t i = 0; i < sharded.rules.size(); ++i) {
    const PrescriptionRule& a = sharded.rules[i];
    const PrescriptionRule& b = oracle.rules[i];
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

FairCapResult RunPipeline(const TestData& data, size_t num_shards,
                          size_t num_threads) {
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.25;
  options.apriori.max_pattern_length = 2;
  options.lattice.max_predicates = 2;
  options.fairness = FairnessConstraint::GroupSP(1e9);
  options.num_threads = num_threads;
  options.num_shards = num_shards;
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  EXPECT_TRUE(solver.ok());
  auto result = solver->Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(ShardedMiningTest, PipelineShardedMatchesOracleOnIntegerData) {
  const TestData data = MakeIntegerSynthetic(5000, 41);
  const FairCapResult oracle = RunPipeline(data, /*num_shards=*/1,
                                           /*num_threads=*/1);
  ASSERT_FALSE(oracle.rules.empty());
  for (const size_t shards : {size_t{2}, size_t{7}, size_t{0}}) {
    // num_shards=0 resolves to the thread count.
    const FairCapResult sharded = RunPipeline(data, shards,
                                              /*num_threads=*/4);
    ExpectSameRuleset(sharded, oracle, /*tol=*/0.0,
                      "int/s" + std::to_string(shards));
  }
}

TEST(ShardedMiningTest, PipelineShardedMatchesOracleOnGerman) {
  GermanConfig config;
  config.num_rows = 1500;
  config.seed = 42;
  const auto german = MakeGerman(config);
  ASSERT_TRUE(german.ok());
  const TestData data{german->df, german->dag, german->protected_pattern};
  const FairCapResult oracle = RunPipeline(data, 1, 1);
  ASSERT_FALSE(oracle.rules.empty());
  for (const size_t shards : {size_t{2}, size_t{7}}) {
    const FairCapResult sharded = RunPipeline(data, shards, 4);
    ExpectSameRuleset(sharded, oracle, /*tol=*/1e-9,
                      "german/s" + std::to_string(shards));
  }
}

TEST(ShardedMiningTest, FixedShardCountIsThreadCountDeterministic) {
  // For a fixed plan the merge order is fixed, so 1 thread vs 4 threads
  // must agree bit-for-bit even on continuous data.
  GermanConfig config;
  config.num_rows = 1500;
  config.seed = 43;
  const auto german = MakeGerman(config);
  ASSERT_TRUE(german.ok());
  const TestData data{german->df, german->dag, german->protected_pattern};
  const FairCapResult sequential = RunPipeline(data, /*num_shards=*/7,
                                               /*num_threads=*/1);
  const FairCapResult pooled = RunPipeline(data, /*num_shards=*/7,
                                           /*num_threads=*/4);
  ExpectSameRuleset(pooled, sequential, /*tol=*/0.0, "determinism");
}

// Every per-category pattern over the immutable categorical attributes:
// near-equal pattern costs, so the pattern axis alone spreads the work.
std::vector<FrequentPattern> PerCategoryPatterns(const DataFrame& df) {
  std::vector<FrequentPattern> groups;
  for (size_t attr : df.schema().IndicesWithRole(AttrRole::kImmutable)) {
    const Column& col = df.column(attr);
    if (col.type() != AttrType::kCategorical) continue;
    for (size_t code = 0; code < col.num_categories(); ++code) {
      FrequentPattern fp;
      fp.pattern = Pattern({Predicate(
          attr, CompareOp::kEq,
          Value(col.CategoryName(static_cast<int32_t>(code))))});
      fp.coverage = fp.pattern.Evaluate(df);
      fp.support = fp.coverage.Count();
      if (fp.support > 0) groups.push_back(std::move(fp));
    }
  }
  return groups;
}

// Candidate identities (grouping => intervention, in order) of Step 2.
std::vector<std::string> MineCandidateIdentities(
    const SyntheticData& data, const std::vector<FrequentPattern>& groups,
    size_t num_threads, size_t num_shards) {
  FairCapOptions options;
  options.lattice.max_predicates = 1;
  options.fairness = FairnessConstraint::GroupSP(1e9);  // all 3 CATEs
  options.num_threads = num_threads;
  options.num_shards = num_shards;
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  if (!solver.ok()) return {};
  auto candidates = solver->MineCandidateRules(groups);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  if (!candidates.ok()) return {};
  std::vector<std::string> identities;
  identities.reserve(candidates->size());
  for (const PrescriptionRule& rule : *candidates) {
    identities.push_back(rule.grouping.ToString(data.df.schema()) + " => " +
                         rule.intervention.ToString(data.df.schema()));
  }
  return identities;
}

TEST(ShardedMiningTest, CandidateRulesIdenticalAcrossSchedules) {
  // Scheduling decides how fast Step 2 runs, never what it mines: the
  // sequential pass, the per-pattern fan-out (num_shards=1) and the
  // pattern x shard work-stealing graph must return the same candidates
  // in the same order. "skewed" adds one giant full-population pattern,
  // the shape where the shard axis does the work.
  SyntheticConfig config;
  config.num_rows = 20000;
  config.seed = 53;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  const std::vector<FrequentPattern> balanced = PerCategoryPatterns(data->df);
  ASSERT_FALSE(balanced.empty());
  std::vector<FrequentPattern> skewed(1);  // empty pattern: every row
  skewed[0].coverage = data->df.AllRows();
  skewed[0].support = data->df.num_rows();
  skewed.insert(skewed.end(), balanced.begin(), balanced.end());

  const auto expect_schedule_free =
      [&](const std::string& label, const std::vector<FrequentPattern>& groups) {
        const std::vector<std::string> sequential = MineCandidateIdentities(
            *data, groups, /*num_threads=*/1, /*num_shards=*/1);
        ASSERT_FALSE(sequential.empty()) << label;
        // (threads, shards); num_shards=0 resolves to the thread count.
        for (const auto& [threads, shards] :
             {std::pair<size_t, size_t>{4, 1}, {4, 2}, {4, 0}}) {
          EXPECT_EQ(MineCandidateIdentities(*data, groups, threads, shards),
                    sequential)
              << label << " threads=" << threads << " shards=" << shards;
        }
      };
  expect_schedule_free("balanced", balanced);
  expect_schedule_free("skewed", skewed);
}

}  // namespace
}  // namespace faircap
