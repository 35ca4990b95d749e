// Step-2 determinism across schedules. Treatment mining is sharded across
// grouping patterns only: each pattern runs its whole intervention
// lattice as one task, and every evaluation is one ascending-row pass
// over the table, so no floating-point sum depends on how many threads
// run. The selected ruleset — supports and all three utilities, compared
// as doubles with EXPECT_EQ — must therefore be bit-identical at every
// thread count, on continuous outcomes as well as integer ones, and
// Step 2's candidate rules must not depend on the schedule at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/faircap.h"
#include "data/stackoverflow.h"
#include "ingest/synthetic.h"

namespace faircap {
namespace {

void ExpectSameRuleset(const FairCapResult& got, const FairCapResult& ref,
                       const std::string& label) {
  EXPECT_EQ(got.num_grouping_patterns, ref.num_grouping_patterns) << label;
  EXPECT_EQ(got.num_candidate_rules, ref.num_candidate_rules) << label;
  ASSERT_EQ(got.rules.size(), ref.rules.size()) << label;
  for (size_t i = 0; i < got.rules.size(); ++i) {
    const PrescriptionRule& a = got.rules[i];
    const PrescriptionRule& b = ref.rules[i];
    const std::string tag = label + "/rule" + std::to_string(i);
    EXPECT_TRUE(a.grouping == b.grouping) << tag;
    EXPECT_TRUE(a.intervention == b.intervention) << tag;
    EXPECT_EQ(a.support, b.support) << tag;
    EXPECT_EQ(a.support_protected, b.support_protected) << tag;
    EXPECT_EQ(a.utility, b.utility) << tag << " (bit-for-bit)";
    EXPECT_EQ(a.utility_protected, b.utility_protected) << tag;
    EXPECT_EQ(a.utility_nonprotected, b.utility_nonprotected) << tag;
  }
}

FairCapResult RunPipeline(const DataFrame& df, const CausalDag& dag,
                          const Pattern& protected_pattern,
                          FairCapOptions options, size_t num_threads) {
  options.num_threads = num_threads;
  auto solver = FairCap::Create(&df, &dag, protected_pattern, options);
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  if (!solver.ok()) return {};
  auto result = solver->Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  return std::move(result).ValueOrDie();
}

// The sequential run is the reference; 2, 4 and hardware-concurrency
// (num_threads = 0) workers must reproduce it bit for bit.
void ExpectThreadCountFree(const DataFrame& df, const CausalDag& dag,
                           const Pattern& protected_pattern,
                           const FairCapOptions& options,
                           const std::string& label) {
  const FairCapResult sequential =
      RunPipeline(df, dag, protected_pattern, options, /*num_threads=*/1);
  ASSERT_FALSE(sequential.rules.empty()) << label;
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{0}}) {
    ExpectSameRuleset(
        RunPipeline(df, dag, protected_pattern, options, threads), sequential,
        label + "/threads=" + std::to_string(threads));
  }
}

TEST(ShardedMiningTest, UtilitiesBitIdenticalAcrossThreadCountsOnStackOverflow) {
  // The golden stackoverflow-5K setting: group-SP $10k, group coverage 0.5.
  StackOverflowConfig config;
  config.num_rows = 5000;
  const auto data = MakeStackOverflow(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FairCapOptions options;
  options.fairness = FairnessConstraint::GroupSP(10000.0);
  options.coverage = CoverageConstraint::Group(0.5, 0.5);
  ExpectThreadCountFree(data->df, data->dag, data->protected_pattern, options,
                        "stackoverflow_5k");
}

TEST(ShardedMiningTest, UtilitiesBitIdenticalAcrossThreadCountsOnRealOutcome) {
  // A real-valued outcome, where any reassociation of a sum would show.
  SyntheticConfig config;
  config.num_rows = 20000;
  config.seed = 44;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  FairCapOptions options;
  options.fairness = FairnessConstraint::GroupSP(1e9);  // all 3 CATEs
  ExpectThreadCountFree(data->df, data->dag, data->protected_pattern, options,
                        "synthetic");
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

// Step 2's candidate rules, in order.
std::vector<PrescriptionRule> MineCandidates(
    const SyntheticData& data, const std::vector<FrequentPattern>& groups,
    size_t num_threads) {
  FairCapOptions options;
  options.lattice.max_predicates = 1;
  options.fairness = FairnessConstraint::GroupSP(1e9);  // all 3 CATEs
  options.num_threads = num_threads;
  auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  EXPECT_TRUE(solver.ok()) << solver.status().ToString();
  if (!solver.ok()) return {};
  auto candidates = solver->MineCandidateRules(groups);
  EXPECT_TRUE(candidates.ok()) << candidates.status().ToString();
  if (!candidates.ok()) return {};
  return std::move(candidates).ValueOrDie();
}

// Candidate identities (grouping => intervention, in order) of Step 2.
std::vector<std::string> MineCandidateIdentities(
    const SyntheticData& data, const std::vector<FrequentPattern>& groups,
    size_t num_threads) {
  std::vector<std::string> identities;
  for (const PrescriptionRule& rule : MineCandidates(data, groups,
                                                     num_threads)) {
    identities.push_back(rule.grouping.ToString(data.df.schema()) + " => " +
                         rule.intervention.ToString(data.df.schema()));
  }
  return identities;
}

TEST(ShardedMiningTest, CandidateRulesIdenticalAcrossSchedules) {
  // Scheduling decides how fast Step 2 runs, never what it mines: the
  // sequential pass and the work-stealing fan-out over patterns must
  // return the same candidates in the same order. "skewed" adds one
  // giant full-population pattern, so one task dwarfs the others.
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
        const std::vector<std::string> sequential =
            MineCandidateIdentities(*data, groups, /*num_threads=*/1);
        ASSERT_FALSE(sequential.empty()) << label;
        for (const size_t threads : {size_t{2}, size_t{4}}) {
          EXPECT_EQ(MineCandidateIdentities(*data, groups, threads),
                    sequential)
              << label << " threads=" << threads;
        }
      };
  expect_schedule_free("balanced", balanced);
  expect_schedule_free("skewed", skewed);
}

TEST(ShardedMiningTest, CandidatesKeepPatternOrderUnderLargestFirstSchedule) {
  // The pool runs patterns largest support first, ties by index. Here
  // support ascends with the index and two patterns tie, so that order is
  // neither index order nor its reverse; the candidates must still come
  // back in pattern order, with the same utilities bit for bit.
  SyntheticConfig config;
  config.num_rows = 20000;
  config.seed = 59;
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  std::vector<FrequentPattern> groups = PerCategoryPatterns(data->df);
  ASSERT_GE(groups.size(), 3u);
  std::stable_sort(groups.begin(), groups.end(),
                   [](const FrequentPattern& a, const FrequentPattern& b) {
                     return a.support < b.support;
                   });
  const FrequentPattern largest = groups.back();
  groups.insert(groups.begin() + 1, largest);  // ties the largest
  ASSERT_LT(groups.front().support, groups[1].support);

  const std::vector<PrescriptionRule> sequential =
      MineCandidates(*data, groups, /*num_threads=*/1);
  ASSERT_FALSE(sequential.empty());
  for (const size_t threads : {size_t{2}, size_t{4}}) {
    const std::vector<PrescriptionRule> got =
        MineCandidates(*data, groups, threads);
    ASSERT_EQ(got.size(), sequential.size()) << "threads=" << threads;
    for (size_t i = 0; i < got.size(); ++i) {
      const std::string tag =
          "threads=" + std::to_string(threads) + "/rule" + std::to_string(i);
      EXPECT_TRUE(got[i].grouping == sequential[i].grouping) << tag;
      EXPECT_TRUE(got[i].intervention == sequential[i].intervention) << tag;
      EXPECT_EQ(got[i].support, sequential[i].support) << tag;
      EXPECT_EQ(got[i].utility, sequential[i].utility) << tag;
      EXPECT_EQ(got[i].utility_protected, sequential[i].utility_protected)
          << tag;
      EXPECT_EQ(got[i].utility_nonprotected,
                sequential[i].utility_nonprotected)
          << tag;
    }
  }
}

}  // namespace
}  // namespace faircap
