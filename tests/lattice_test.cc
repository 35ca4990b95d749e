#include "mining/lattice.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "in_order_evaluator.h"

namespace faircap {
namespace {

DataFrame Frame() {
  auto schema = Schema::Create({
      {"t1", AttrType::kCategorical, AttrRole::kMutable},
      {"t2", AttrType::kCategorical, AttrRole::kMutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  EXPECT_TRUE(df.AppendRow({Value("a"), Value("p"), Value(1.0)}).ok());
  EXPECT_TRUE(df.AppendRow({Value("b"), Value("q"), Value(2.0)}).ok());
  return df;
}

TEST(LatticeTest, EnumeratesAtomsForAllCategories) {
  const DataFrame df = Frame();
  const auto atoms = EnumerateInterventionAtoms(df, {0, 1});
  EXPECT_EQ(atoms.size(), 4u);  // a,b for t1; p,q for t2
}

TEST(LatticeTest, AtomsSkipNumericAttributes) {
  const DataFrame df = Frame();
  const auto atoms = EnumerateInterventionAtoms(df, {2});
  EXPECT_TRUE(atoms.empty());
}

TEST(LatticeTest, SelectsHighestScoreFeasible) {
  const DataFrame df = Frame();
  const LevelEvaluator eval = InOrder(
      [&df](const Pattern& p) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = 1.0;
    // Score favors t1=b.
    e.score = p.ToString(df.schema()).find("t1 = b") != std::string::npos
                  ? 10.0
                  : 1.0;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 1;
  const LatticeResult result =
      TraverseInterventionLattice(df, {0, 1}, eval, options);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->ToString(df.schema()), "t1 = b");
  EXPECT_DOUBLE_EQ(result.best_eval.score, 10.0);
  EXPECT_EQ(result.num_evaluated, 4u);
}

TEST(LatticeTest, InfeasibleTreatmentsNeverSelected) {
  const DataFrame df = Frame();
  const LevelEvaluator eval = InOrder(
      [](const Pattern&) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = 5.0;
    e.score = 5.0;
    e.feasible = false;
    return e;
  });
  const LatticeResult result = TraverseInterventionLattice(df, {0, 1}, eval);
  EXPECT_FALSE(result.best.has_value());
}

TEST(LatticeTest, NegativeCateNeverSelected) {
  const DataFrame df = Frame();
  const LevelEvaluator eval = InOrder(
      [](const Pattern&) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = -1.0;
    e.score = 100.0;
    e.feasible = true;
    return e;
  });
  const LatticeResult result = TraverseInterventionLattice(df, {0, 1}, eval);
  EXPECT_FALSE(result.best.has_value());
  EXPECT_TRUE(result.positive.empty());
}

TEST(LatticeTest, ChildrenOnlyMaterializedWhenAllParentsPositive) {
  const DataFrame df = Frame();
  std::map<std::string, int> eval_counts;
  const LevelEvaluator eval = InOrder(
      [&](const Pattern& p) -> std::optional<TreatmentEval> {
    const std::string str = p.ToString(df.schema());
    ++eval_counts[str];
    TreatmentEval e;
    // t2 atoms have negative CATE; so no level-2 node containing t2 may be
    // evaluated.
    e.cate = str.find("t2") != std::string::npos ? -1.0 : 1.0;
    e.score = e.cate;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 2;
  const LatticeResult result =
      TraverseInterventionLattice(df, {0, 1}, eval, options);
  EXPECT_TRUE(result.best.has_value());
  for (const auto& [pattern_str, count] : eval_counts) {
    EXPECT_EQ(count, 1) << pattern_str << " evaluated more than once";
    // Level-2 patterns join across attributes; all contain "AND". None may
    // include a t2 predicate because those parents were negative.
    if (pattern_str.find(" AND ") != std::string::npos) {
      EXPECT_EQ(pattern_str.find("t2"), std::string::npos) << pattern_str;
    }
  }
}

TEST(LatticeTest, PairsCombineDistinctAttributesOnly) {
  const DataFrame df = Frame();
  size_t level2 = 0;
  const LevelEvaluator eval = InOrder(
      [&](const Pattern& p) -> std::optional<TreatmentEval> {
    if (p.size() == 2) {
      ++level2;
      EXPECT_EQ(p.Attributes().size(), 2u);
    }
    TreatmentEval e;
    e.cate = 1.0;
    e.score = 1.0;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 2;
  TraverseInterventionLattice(df, {0, 1}, eval, options);
  EXPECT_EQ(level2, 4u);  // {a,b} x {p,q}
}

TEST(LatticeTest, EvaluationCapRespected) {
  const DataFrame df = Frame();
  const LevelEvaluator eval = InOrder(
      [](const Pattern&) -> std::optional<TreatmentEval> {
    TreatmentEval e;
    e.cate = 1.0;
    e.score = 1.0;
    e.feasible = true;
    return e;
  });
  LatticeOptions options;
  options.max_predicates = 2;
  options.max_evaluations = 3;
  const LatticeResult result =
      TraverseInterventionLattice(df, {0, 1}, eval, options);
  EXPECT_EQ(result.num_evaluated, 3u);
}

TEST(LatticeTest, NulloptEvaluationsAreSkipped) {
  const DataFrame df = Frame();
  const LevelEvaluator eval = InOrder(
      [&df](const Pattern& p) -> std::optional<TreatmentEval> {
    if (p.ToString(df.schema()).find("t1") != std::string::npos) {
      return std::nullopt;  // unestimable
    }
    TreatmentEval e;
    e.cate = 2.0;
    e.score = 2.0;
    e.feasible = true;
    return e;
  });
  const LatticeResult result = TraverseInterventionLattice(df, {0, 1}, eval);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_EQ(result.best->Attributes()[0], 1u);
}

// The traversal as it ran before level batches: one evaluator call per
// candidate, the cap checked before each. The batched traversal must
// evaluate the same candidates in the same order and return the same
// result.
LatticeResult SequentialReference(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs,
    const std::function<std::optional<TreatmentEval>(const Pattern&)>& each,
    const LatticeOptions& options) {
  LatticeResult result;
  const std::vector<Predicate> atoms =
      EnumerateInterventionAtoms(df, mutable_attrs);
  struct Node {
    std::vector<uint32_t> atom_ids;
    Pattern pattern;
  };
  auto consider = [&](const Pattern& pattern, const TreatmentEval& eval) {
    if (!eval.feasible || eval.cate <= 0.0) return;
    if (!result.best.has_value() || eval.score > result.best_eval.score) {
      result.best = pattern;
      result.best_eval = eval;
    }
  };
  std::vector<Node> level;
  for (uint32_t i = 0; i < atoms.size(); ++i) {
    if (result.num_evaluated >= options.max_evaluations) return result;
    Pattern pattern = Pattern().With(atoms[i]);
    const auto eval = each(pattern);
    ++result.num_evaluated;
    if (!eval.has_value()) continue;
    consider(pattern, *eval);
    if (eval->cate > 0.0) result.positive.emplace_back(pattern, *eval);
    if (eval->cate > 0.0 || !options.require_positive_parents) {
      level.push_back({{i}, std::move(pattern)});
    }
  }
  std::set<std::vector<uint32_t>> positive;
  for (const Node& node : level) positive.insert(node.atom_ids);
  for (size_t k = 2; k <= options.max_predicates && level.size() > 1; ++k) {
    std::vector<Node> next;
    std::set<std::vector<uint32_t>> next_positive;
    for (size_t a = 0; a < level.size(); ++a) {
      for (size_t b = a + 1; b < level.size(); ++b) {
        const auto& ia = level[a].atom_ids;
        const auto& ib = level[b].atom_ids;
        if (!std::equal(ia.begin(), ia.end() - 1, ib.begin())) continue;
        if (ia.back() >= ib.back()) continue;
        if (atoms[ia.back()].attr == atoms[ib.back()].attr) continue;
        std::vector<uint32_t> candidate = ia;
        candidate.push_back(ib.back());
        if (options.require_positive_parents) {
          bool all_positive = true;
          for (size_t drop = 0; drop + 2 < candidate.size(); ++drop) {
            std::vector<uint32_t> parent = candidate;
            parent.erase(parent.begin() + static_cast<ptrdiff_t>(drop));
            if (positive.count(parent) == 0) all_positive = false;
          }
          if (!all_positive) continue;
        }
        if (result.num_evaluated >= options.max_evaluations) return result;
        Pattern pattern = level[a].pattern.With(atoms[ib.back()]);
        const auto eval = each(pattern);
        ++result.num_evaluated;
        if (!eval.has_value()) continue;
        consider(pattern, *eval);
        if (eval->cate > 0.0) {
          result.positive.emplace_back(pattern, *eval);
          next_positive.insert(candidate);
        }
        if (eval->cate > 0.0 || !options.require_positive_parents) {
          next.push_back({std::move(candidate), std::move(pattern)});
        }
      }
    }
    level = std::move(next);
    positive = std::move(next_positive);
  }
  return result;
}

TEST(LatticeTest, LevelBatchesMatchSequentialTraversal) {
  // Four mutable attributes with 2-4 categories; each pattern's CATE and
  // score are a fixed pseudo-random function of its text, with some
  // patterns unestimable and some infeasible, so pruning, selection and
  // the positive list all have work to do.
  auto schema = Schema::Create({
      {"a", AttrType::kCategorical, AttrRole::kMutable},
      {"b", AttrType::kCategorical, AttrRole::kMutable},
      {"c", AttrType::kCategorical, AttrRole::kMutable},
      {"d", AttrType::kCategorical, AttrRole::kMutable},
      {"o", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  const char* levels[] = {"x", "y", "z", "w"};
  for (size_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(df.AppendRow({Value(levels[r % 2]), Value(levels[r % 3]),
                              Value(levels[r]), Value(levels[r % 2]),
                              Value(1.0)})
                    .ok());
  }
  auto each = [&df](const Pattern& p) -> std::optional<TreatmentEval> {
    const uint64_t h = std::hash<std::string>()(p.ToString(df.schema()));
    if (h % 11 == 0) return std::nullopt;
    TreatmentEval e;
    e.cate = static_cast<double>(h % 7) - 2.0;
    e.score = static_cast<double>((h >> 8) % 101);
    e.feasible = (h >> 16) % 5 != 0;
    return e;
  };
  const std::vector<size_t> mutables = {0, 1, 2, 3};

  // The candidates of an uncapped, unpruned run: caps at every count up
  // to it cut each level at every position.
  LatticeOptions full;
  full.max_predicates = 3;
  full.require_positive_parents = false;
  const size_t total =
      SequentialReference(df, mutables, each, full).num_evaluated;
  ASSERT_GT(total, 20u);

  std::vector<size_t> caps(total + 2);  // every cut point, and none
  for (size_t i = 0; i < caps.size(); ++i) caps[i] = i;
  caps.push_back(50000);
  for (const bool prune : {true, false}) {
    for (const size_t cap : caps) {
      LatticeOptions options;
      options.max_predicates = 3;
      options.require_positive_parents = prune;
      options.max_evaluations = cap;
      const std::string tag = "prune=" + std::to_string(prune) +
                              " cap=" + std::to_string(cap);

      std::vector<std::string> want_order, got_order;
      const LatticeResult want = SequentialReference(
          df, mutables,
          [&](const Pattern& p) {
            want_order.push_back(p.ToString(df.schema()));
            return each(p);
          },
          options);
      const LatticeResult got = TraverseInterventionLattice(
          df, mutables, InOrder([&](const Pattern& p) {
            got_order.push_back(p.ToString(df.schema()));
            return each(p);
          }),
          options);

      EXPECT_EQ(got_order, want_order) << tag;
      EXPECT_EQ(got.num_evaluated, want.num_evaluated) << tag;
      ASSERT_EQ(got.best.has_value(), want.best.has_value()) << tag;
      if (want.best.has_value()) {
        EXPECT_EQ(got.best->ToString(df.schema()),
                  want.best->ToString(df.schema()))
            << tag;
        EXPECT_EQ(got.best_eval.score, want.best_eval.score) << tag;
      }
      ASSERT_EQ(got.positive.size(), want.positive.size()) << tag;
      for (size_t i = 0; i < want.positive.size(); ++i) {
        EXPECT_EQ(got.positive[i].first.ToString(df.schema()),
                  want.positive[i].first.ToString(df.schema()))
            << tag << " positive " << i;
        EXPECT_EQ(got.positive[i].second.cate, want.positive[i].second.cate)
            << tag;
      }
    }
  }
}

}  // namespace
}  // namespace faircap
