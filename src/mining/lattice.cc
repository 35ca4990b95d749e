#include "mining/lattice.h"

#include <algorithm>
#include <string>
#include <unordered_set>

#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace faircap {

namespace {

/// Registry mirror of the per-result num_evaluated count, bumped once per
/// traversal (not per evaluation — the hot loop stays untouched).
void PublishEvaluations(size_t n) {
  static obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("mining.lattice_evaluations");
  evaluations.Add(n);
}

/// Counts traversal exits on every return path so the published total
/// always matches result.num_evaluated, including the max_evaluations
/// early returns.
struct EvaluationPublisher {
  const LatticeResult* result;
  ~EvaluationPublisher() { PublishEvaluations(result->num_evaluated); }
};

}  // namespace

std::vector<Predicate> EnumerateInterventionAtoms(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs) {
  std::vector<Predicate> atoms;
  for (size_t attr : mutable_attrs) {
    const Column& col = df.column(attr);
    if (col.type() != AttrType::kCategorical) continue;
    for (size_t code = 0; code < col.num_categories(); ++code) {
      atoms.emplace_back(attr, CompareOp::kEq,
                         Value(col.CategoryName(static_cast<int32_t>(code))));
    }
  }
  return atoms;
}

LatticeResult TraverseInterventionLattice(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs,
    const LevelEvaluator& evaluator, const LatticeOptions& options) {
  const obs::TraceSpan lattice_span("lattice");
  LatticeResult result;
  const EvaluationPublisher publish{&result};
  const std::vector<Predicate> atoms =
      EnumerateInterventionAtoms(df, mutable_attrs);

  // A level as parallel arrays: node i is patterns[i], whose sorted atom
  // ids (one per attribute) are atom_ids[i].
  struct Level {
    std::vector<std::vector<uint32_t>> atom_ids;
    std::vector<Pattern> patterns;
  };

  auto consider = [&](const Pattern& pattern, const TreatmentEval& eval) {
    if (!eval.feasible || eval.cate <= 0.0) return;
    if (!result.best.has_value() || eval.score > result.best_eval.score) {
      result.best = pattern;
      result.best_eval = eval;
    }
  };

  // Track which atom-id sets had positive CATE so children can check that
  // every parent was positive before materializing.
  auto key_of = [](const std::vector<uint32_t>& ids) {
    std::string key;
    for (uint32_t id : ids) {
      key += std::to_string(id);
      key += ',';
    }
    return key;
  };
  std::unordered_set<std::string> positive_keys;

  // The candidates of the level after `level`: joins of two nodes that
  // share all but their last atom, on distinct attributes, kept only if
  // every parent had positive CATE (Section 5.2).
  auto join = [&](const Level& level) {
    Level next;
    for (size_t a = 0; a < level.patterns.size(); ++a) {
      for (size_t b = a + 1; b < level.patterns.size(); ++b) {
        const auto& ia = level.atom_ids[a];
        const auto& ib = level.atom_ids[b];
        if (!std::equal(ia.begin(), ia.end() - 1, ib.begin())) continue;
        const uint32_t last_a = ia.back();
        const uint32_t last_b = ib.back();
        if (last_a >= last_b) continue;
        // One predicate per attribute: conflicting assignments to the same
        // attribute cannot both hold.
        if (atoms[last_a].attr == atoms[last_b].attr) continue;

        std::vector<uint32_t> candidate = ia;
        candidate.push_back(last_b);

        if (options.require_positive_parents) {
          bool all_parents_positive = true;
          for (size_t drop = 0; drop + 2 < candidate.size(); ++drop) {
            std::vector<uint32_t> parent;
            for (size_t i = 0; i < candidate.size(); ++i) {
              if (i != drop) parent.push_back(candidate[i]);
            }
            if (positive_keys.count(key_of(parent)) == 0) {
              all_parents_positive = false;
              break;
            }
          }
          if (!all_parents_positive) continue;
        }
        next.patterns.push_back(level.patterns[a].With(atoms[last_b]));
        next.atom_ids.push_back(std::move(candidate));
      }
    }
    return next;
  };

  // Level 1: every atom.
  Level candidates;
  for (uint32_t i = 0; i < atoms.size(); ++i) {
    candidates.atom_ids.push_back({i});
    candidates.patterns.push_back(Pattern().With(atoms[i]));
  }
  for (size_t k = 1;; ++k) {
    // Cut the level at the evaluation cap, keeping canonical order.
    const size_t room =
        options.max_evaluations -
        std::min(options.max_evaluations, result.num_evaluated);
    const bool cut = candidates.patterns.size() > room;
    if (cut) {
      candidates.patterns.resize(room);
      candidates.atom_ids.resize(room);
    }
    const std::vector<std::optional<TreatmentEval>> evals =
        candidates.patterns.empty()
            ? std::vector<std::optional<TreatmentEval>>()
            : evaluator(candidates.patterns);
    FAIRCAP_CHECK(evals.size() == candidates.patterns.size());
    result.num_evaluated += evals.size();

    // Consume the results in canonical order; the nodes that may have
    // children form the level the next candidates join.
    Level level;
    std::unordered_set<std::string> level_keys;
    for (size_t i = 0; i < evals.size(); ++i) {
      if (!evals[i].has_value()) continue;
      const TreatmentEval& eval = *evals[i];
      Pattern& pattern = candidates.patterns[i];
      consider(pattern, eval);
      if (eval.cate > 0.0) {
        result.positive.emplace_back(pattern, eval);
        level_keys.insert(key_of(candidates.atom_ids[i]));
      }
      if (eval.cate > 0.0 || !options.require_positive_parents) {
        level.patterns.push_back(std::move(pattern));
        level.atom_ids.push_back(std::move(candidates.atom_ids[i]));
      }
    }
    if (cut || k + 1 > options.max_predicates || level.patterns.size() <= 1) {
      return result;
    }
    positive_keys = std::move(level_keys);
    candidates = join(level);
  }
}

}  // namespace faircap
