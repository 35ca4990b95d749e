// Intervention-pattern lattice traversal (Section 5.2). The space of all
// intervention patterns forms a lattice ordered by predicate inclusion; we
// traverse it top-down, materializing a node only when every parent
// (pattern with one fewer predicate) had a positive CATE. The evaluation
// itself — CATE estimation and fairness-aware benefit scoring — is supplied
// by the caller, which keeps this module independent of the causal layer.
//
// The traversal runs one level at a time. It builds a level's whole
// candidate list first (level 1 is every atom; level k joins the
// positive nodes of level k-1), cuts it at the evaluation cap, hands it to
// the caller's level evaluator as one batch, and then consumes the results
// in canonical order. Candidate generation reads only the previous
// level's results, so the best treatment, the positive list and the
// evaluation count are exactly those of evaluating one candidate at a
// time, while the evaluator is free to share work across the level (Step
// 2 groups it by confounder partition; see core/faircap.cc).

#ifndef FAIRCAP_MINING_LATTICE_H_
#define FAIRCAP_MINING_LATTICE_H_

#include <functional>
#include <optional>
#include <vector>

#include "mining/pattern.h"
#include "util/result.h"

namespace faircap {

/// Result of evaluating one candidate treatment.
struct TreatmentEval {
  double cate = 0.0;    ///< estimated conditional average treatment effect
  double score = 0.0;   ///< selection score (benefit); higher is better
  bool feasible = true; ///< satisfies per-rule constraints (e.g. individual fairness)
  double std_error = 0.0;  ///< standard error of `cate`
  /// Subgroup effects behind `score` when the evaluator estimated them
  /// (fairness-aware evaluation batches the protected / non-protected
  /// CATEs with the overall one); 0 otherwise. Winning treatments carry
  /// these into rule costing so the emitted rule needs no re-estimation.
  double utility_protected = 0.0;
  double utility_nonprotected = 0.0;
  /// False when a subgroup effect was needed but could not be estimated
  /// (no overlap); such treatments cannot have their fairness certified.
  bool subgroups_estimable = true;
  /// True when utility_protected / utility_nonprotected were actually
  /// estimated (fairness-aware evaluation), not defaulted.
  bool has_subgroup_utilities = false;
};

/// Evaluates one lattice level for a fixed grouping pattern: returns one
/// entry per pattern of `level`, in the same order — nullopt where the
/// effect cannot be estimated (no overlap, group too small). `cate` drives
/// lattice pruning; `score` drives selection. The evaluator may run the
/// level's patterns in any order; each result must depend on its own
/// pattern only.
using LevelEvaluator = std::function<std::vector<std::optional<TreatmentEval>>(
    const std::vector<Pattern>& level)>;

/// Tuning knobs for the traversal.
struct LatticeOptions {
  /// Maximum number of predicates in an intervention pattern.
  size_t max_predicates = 2;
  /// Safety cap on evaluated patterns per traversal; a level that would
  /// pass it is cut to the patterns that fit, in canonical order.
  size_t max_evaluations = 50000;
  /// The Section 5.2 pruning rule: materialize a node only when every
  /// parent had positive CATE. Disable for the ablation study (children
  /// of any evaluated parent are then expanded).
  bool require_positive_parents = true;
};

/// Outcome of a traversal.
struct LatticeResult {
  /// Feasible positive-CATE pattern with the highest score, if any.
  std::optional<Pattern> best;
  TreatmentEval best_eval;
  size_t num_evaluated = 0;
  /// All positive-CATE patterns seen (for diagnostics/tests).
  std::vector<std::pair<Pattern, TreatmentEval>> positive;
};

/// Candidate atoms for intervention patterns: one (attr = category)
/// predicate per category of each mutable categorical attribute.
/// Numeric mutable attributes are skipped (discretize first).
std::vector<Predicate> EnumerateInterventionAtoms(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs);

/// Traverses the lattice level by level and returns the best feasible
/// treatment.
LatticeResult TraverseInterventionLattice(
    const DataFrame& df, const std::vector<size_t>& mutable_attrs,
    const LevelEvaluator& evaluator, const LatticeOptions& options = {});

}  // namespace faircap

#endif  // FAIRCAP_MINING_LATTICE_H_
