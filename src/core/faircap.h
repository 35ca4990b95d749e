// FairCap: the end-to-end three-step algorithm (Section 5).
//   Step 1 — mine grouping patterns with Apriori over immutable attributes;
//   Step 2 — per grouping pattern, lattice-traverse intervention patterns,
//            scoring treatments by the fairness-aware benefit;
//   Step 3 — greedily select a ruleset under fairness and coverage
//            constraints.
// All 18 problem variants (3 coverage x 6 fairness choices) are expressed
// through FairCapOptions.

#ifndef FAIRCAP_CORE_FAIRCAP_H_
#define FAIRCAP_CORE_FAIRCAP_H_

#include <memory>
#include <vector>

#include "causal/dag.h"
#include "causal/estimator.h"
#include "core/coverage.h"
#include "core/fairness.h"
#include "core/cost.h"
#include "core/greedy.h"
#include "core/rule.h"
#include "core/ruleset.h"
#include "dataframe/dataframe.h"
#include "mining/apriori.h"
#include "mining/lattice.h"
#include "util/result.h"

namespace faircap {

class IncrementalState;  // core/incremental.h
class TaskScheduler;     // util/task_scheduler.h

/// All tuning knobs of the pipeline.
struct FairCapOptions {
  AprioriOptions apriori;
  LatticeOptions lattice;
  CateOptions cate;
  GreedyOptions greedy;
  FairnessConstraint fairness;
  CoverageConstraint coverage;
  /// Pool workers for Step-2 mining and greedy selection (0 = hardware
  /// concurrency, 1 = sequential); Run starts one pool for both. Grouping
  /// patterns are the unit of parallel work: each runs its whole
  /// intervention lattice as one index of a ParallelFor on the flat pool
  /// (util/task_scheduler.h), largest pattern first; the pool's calling
  /// thread claims patterns too, so T > 1 mines on T + 1 threads. Every evaluation sums its rows in
  /// ascending order. A pattern's results land in its own slot, so the
  /// selected rules and their utilities are bit-identical at every thread
  /// count.
  size_t num_threads = 0;
  /// Byte cap for the estimator's per-treatment engine cache
  /// (CateEstimator::SetEngineMemoryBudget). 0 = unlimited.
  size_t engine_memory_budget = 0;
  /// Drop mutable attributes with no directed path to the outcome in the
  /// DAG (optimization (i) of Section 5.2).
  bool prune_non_causal_attrs = true;
  /// Overlap floor for the protected / non-protected subgroup CATEs
  /// (smaller than the full-group floor because subgroups are smaller;
  /// estimates stay unbiased, just noisier).
  size_t min_subgroup_arm = 5;
  /// Keep, per grouping pattern, every feasible positive treatment as a
  /// candidate rather than only the best one. More candidates give greedy
  /// more room; the paper keeps the best treatment per group.
  bool keep_all_treatments = false;
  /// Optional intervention cost model (Section 8 extension). When set and
  /// greedy.budget > 0, selection maximizes marginal score per unit cost
  /// and the total ruleset cost never exceeds the budget.
  std::shared_ptr<const InterventionCostModel> cost_model;
  /// Cross-run reuse state for delta-aware re-mining (core/incremental.h).
  /// When set, Step-2 caches sufficient statistics per (grouping,
  /// intervention) across runs — after an append, only the delta rows are
  /// accumulated — and re-emits whole groups whose support the delta left
  /// untouched. A cold-cache run is
  /// bit-identical to one without the state; after appends, integer
  /// outcomes stay exact and FP matches to within one reassociation of
  /// each per-slot sum (<=1e-9 relative).
  /// Typically owned by an IncrementalSession.
  std::shared_ptr<IncrementalState> incremental_state;
};

/// Execution counters of the Step-2 pool (observability: the CLI logs
/// these after a run, and the same numbers land in the metrics registry —
/// util/obs/metrics.h — for the machine-readable run report).
struct SchedulerStats {
  size_t workers = 0;  ///< pool workers besides the caller (0 = inline)
  size_t tasks = 0;    ///< grouping patterns run (claimed or inline)
};

/// Wall-clock seconds per pipeline step (Figure 3).
struct StepTimings {
  double group_mining_seconds = 0.0;
  double treatment_mining_seconds = 0.0;
  double selection_seconds = 0.0;
  double total() const {
    return group_mining_seconds + treatment_mining_seconds +
           selection_seconds;
  }
};

/// Output of a full pipeline run.
struct FairCapResult {
  std::vector<PrescriptionRule> rules;  ///< the selected ruleset
  RulesetStats stats;
  StepTimings timings;
  bool constraints_satisfied = false;
  /// Total intervention cost (0 unless a cost model and budget were set).
  double total_cost = 0.0;
  size_t num_grouping_patterns = 0;
  size_t num_candidate_rules = 0;
  size_t num_treatment_evaluations = 0;
  SchedulerStats scheduler;
};

/// The FairCap solver. Holds borrowed references to the data and DAG; both
/// must outlive the solver.
class FairCap {
 public:
  /// Validates inputs and prepares the estimator. `protected_pattern`
  /// defines P_p over immutable attributes (it may reference any
  /// attribute, but must not reference the outcome).
  static Result<FairCap> Create(const DataFrame* df, const CausalDag* dag,
                                Pattern protected_pattern,
                                FairCapOptions options = {});

  /// Runs all three steps and returns the selected ruleset with metrics.
  Result<FairCapResult> Run() const;

  /// Step 1 only: grouping patterns over immutable attributes.
  Result<std::vector<FrequentPattern>> MineGroupingPatterns() const;

  /// Step 2 only: candidate prescription rules for the given grouping
  /// patterns, in parallel over the patterns on one flat pool: each
  /// pattern runs its whole intervention lattice on one thread.
  /// Each lattice level is evaluated in batches of treatments that share
  /// a confounder partition; a batch of at least four reads the pattern's
  /// rows from one compacted view (CompactGroup) instead of the table.
  /// Also usable with externally supplied grouping patterns (baseline
  /// adapters, Section 7.1).
  /// `scheduler_stats`, when non-null, receives the run's execution
  /// counters. `pool` runs the patterns when non-null (Run passes the one
  /// pool it shares with selection); otherwise a pool of
  /// options().num_threads is started for the call.
  Result<std::vector<PrescriptionRule>> MineCandidateRules(
      const std::vector<FrequentPattern>& groups,
      size_t* num_evaluations = nullptr,
      SchedulerStats* scheduler_stats = nullptr,
      TaskScheduler* pool = nullptr) const;

  /// Builds a fully-costed PrescriptionRule from explicit patterns: CATE
  /// estimates for overall / protected / non-protected plus coverage.
  /// Utilities default to 0 where the paper defines them so (empty
  /// coverage) or where estimation is impossible (no overlap).
  PrescriptionRule CostRule(const Pattern& grouping,
                            const Pattern& intervention) const;

  /// Same, reusing a lattice evaluation of this (grouping, intervention)
  /// pair: when `eval` carries the subgroup utilities (fairness-aware
  /// mining estimated them against the grouping's coverage — the exact
  /// bitmap the rule covers), the rule is costed without re-estimating
  /// anything. Falls back to full estimation otherwise.
  PrescriptionRule CostRule(const Pattern& grouping,
                            const Pattern& intervention,
                            const TreatmentEval* eval) const;

  /// Brings cached state current after rows were appended to the table
  /// (DataFrame::AppendFrame): re-evaluates the protected mask over the
  /// grown table, refreshes the estimator's partitions/engines
  /// (CateEstimator::NotifyAppend) and revalidates the incremental
  /// caches when options carry an IncrementalState. Must not run
  /// concurrently with Run/Mine calls — call it right after the append.
  CateEstimator::AppendRefreshStats NotifyAppend();

  const Bitmap& protected_mask() const { return protected_mask_; }
  const CateEstimator& estimator() const { return estimator_; }
  const FairCapOptions& options() const { return options_; }

  /// Mutable attributes that survive DAG pruning (optimization (i)).
  const std::vector<size_t>& mutable_attrs() const { return mutable_attrs_; }

 private:
  FairCap(const DataFrame* df, const CausalDag* dag, Pattern protected_pattern,
          Bitmap protected_mask, CateEstimator estimator,
          std::vector<size_t> mutable_attrs, FairCapOptions options);

  const DataFrame* df_;
  const CausalDag* dag_;
  Pattern protected_pattern_;
  Bitmap protected_mask_;
  CateEstimator estimator_;
  std::vector<size_t> mutable_attrs_;
  FairCapOptions options_;
};

}  // namespace faircap

#endif  // FAIRCAP_CORE_FAIRCAP_H_
