// CATE estimation on observational data (Section 3). Given a causal DAG,
// an outcome O, an intervention pattern P_int and a subpopulation B, we
// estimate
//
//   CATE(T, O | B) = E_Z[ E[O | T=1, B, Z=z] - E[O | T=0, B, Z=z] ]
//
// where T = 1 iff the row satisfies P_int, and Z is a backdoor adjustment
// set derived from the DAG (parents of the treatment attributes).
// Three methods are provided:
//   * regression: O ~ alpha + beta*T + gamma' one-hot(Z); beta is the CATE
//     (the default, mirroring DoWhy's linear-regression estimator);
//   * stratified: exact matching over joint Z cells with overlap filtering;
//   * IPW: clipped Hajek inverse-propensity weighting.
// All three are answered by one path: the per-treatment sufficient-
// statistics engine (causal/cate_stats_engine.h).

#ifndef FAIRCAP_CAUSAL_ESTIMATOR_H_
#define FAIRCAP_CAUSAL_ESTIMATOR_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "causal/dag.h"
#include "dataframe/dataframe.h"
#include "mining/pattern.h"
#include "util/result.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {

class CateStatsEngine;       // causal/cate_stats_engine.h
class CompactGroup;          // causal/cate_stats_engine.h
class ConfounderPartition;   // causal/cate_stats_engine.h

/// Estimation method.
enum class CateMethod {
  kRegression,  ///< linear adjustment (default)
  kStratified,  ///< exact matching over confounder cells
  kIpw,         ///< inverse propensity weighting (Hajek estimator)
};

/// Tuning knobs for CATE estimation.
struct CateOptions {
  CateMethod method = CateMethod::kRegression;
  /// Minimum number of treated and of control rows for a valid estimate.
  size_t min_group_size = 10;
  /// Strata smaller than this (on either arm) are dropped (stratified).
  size_t min_stratum_arm = 1;
  /// Ridge added to the normal equations (regression).
  double ridge = 1e-6;
  /// Quantile bins for numeric confounders (stratified method).
  size_t numeric_confounder_bins = 4;
  /// Propensity clipping bounds (IPW method).
  double propensity_clip = 0.02;
};

/// One CATE estimate.
struct CateEstimate {
  double cate = 0.0;
  double std_error = 0.0;
  size_t n_treated = 0;
  size_t n_control = 0;
  /// |cate| / std_error; 0 when std_error is 0.
  double t_statistic() const {
    return std_error > 0.0 ? cate / std_error : 0.0;
  }
};

/// Result of one batch estimation: the same intervention's effect within
/// the full group and within its protected / non-protected split, served
/// by a single sufficient-statistics pass. Individual fields carry their
/// own Status (e.g. insufficient overlap in one subgroup does not void
/// the others); fields that were not requested (or were skipped by
/// lattice-style short-circuiting) stay FailedPrecondition("not
/// computed").
struct CateSubgroupEstimates {
  Result<CateEstimate> overall{Status::FailedPrecondition("not computed")};
  Result<CateEstimate> protected_group{
      Status::FailedPrecondition("not computed")};
  Result<CateEstimate> nonprotected{
      Status::FailedPrecondition("not computed")};
};

/// Estimates CATE values for intervention patterns over subpopulations of
/// a fixed DataFrame under a fixed causal DAG. Thread-safe: internal
/// caches (adjustment sets, confounder partitions, per-treatment engines)
/// are mutex-guarded so the mining phase can fan out across grouping
/// patterns. The table may grow only through DataFrame::AppendFrame
/// followed by NotifyAppend, between estimation calls.
class CateEstimator {
 public:
  /// `df` and `dag` must outlive the estimator. DAG node names are matched
  /// to schema attribute names; attributes absent from the DAG contribute
  /// no confounders.
  static Result<CateEstimator> Create(const DataFrame* df,
                                      const CausalDag* dag,
                                      CateOptions options = {});

  /// Estimates the effect of each of `interventions` (T=1 iff the
  /// pattern matches) on the outcome within `group` and, when
  /// `protected_mask` is non-null, within group ∩ protected and group ∩
  /// ¬protected: one word-driven accumulation per treatment
  /// (CateStatsEngine), and no non-protected bitmap is ever materialized.
  /// Engines are cached per treatment and confounder partitions per
  /// adjustment set (LRU + shared ownership, like the PredicateIndex
  /// conjunction cache). The overall estimate is floored by the configured
  /// min_group_size; `min_subgroup_size` floors the two subgroup estimates
  /// (0 = the configured min_group_size). An estimate whose arm falls below
  /// its floor, or with no overlapping stratum, carries FailedPrecondition
  /// in its own field. With `skip_subgroups_unless_positive` the subgroup
  /// systems are solved only when the overall CATE came out positive (the
  /// lattice prunes on the overall sign).
  ///
  /// The interventions are batched by their engines' confounder
  /// partition, in first-appearance order, and each batch is handed to
  /// CateStatsEngine::EstimateSubgroupsBatch, which reads a large batch
  /// from `view` and a small one from the table, up to four treatments
  /// per fused pass either way. `view`, when
  /// non-null, is an empty CompactGroup or one that earlier calls filled
  /// from this same `group` and `protected_mask`. Every entry holds the
  /// bits a batch of one would give it. An intervention that is empty or
  /// does not validate against the table fails its own entry only; the
  /// call fails (InvalidArgument) when `group` or `protected_mask` does
  /// not span exactly the table's rows.
  Result<std::vector<Result<CateSubgroupEstimates>>> EstimateSubgroupsBatch(
      const std::vector<const Pattern*>& interventions, const Bitmap& group,
      const Bitmap* protected_mask, size_t min_subgroup_size = 0,
      bool skip_subgroups_unless_positive = false,
      CompactGroup* view = nullptr) const;

  /// EstimateSubgroupsBatch for one intervention: its entry, or the call's
  /// failure.
  Result<CateSubgroupEstimates> EstimateSubgroups(
      const Pattern& intervention, const Bitmap& group,
      const Bitmap* protected_mask, size_t min_subgroup_size = 0,
      bool skip_subgroups_unless_positive = false) const;

  /// The cached sufficient-statistics engine for `intervention`, built on
  /// first use. Shared ownership: the engine stays valid for the holder
  /// even if the budgeted LRU cache evicts it mid-use.
  Result<std::shared_ptr<const CateStatsEngine>> EngineFor(
      const Pattern& intervention) const;

  /// Caps the bytes held by cached engines and confounder partitions
  /// (mirrors PredicateIndex::SetMemoryBudget). 0 = unlimited (default).
  /// Evicts least-recently-used engines immediately when shrinking;
  /// partitions are freed when the last engine referencing them goes.
  void SetEngineMemoryBudget(size_t max_bytes);

  /// What an append-refresh did to the cached state (tests and the
  /// append.* run-report counters).
  struct AppendRefreshStats {
    size_t partitions_extended = 0;  ///< copy-extended by whole delta rows
    size_t partitions_rebuilt = 0;   ///< not extendable; dropped for cold rebuild
    size_t engines_refreshed = 0;    ///< rebuilt onto extended partition + mask
    size_t engines_dropped = 0;      ///< erased (their partition was dropped)
  };

  /// Brings the cached state current after rows were appended to the
  /// table (DataFrame::AppendFrame). Adjustment sets are kept
  /// (schema/DAG-only). Every live confounder partition is extended in
  /// place over the delta rows where possible (purely categorical
  /// confounders with no new categories — see
  /// ConfounderPartition::ExtendInPlace) and each cached
  /// engine is re-pointed at the extended partition and the lazily
  /// extended treated mask; engines whose partition could not be
  /// extended are evicted and rebuilt cold on next use. Must not run
  /// concurrently with estimation calls — call it between mining runs,
  /// right after the append.
  AppendRefreshStats NotifyAppend();

  /// Engine-cache observability (tests and benchmarks).
  struct EngineCacheStats {
    size_t engines = 0;     ///< cached engines
    size_t partitions = 0;  ///< alive confounder partitions
    size_t bytes = 0;       ///< partition + engine bytes held
    size_t hits = 0;
    size_t misses = 0;
    size_t evictions = 0;
  };
  EngineCacheStats GetEngineStats() const;

  /// Backdoor adjustment set (as DataFrame column indices) for the given
  /// intervention's treatment attributes.
  Result<std::vector<size_t>> AdjustmentAttrs(
      const Pattern& intervention) const;

  /// Bitmap of rows satisfying `intervention` over the full DataFrame,
  /// served from the DataFrame's shared PredicateIndex (memoized across
  /// calls, call sites, and estimators over the same table). Shared
  /// ownership: the mask stays valid for the holder even if a
  /// budget-capped index evicts it mid-estimate.
  std::shared_ptr<const Bitmap> TreatedMask(const Pattern& intervention) const;

  const DataFrame& data() const { return *df_; }
  size_t outcome_attr() const { return outcome_attr_; }
  const CateOptions& options() const { return options_; }

 private:
  CateEstimator(const DataFrame* df, const CausalDag* dag,
                CateOptions options, size_t outcome_attr, size_t outcome_node);

  /// Confounder partition for `adjustment`, built once and shared across
  /// every treatment with the same attributes (weak-cached: alive as long
  /// as some engine holds it).
  std::shared_ptr<const ConfounderPartition> PartitionFor(
      const std::vector<size_t>& adjustment) const;

  /// Evicts LRU engines while over the engine budget. Caller holds mu_.
  void EnforceEngineBudgetLocked() const REQUIRES(*mu_);
  size_t EngineBytesLocked() const REQUIRES(*mu_);

  const DataFrame* df_;
  const CausalDag* dag_;
  CateOptions options_;
  size_t outcome_attr_;
  size_t outcome_node_;

  // Behind unique_ptr so the estimator stays movable (mutex is not); the
  // guards dereference it (GUARDED_BY(*mu_)), which the analysis resolves.
  // Treatment masks are NOT cached here: they come from the DataFrame's
  // PredicateIndex, shared with the mining layer.
  std::unique_ptr<Mutex> mu_;
  mutable std::unordered_map<std::string, std::vector<size_t>>
      adjustment_cache_ GUARDED_BY(*mu_);

  // Per-treatment engine cache: Pattern::Key() -> engine, with an LRU
  // list (most-recent first) driving byte-budget eviction. Partitions are
  // weak-cached per adjustment key: they stay alive exactly as long as
  // some engine (cached or handed out) references them.
  struct EngineEntry {
    std::shared_ptr<const CateStatsEngine> engine;
    std::list<std::string>::iterator lru_pos;
    /// The intervention the engine serves — NotifyAppend re-evaluates it
    /// to refresh the treated mask over the appended rows.
    Pattern pattern;
  };
  mutable std::unordered_map<std::string, EngineEntry> engines_
      GUARDED_BY(*mu_);
  mutable std::list<std::string> engine_lru_ GUARDED_BY(*mu_);
  mutable std::unordered_map<std::string,
                             std::weak_ptr<const ConfounderPartition>>
      partitions_ GUARDED_BY(*mu_);
  mutable size_t engine_budget_ GUARDED_BY(*mu_) = 0;  // 0 = unlimited
  mutable size_t engine_hits_ GUARDED_BY(*mu_) = 0;
  mutable size_t engine_misses_ GUARDED_BY(*mu_) = 0;
  mutable size_t engine_evictions_ GUARDED_BY(*mu_) = 0;
};

}  // namespace faircap

#endif  // FAIRCAP_CAUSAL_ESTIMATOR_H_
