// Incremental append + delta-aware re-mining (perf optimization): after
// rows are appended to the table (DataFrame::AppendFrame), a re-mine
// should pay only for what the delta touched — appending 1% of the rows
// should cost ~1% of a cold run. Two reuse levels, both self-validating:
//
//   * Accum-level (always on): per-(grouping, intervention) sufficient
//     statistics (CateStatsEngine::SubgroupAccums) are cached across
//     runs. On a hit whose partition lineage still matches, only the
//     delta rows [rows_covered, num_rows) are accumulated and merged in
//     by per-slot addition, so integer statistics match a cold
//     accumulation bit for bit and FP statistics to within one
//     reassociation (<=1e-9 relative). A partition rebuilt cold gets a
//     fresh lineage id, so a stale accum can never be merged against
//     re-numbered cells.
//
//   * Group-level (gated): a grouping pattern whose support did not
//     change gained no delta rows, so every estimate over its coverage
//     is untouched — its cached candidate rules are re-emitted without
//     re-running the intervention lattice. Sound only while no numeric
//     attribute could enter an adjustment set (numeric quantile edges
//     shift under appends, silently re-binning resident rows) — the
//     gate is computed once from the schema. Any categorical column
//     gaining categories voids everything (cell numbering, one-hot
//     layouts and the intervention atom set all change): the caches are
//     cleared and the next run is a full re-mine.
//
// IncrementalSession packages the pattern: it owns the table, DAG and a
// single long-lived FairCap wired to a shared IncrementalState, so
// Run / Append / Run sequences reuse everything the append left valid.
// All reuse decisions surface as append.* counters in the run report.

#ifndef FAIRCAP_CORE_INCREMENTAL_H_
#define FAIRCAP_CORE_INCREMENTAL_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "causal/cate_stats_engine.h"
#include "core/faircap.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {

/// Cross-run reuse state for delta-aware re-mining. Thread-safe for the
/// Step-2 pattern fan-out (each grouping pattern is mined by exactly one
/// task per run; the maps are mutex-guarded, entries are pointer-stable).
/// Runs must not overlap each other or OnAppend.
class IncrementalState {
 public:
  IncrementalState() = default;

  /// Records the schema snapshot reuse soundness is judged against
  /// (per-column category counts, the numeric-attribute gate). Called by
  /// FairCap::Create when the options carry this state; idempotent for
  /// the same table.
  void Attach(const DataFrame& df);

  /// Brings the state current after DataFrame::AppendFrame. If any
  /// categorical column gained categories, every cache is cleared and
  /// `append.full_remines` is incremented (the next run re-mines cold);
  /// otherwise the caches stay valid and the next run reuses them.
  void OnAppend(const DataFrame& df);

  /// Group-level reuse: when sound (see header comment) and the group's
  /// support matches the cached run, re-materializes the cached candidate
  /// rules (each rule's coverage bitmap is copied from `group.coverage`,
  /// which the Apriori re-run already extended; the stored support and
  /// protected support still hold because no delta row entered the
  /// coverage) and returns true. Counts
  /// `append.patterns_reused` on a hit, `append.patterns_rechecked` on a
  /// miss.
  bool TryReuseGroup(const FrequentPattern& group,
                     std::vector<PrescriptionRule>* rules,
                     size_t* num_evaluated);

  /// Stores a mined group's candidate rules for the next run. Coverage
  /// bitmaps are dropped (each is re-materialized on reuse).
  void StoreGroup(const FrequentPattern& group,
                  const std::vector<PrescriptionRule>& rules,
                  size_t num_evaluated);

  /// Accum-level reuse: the drop-in replacement for
  /// CateEstimator::EstimateSubgroups on the batch path. Accumulation is
  /// always split on `protected_mask` so one cached shape serves both
  /// the fairness-aware evaluator and rule costing; `want_subgroups`
  /// controls which solves run. Cache hit with matching partition
  /// lineage: accumulate only the delta rows and merge
  /// (`append.evals_delta`), or solve straight from the cache when
  /// already current (`append.evals_cached`). Miss or stale lineage:
  /// full pass, cached for next time
  /// (`append.evals_full`).
  Result<CateSubgroupEstimates> EstimateWithCache(
      const CateEstimator& estimator, const std::string& group_key,
      const Pattern& intervention, const Bitmap& group,
      const Bitmap& protected_mask, bool want_subgroups,
      size_t min_subgroup_size, bool skip_subgroups_unless_positive);

  /// Cache observability (tests, CLI `append` verb).
  struct CacheStats {
    size_t accum_entries = 0;
    size_t group_entries = 0;
    size_t accum_bytes = 0;  ///< approximate
    bool group_reuse_sound = false;
  };
  CacheStats GetCacheStats() const;

 private:
  struct AccumEntry {
    CateStatsEngine::SubgroupAccums accums;
    uint64_t lineage = 0;  ///< partition lineage the cell slots refer to
  };
  struct GroupEntry {
    size_t support = 0;
    std::vector<PrescriptionRule> rules;  ///< coverage bitmaps empty
    size_t num_evaluated = 0;
  };

  static size_t AccumBytes(const CateStatsEngine::SubgroupAccums& accums);

  mutable Mutex mu_;
  bool attached_ GUARDED_BY(mu_) = false;
  /// False once any non-outcome numeric attribute exists: appended rows
  /// shift quantile edges, re-binning resident rows, so support-unchanged
  /// no longer implies estimates-unchanged.
  bool numeric_ok_ GUARDED_BY(mu_) = false;
  std::vector<size_t> category_counts_ GUARDED_BY(mu_);
  /// Pointer-valued so entries stay stable across rehash; an entry is
  /// mutated outside the lock only by the one pattern task mining its
  /// group this run.
  std::unordered_map<std::string, std::unique_ptr<AccumEntry>> accums_
      GUARDED_BY(mu_);
  std::unordered_map<std::string, GroupEntry> groups_ GUARDED_BY(mu_);
  size_t accum_bytes_ GUARDED_BY(mu_) = 0;
};

/// Owns a dataset and one long-lived FairCap wired for incremental
/// re-mining: Run / Append / Run sequences reuse index masks, confounder
/// partitions, engines, sufficient statistics and (when sound) whole
/// mined groups across the appends.
class IncrementalSession {
 public:
  /// Takes ownership of the table and DAG (pinned behind unique_ptr so
  /// the borrowed references inside FairCap stay stable).
  static Result<IncrementalSession> Create(DataFrame df, CausalDag dag,
                                           Pattern protected_pattern,
                                           FairCapOptions options = {});

  /// Full pipeline run over the current table; warm after an Append.
  Result<FairCapResult> Run();

  /// Appends `delta`'s rows (same schema) to the table and refreshes all
  /// cached state: predicate-index masks extend lazily, confounder
  /// partitions and engines are copy-extended where possible, and the
  /// incremental caches are validated (or cleared when the delta voids
  /// them). Counts append.rows_appended / append.batches.
  Status Append(const DataFrame& delta);

  const DataFrame& df() const { return *df_; }
  FairCap& faircap() { return *faircap_; }
  IncrementalState& state() { return *state_; }

 private:
  IncrementalSession() = default;

  std::unique_ptr<DataFrame> df_;
  std::unique_ptr<CausalDag> dag_;
  std::shared_ptr<IncrementalState> state_;
  std::unique_ptr<FairCap> faircap_;
};

}  // namespace faircap

#endif  // FAIRCAP_CORE_INCREMENTAL_H_
