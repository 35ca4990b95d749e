// CateStatsEngine: per-treatment sufficient-statistics engine behind the
// batch CATE API. Step-2 mining scores every candidate treatment three
// times — overall, protected, and non-protected CATE — and a per-call
// estimator (the test-side reference, tests/reference/) redoes the full
// design-matrix / stratum pass over the table each time. But for all
// three estimation methods the estimate for ANY subgroup is a function of
// per-joint-confounder-stratum, per-arm sufficient statistics:
//
//   * stratified:  per-(stratum, arm) {n, Σy, Σy²} reproduce the exact
//     matching estimator bit for bit;
//   * regression:  within a stratum the one-hot confounder block of the
//     design row is constant, so X'X / X'y / y'y assemble from the same
//     cell stats (plus small per-cell numeric-confounder moments);
//   * IPW:         the propensity design is also cell-constant when the
//     confounders are categorical, so the logistic fit runs on grouped
//     per-cell counts and the Hajek sums come from the cell stats.
//
// The engine therefore partitions the table ONCE per adjustment set into
// joint-confounder cells (ConfounderPartition, shared across treatments
// with the same treatment attributes) and holds the treated mask via
// shared ownership from the PredicateIndex. Any subgroup bitmap — rule
// coverage, protected, non-protected — is answered by slicing: one
// word-at-a-time pass ANDs the group mask against the partition,
// accumulates the cell stats, and solves the small per-subgroup systems
// instead of rebuilding design matrices. The batch entry point answers
// the overall / protected / non-protected triple from a single pass by
// splitting the accumulation on the protected bit, so the non-protected
// bitmap is never materialized at all.
//
// Step 2 evaluates ~160 treatments against one grouping pattern, and the
// treatments of one lattice level share a few partitions. It hands each
// level to EstimateSubgroupsBatch one partition at a time, which picks
// how to read the group's rows. A batch large enough to pay for a view
// reads a CompactGroup: the group's rows gathered once per pattern (the
// non-zero words of group ∧ valid and the rows' outcomes) and their
// cells, renumbered densely 0..k-1, once per partition. Each treatment
// then accumulates 2k slots from those dense arrays, and the solvers
// walk the k cells the group touches instead of all C cells of the
// partition. Every solver iterates an accum's cell list: for the table
// pass it is the partition's 0..C-1, for a compact pass the touched cells
// in ascending order, so one set of solvers serves both and the
// estimates are the same bits. A smaller batch walks the table.
//
// Either way the treatments are read together: up to
// simd::kMaxCateBatch treatments over one partition are accumulated in
// one pass, which reads each row's bits, cell id and outcome once and
// adds the row to every treatment's own accums. A single treatment, and
// an append's delta pass from its boundary row, are the same table pass
// with one treatment.
//
// Every statistic is summed in one representation: counts in integers,
// outcome sums and moments in double, added in ascending row order. A
// slot's count, Σy and Σy² sit together in one record (simd::CateSlot),
// so a row's update touches one record per subgroup. On an
// integer-valued outcome each partial Σy and Σy² is an integer, exact in
// double while below 2^53, so those sums are the same bits under every
// thread count and append schedule.

#ifndef FAIRCAP_CAUSAL_CATE_STATS_ENGINE_H_
#define FAIRCAP_CAUSAL_CATE_STATS_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "causal/estimator.h"
#include "dataframe/bitmap.h"
#include "dataframe/dataframe.h"
#include "util/result.h"
#include "util/simd/simd.h"

namespace faircap {

/// Quantile bin edges for a numeric confounder (the stratified method's
/// binning). Shared by the partition build and the test-side reference
/// estimator so the two can never drift.
std::vector<double> QuantileBinEdges(const Column& col, size_t bins);

/// Hajek (self-normalized) IPW from materialized per-row propensity
/// design rows: fits the logistic propensity model, clips, and assembles
/// the weighted means and their linearized variance. The single shared
/// implementation behind the engine's numeric-confounder fallback and the
/// test-side reference IPW estimator — the two must stay bit-for-bit
/// identical for the pinning tests to mean anything.
Result<CateEstimate> HajekIpwFromRows(const std::vector<double>& design,
                                      size_t n, size_t p,
                                      const std::vector<double>& labels,
                                      const std::vector<double>& outcomes,
                                      const std::vector<uint8_t>& is_treated_row,
                                      double propensity_clip);

/// Immutable partition of a table's rows into joint-confounder cells for
/// one adjustment set: rows agreeing on every categorical confounder code,
/// every numeric confounder quantile bin, and every confounder null flag
/// share a cell. Depends only on (table, outcome, adjustment set, binning
/// options) — NOT on the treatment — so all treatments over the same
/// attributes share one partition via shared_ptr.
class ConfounderPartition {
 public:
  /// One regression design feature (mirrors the reference enumeration:
  /// categorical levels 1..k-1 one-hot, numeric attrs one column each).
  struct Feature {
    size_t attr;
    bool categorical;
    int32_t code;
  };

  struct Cell {
    /// The reference stratified estimator's joint stratum id (the
    /// mixed-radix number of the cell's codes and bins); -1 when any
    /// confounder is null in this cell (such rows are excluded from
    /// stratification but kept, zero-featured, by regression and IPW).
    /// When the radix product of the adjustment set passes int64 the
    /// reference id would overflow; the id is then the cell's rank in
    /// digit-tuple order among the non-null cells, the order the
    /// mixed-radix id has whenever it fits.
    int64_t stratum_id = -1;
  };

  static std::shared_ptr<const ConfounderPartition> Build(
      const DataFrame& df, size_t outcome_attr,
      const std::vector<size_t>& adjustment, const CateOptions& options);

  /// Extends this partition (built over a prefix of `df`'s rows) in place
  /// to cover all of `df` after an append, producing exactly the
  /// partition Build would return over the concatenated table: rows
  /// [rows_covered(), df.num_rows()) are interned into the same cell
  /// table (new cells appended in first-appearance order, the order a
  /// cold build would discover them) and the valid-row bitmap grows.
  /// Returns false — leaving the partition untouched — when it is NOT
  /// extendable and must be rebuilt cold: any numeric confounder (its
  /// quantile edges shift with the new rows) or a categorical confounder
  /// that gained categories (the radix bases and one-hot feature layout
  /// change). Every holder of the partition
  /// observes the extension, so the caller must guarantee no estimation
  /// queries are in flight (the IncrementalSession::Append contract).
  bool ExtendInPlace(const DataFrame& df);

  const std::vector<Feature>& features() const { return features_; }
  /// For numeric feature j (j-th numeric confounder): its index into
  /// features().
  const std::vector<uint32_t>& numeric_features() const {
    return numeric_features_;
  }
  size_t num_numeric() const { return numeric_features_.size(); }
  /// Cell index per row; -1 where the outcome is null (row excluded from
  /// every estimator).
  const std::vector<int32_t>& cell_of_row() const { return cell_of_row_; }
  /// Rows whose outcome is non-null — exactly the rows with a cell. The
  /// accumulation kernels AND it into the group mask word by word, so
  /// excluded rows never reach the row loop.
  const Bitmap& outcome_valid() const { return outcome_valid_; }
  /// The table column this partition reads outcomes from. The partition
  /// keeps no copy of it: estimation passes read the column itself.
  size_t outcome_attr() const { return outcome_attr_; }
  const std::vector<Cell>& cells() const { return cells_; }
  /// Flat CSR table of the design features that are 1 for every row of a
  /// cell: cell c's feature indices (ascending, at most one per
  /// categorical confounder) are onehot_ids()[onehot_begin()[c] ..
  /// onehot_begin()[c + 1]). Numeric features are per-row, not per-cell.
  const std::vector<uint32_t>& onehot_begin() const { return onehot_begin_; }
  const std::vector<uint32_t>& onehot_ids() const { return onehot_ids_; }
  /// 0..C-1: the cell list of an accumulation over the whole partition.
  const std::vector<uint32_t>& all_cells() const { return all_cells_; }
  /// Cells with stratum_id >= 0, ascending by stratum_id — the iteration
  /// order of the reference stratified combine (a std::map over ids).
  const std::vector<uint32_t>& cells_by_stratum() const {
    return cells_by_stratum_;
  }
  /// Cached numeric confounder column per numeric feature, with nulls as
  /// 0.0 — exactly the value the reference design-matrix build uses.
  const std::vector<std::vector<double>>& numeric_values() const {
    return numeric_values_;
  }
  /// numeric_values() as a raw pointer span, precomputed at build so the
  /// accumulation passes need no per-call heap allocation.
  const double* const* numeric_value_ptrs() const {
    return numeric_value_ptrs_.data();
  }

  /// Heap bytes held (row arrays + cell table), for cache budgeting.
  size_t bytes() const { return bytes_; }

  /// Rows of the source table this partition covers (its num_rows at
  /// Build/ExtendInPlace time). After an append the table outgrows this
  /// and the partition is stale until extended or rebuilt.
  size_t rows_covered() const { return rows_covered_; }

  /// Identity of this partition's cell numbering: fresh per Build, kept
  /// by ExtendInPlace. Cell ids of the rows covered before an extension
  /// never change, so sufficient statistics accumulated before it merge
  /// soundly with deltas accumulated after (core/incremental.h relies on
  /// this; a cold rebuild gets a new lineage and invalidates such
  /// caches).
  uint64_t lineage_id() const { return lineage_id_; }

 private:
  ConfounderPartition() = default;

  /// Per-confounder layout persisted from Build: design feature span,
  /// the radix base of the reference stratum id, and (numeric) the quantile
  /// edges — everything InternRows needs to intern further rows with the
  /// exact keys Build used.
  struct ConfLayout {
    size_t attr = 0;
    bool categorical = false;
    /// Digits are 0..base-2 (category code or quantile bin); base-1 is
    /// the spare digit for null. Categorical: categories + 1; numeric:
    /// edges + 2.
    uint64_t base = 0;
    uint32_t feature_base = 0;
    /// Category count at build (0 for numeric): extension is only sound
    /// while the column still has exactly this many categories.
    size_t num_categories = 0;
    std::vector<double> edges;  ///< numeric confounders only
    /// Folding this digit into the running key could pass int64, so the
    /// running key is first replaced by its dense first-appearance id in
    /// the next of prefix_tables_ (ids < 2^31).
    bool starts_segment = false;
  };

  /// Open-addressing uint64 key -> dense int32 id map. Ids number keys
  /// in first-insertion order and index keys(); the slot array holds ids
  /// only (linear probing, power-of-two capacity, load <= 1/2). Lookup
  /// and insert only.
  class KeyTable {
   public:
    KeyTable() { Rehash(16); }

    /// The id of `key`, or -1 when it is not interned.
    int32_t Find(uint64_t key) const { return slots_[SlotOf(key)]; }
    /// Interns a key that Find does not know; returns its id (the old
    /// size()).
    int32_t Insert(uint64_t key);

    size_t size() const { return keys_.size(); }
    const std::vector<uint64_t>& keys() const { return keys_; }
    size_t bytes() const {
      return keys_.capacity() * sizeof(uint64_t) +
             slots_.size() * sizeof(int32_t);
    }

   private:
    /// The slot holding `key`, or the empty slot ending its probe run.
    size_t SlotOf(uint64_t key) const {
      const size_t mask = slots_.size() - 1;
      // Fibonacci hashing: the top bits of key * 2^64/phi.
      size_t slot =
          static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
      for (;; slot = (slot + 1) & mask) {
        const int32_t id = slots_[slot];
        if (id < 0 || keys_[static_cast<size_t>(id)] == key) return slot;
      }
    }
    void Rehash(size_t capacity);

    std::vector<uint64_t> keys_;  ///< by id
    std::vector<int32_t> slots_;  ///< id per slot; -1 = empty
    uint32_t shift_ = 64;         ///< 64 - log2(slots_.size())
  };

  /// Shared tail of Build and ExtendInPlace: interns rows [row_begin, n)
  /// into the cell table and valid-row bitmap, then re-derives the sorted
  /// stratum order and byte accounting. The feature layout (confs_),
  /// numeric caches, and rows [0, row_begin) must already be in place.
  /// Keys are built column-at-a-time over fixed-size row blocks: each
  /// confounder folds key = key * base + digit into the block's keys, and
  /// each valid row then looks its key up in cell_ids_.
  void InternRows(const DataFrame& df, size_t row_begin);

  /// Writes the digit of every confounder of the cell key `key`.
  void DecodeDigits(uint64_t key, uint64_t* digits) const;

  /// Interns a new cell for `key`: its stratum id and one-hot ids come
  /// from the key's digits, decoded into the caller's `digits` scratch
  /// (one slot per confounder). Returns the cell id.
  int32_t AddCell(uint64_t key, uint64_t* digits);

  std::vector<Feature> features_;
  std::vector<uint32_t> numeric_features_;
  std::vector<int32_t> cell_of_row_;
  Bitmap outcome_valid_;
  std::vector<Cell> cells_;
  std::vector<uint32_t> onehot_begin_ = {0};  ///< [cells + 1]
  std::vector<uint32_t> onehot_ids_;
  std::vector<uint32_t> all_cells_;
  std::vector<uint32_t> cells_by_stratum_;
  std::vector<std::vector<double>> numeric_values_;
  std::vector<const double*> numeric_value_ptrs_;
  size_t bytes_ = 0;

  // Build-time inputs and intern state persisted so ExtendInPlace can
  // resume the interning where Build stopped (same radix bases, same map)
  // and verify extendability against the post-append table.
  size_t outcome_attr_ = 0;
  std::vector<ConfLayout> confs_;
  /// Running-key interners of the confounders that start a segment, in
  /// confounder order (empty unless the radix product passes int64).
  std::vector<KeyTable> prefix_tables_;
  /// Cell key -> cell index; ids are the cells' first-appearance order.
  KeyTable cell_ids_;
  size_t rows_covered_ = 0;
  uint64_t lineage_id_ = 0;
};

/// One group's rows gathered into dense arrays, so that the treatments
/// evaluated against the group accumulate from them instead of
/// re-walking the table, up to simd::kMaxCateBatch treatments per pass
/// over the arrays. A caller creates one, empty, per group and
/// protected mask and passes it to every EstimateSubgroupsBatch call over
/// that group; the batch fills it in two stages, each when a batch first
/// reads it:
///   * gather (once per group): the non-zero words of group ∧ valid —
///     each with its index, its bits and its protected bits — and the
///     outcomes of those rows in ascending row order. Validity is a
///     property of the outcome alone, so this stage serves every
///     confounder partition of the table.
///   * bind (whenever a batch's partition is not the bound one): the
///     rows' cells renumbered densely 0..k-1 in ascending cell order, the
///     dense-to-partition cell list, the dense ids of the stratified
///     cells in ascending stratum order, and, for the regression method
///     with numeric confounders, each row's numeric confounder values.
/// A subgroup's rows per cell are the same for every treatment, so the
/// view also keeps the treatment-invariant part of each subgroup's
/// regression count block once it has been summed; a view is therefore
/// used by one thread at a time. The renumbering is monotone and rows stay
/// ascending, so every per-slot sum and every solver loop sees its terms
/// in the table pass's order: the estimates are bit-identical. A bind
/// overwrites the buffers in place, so one object serves a whole lattice
/// traversal at about 12 bytes per group row.
class CompactGroup {
 private:
  friend class CateStatsEngine;  // gather, bind and the compact pass

  /// The entries of a subgroup's X'X count block weighted by each cell's
  /// row count n0 + n1 (intercept and one-hot columns): they do not
  /// depend on the treatment. Filled by the first regression assembly.
  struct CountBlock {
    bool ready = false;
    std::vector<int64_t> counts;  ///< p x p, as the assembly lays it out
  };

  /// Gathers the rows of `group` whose `outcome_attr` value is non-null,
  /// with their protected bits when `protected_mask` is non-null, and
  /// unbinds any partition. The bitmaps must span `df`'s rows.
  void Gather(const DataFrame& df, size_t outcome_attr, const Bitmap& group,
              const Bitmap* protected_mask);

  // Gathered rows.
  bool gathered_ = false;
  size_t outcome_attr_ = 0;
  size_t table_rows_ = 0;  ///< group.size() at Gather
  bool split_ = false;     ///< protected bits gathered
  std::vector<uint32_t> word_index_;
  std::vector<uint64_t> word_bits_;
  std::vector<uint64_t> word_prot_;
  std::vector<double> outcome_;

  // Bound partition.
  std::shared_ptr<const ConfounderPartition> partition_;
  bool moments_ = false;  ///< numeric confounder values gathered
  std::vector<uint32_t> cell_;        ///< dense cell id per row
  std::vector<uint32_t> cells_;       ///< dense id -> partition cell
  std::vector<uint32_t> by_stratum_;  ///< dense ids, ascending stratum id
  std::vector<std::vector<double>> z_;  ///< [numeric confounder][row]
  std::vector<const double*> z_ptrs_;
  std::vector<int32_t> dense_of_;     ///< bind scratch: cell -> dense id
  /// Overall, protected and non-protected count blocks of the bound
  /// partition.
  CountBlock count_blocks_[3];
};

/// The per-treatment engine: treated mask + confounder partition +
/// options. Immutable after construction, so concurrent subgroup queries
/// need no locking; the estimator caches engines per treatment with the
/// same shared-ownership/LRU discipline the PredicateIndex uses for
/// conjunction masks.
class CateStatsEngine {
 public:
  /// `df` must outlive the engine. `treated` and `partition` are shared
  /// (the mask typically lives in the table's PredicateIndex; the
  /// partition in the estimator's per-adjustment cache).
  CateStatsEngine(const DataFrame* df, CateOptions options,
                  std::vector<size_t> adjustment,
                  std::shared_ptr<const Bitmap> treated,
                  std::shared_ptr<const ConfounderPartition> partition);

  /// Estimates each engine's treatment over one `group`: one accumulation
  /// answers all of a treatment's requested subgroups, then its small
  /// systems are solved. When `protected_mask` is
  /// non-null the accumulation is split on the protected bit, yielding
  /// group ∩ protected and group ∩ ¬protected without materializing
  /// either bitmap. `min_group_size` floors the overall estimate's arms,
  /// `min_subgroup_size` the subgroup ones. With
  /// `skip_subgroups_unless_positive`, the subgroup systems are only
  /// solved when the overall estimate succeeded with CATE > 0 (the
  /// Section 5.2 lattice prunes on the overall sign, so subgroup solves
  /// for non-positive treatments would be wasted work).
  ///
  /// How the rows are read is chosen here, and every choice gives each
  /// treatment the bits a table pass of its own gives:
  ///   * with a `view` (see CompactGroup) and at least kMinCompactBatch
  ///     engines (in the .cc), from the view: gathered from `group` and
  ///     `protected_mask` on first use, bound to the engines' partition
  ///     unless it already is;
  ///   * otherwise from the table.
  /// Either way the engines are taken in order in chunks of up to
  /// simd::kMaxCateBatch, each accumulated by one fused pass (each
  /// treatment into its own accums). A chunk is narrowed so that its
  /// accums stay within a fixed byte budget (kMaxFusedAccumBytes in the
  /// .cc): over the partition's C cells for a table pass, over the k
  /// cells the group touches for a compact one.
  /// All engines must share one partition, one table and one statistics
  /// shape, and a view must have been gathered from this `group` and
  /// `protected_mask`; a mismatch the engines can see aborts in every
  /// build type.
  static std::vector<CateSubgroupEstimates> EstimateSubgroupsBatch(
      const std::vector<const CateStatsEngine*>& engines, const Bitmap& group,
      const Bitmap* protected_mask, size_t min_group_size,
      size_t min_subgroup_size, bool skip_subgroups_unless_positive = false,
      CompactGroup* view = nullptr);

  /// Per-subgroup sufficient statistics, indexed cell-major with two arms
  /// (idx = 2*cell + arm; arm 1 = treated). Numeric moment blocks are
  /// allocated only for the regression method with numeric confounders.
  /// Public so the incremental-mining layer can cache accumulated stats
  /// across appends and merge deltas in (core/incremental.h); treat as
  /// opaque outside this class.
  struct Accum {
    size_t rows = 0;  ///< subgroup rows with non-null outcome
    size_t n_treated = 0;
    size_t n_control = 0;
    std::vector<simd::CateSlot> slots;  ///< [2C] {Σy, Σy², n}
    std::vector<double> zsum;   ///< [2C * m]   Σ z_j
    std::vector<double> zysum;  ///< [2C * m]   Σ z_j y
    std::vector<double> zzsum;  ///< [2C * mm]  Σ z_i z_j, upper-tri packed
  };

  /// The overall / protected / non-protected accumulation triple for one
  /// group bitmap — the cacheable unit of the incremental path. When
  /// `split` is false the protected/nonprotected accums are untouched
  /// (no protected mask was supplied). `rows_covered` records the table
  /// size the accumulation has seen; after an append, AccumulateDelta
  /// over [rows_covered, num_rows) merged in brings it current.
  struct SubgroupAccums {
    Accum overall;
    Accum prot;
    Accum nonprot;
    bool split = false;
    size_t rows_covered = 0;
  };

  /// Full accumulation pass over `group`, in ascending row order — the
  /// pass EstimateSubgroupsBatch runs for one treatment. The protected
  /// split is always filled when `protected_mask` is non-null, so a
  /// cached result can serve later solves regardless of which subgroups
  /// they request.
  SubgroupAccums AccumulateSubgroups(const Bitmap& group,
                                     const Bitmap* protected_mask) const;

  /// The retired four-argument form, whose last two slots took a row
  /// shard plan and its task group; only nullptr binds to them, so it is
  /// exactly the overload above. perfbench/probe.cc still calls it.
  SubgroupAccums AccumulateSubgroups(const Bitmap& group,
                                     const Bitmap* protected_mask,
                                     std::nullptr_t, std::nullptr_t) const {
    return AccumulateSubgroups(group, protected_mask);
  }

  /// Accumulates ONLY rows >= row_begin of `group` — the delta tail of an
  /// append. Because delta rows are strictly after all resident rows,
  /// merging this into an accumulation that covered [0, row_begin)
  /// reproduces the full-table pass: exactly on integer-valued outcomes,
  /// and to within one reassociation of each per-slot sum (<=1e-9
  /// relative) on real-valued ones.
  SubgroupAccums AccumulateDelta(const Bitmap& group,
                                 const Bitmap* protected_mask,
                                 size_t row_begin) const;

  /// `into += from` over all three accums, after growing `into` to the
  /// partition's current slot count. Advances into->rows_covered to
  /// from's.
  void MergeSubgroupAccums(SubgroupAccums* into,
                           const SubgroupAccums& from) const;

  /// Solves the overall / protected / non-protected estimates from
  /// already-accumulated stats, byte-identical to EstimateSubgroupsBatch
  /// over the same group. The accums must be at the partition's current
  /// slot count (a fresh AccumulateSubgroups, or a MergeSubgroupAccums
  /// target); a mismatch aborts in every build type. `group` /
  /// `protected_mask` are needed only by the IPW row-fallback re-walk.
  CateSubgroupEstimates SolveFromAccums(
      const SubgroupAccums& accums, const Bitmap& group,
      const Bitmap* protected_mask, size_t min_group_size,
      size_t min_subgroup_size,
      bool skip_subgroups_unless_positive = false) const;

  /// The regression design's normal equations over one subgroup: X'X
  /// (upper triangle filled, row-major p x p), X'y and y'y for the design
  /// row [1, T, one-hot(cell), z].
  struct NormalEquations {
    size_t p = 0;
    std::vector<double> xtx;
    std::vector<double> xty;
    double yty = 0.0;
  };

  /// Assembles the regression normal equations from an accum over every
  /// cell of the partition into `out`, reusing its buffers. The
  /// intercept, T and one-hot block of X'X is summed per cell in int64 and
  /// converted once; X'y, y'y and the numeric-moment entries are summed in
  /// double in ascending slot order.
  void AssembleNormalEquations(const Accum& acc, NormalEquations* out) const;

  const Bitmap& treated() const { return *treated_; }
  const ConfounderPartition& partition() const { return *partition_; }
  const std::vector<size_t>& adjustment() const { return adjustment_; }
  const CateOptions& options() const { return options_; }

  /// Engine-held bytes excluding the shared partition and treated mask.
  size_t bytes() const;

 private:
  /// The cells an accum's slots cover: slots 2*i and 2*i + 1 belong to
  /// partition cell cells[i] (ascending), and by_stratum lists the i whose
  /// cell has a stratum id, ascending by that id.
  struct CellList {
    const uint32_t* cells = nullptr;
    size_t size = 0;
    const uint32_t* by_stratum = nullptr;
    size_t num_by_stratum = 0;
  };
  /// Every cell of the partition: the list of a table-pass accum.
  CellList TableCells() const;

  /// Which rows a solve refers to (needed only by the IPW row-level
  /// fallback, which must re-walk the subgroup).
  struct Slice {
    const Bitmap* group = nullptr;
    const Bitmap* protected_mask = nullptr;  ///< null: no protected filter
    bool protected_member = false;           ///< filter polarity
  };

  /// The table pass: zeroes accums[0..count) and accumulates the rows >=
  /// row_begin of `group` into accums[i] for engines[i], reading each row
  /// once for all `count` (1..simd::kMaxCateBatch) treatments. The full
  /// pass starts at row 0; an append's delta pass at its first new row.
  /// The engines must share one partition (checked in every build).
  static void AccumulateTable(const CateStatsEngine* const* engines,
                              SubgroupAccums* accums, size_t count,
                              const Bitmap& group,
                              const Bitmap* protected_mask, size_t row_begin);

  /// Element-wise `into += from` over every statistic (counts, outcome
  /// sums, numeric moments) — folds an append's delta into a cached
  /// accumulation.
  void MergeAccum(Accum* into, const Accum& from) const;

  /// Resize an accum that predates delta-interned cells up to the current
  /// partition slot count (new cells append, so resident slots keep
  /// their indices).
  void GrowAccum(Accum* acc) const;

  /// Binds a gathered `view` to this engine's partition: gathers the
  /// rows' cells (and numeric confounder values when the method needs
  /// them) and renumbers the cells densely.
  void BindCompactGroup(CompactGroup* view) const;

  /// The compact pass: zeroes accums[0..count) (slots sized to the view's
  /// cells) and accumulates the view's rows into accums[i] for
  /// engines[i], reading each gathered row once for all `count`
  /// (1..simd::kMaxCateBatch) treatments. The engines must share the
  /// view's bound partition (checked in every build).
  static void AccumulateCompact(const CateStatsEngine* const* engines,
                                SubgroupAccums* accums, size_t count,
                                const CompactGroup& view);

  using CountBlock = CompactGroup::CountBlock;

  /// The three solves of SolveFromAccums over accums whose slots cover
  /// `cells`. `row_counts`, when non-null, holds the overall, protected
  /// and non-protected count blocks of a compact pass.
  CateSubgroupEstimates SolveSubgroups(const SubgroupAccums& accums,
                                       const CellList& cells,
                                       CountBlock* row_counts,
                                       const Bitmap& group,
                                       const Bitmap* protected_mask,
                                       size_t min_group_size,
                                       size_t min_subgroup_size,
                                       bool skip_subgroups_unless_positive)
      const;

  /// The assembly over `cells`; with `row_counts` the treatment-invariant
  /// count entries are summed into it on first use and copied after.
  void AssembleNormalEquations(const Accum& acc, const CellList& cells,
                               CountBlock* row_counts,
                               NormalEquations* out) const;
  Result<CateEstimate> Solve(const Accum& acc, const CellList& cells,
                             CountBlock* row_counts, const Slice& slice,
                             size_t min_group_size) const;
  Result<CateEstimate> SolveRegression(const Accum& acc,
                                       const CellList& cells,
                                       CountBlock* row_counts,
                                       size_t min_group_size) const;
  Result<CateEstimate> SolveStratified(const Accum& acc,
                                       const CellList& cells,
                                       size_t min_group_size) const;
  Result<CateEstimate> SolveIpw(const Accum& acc, const CellList& cells,
                                const Slice& slice,
                                size_t min_group_size) const;
  /// Reference-identical per-row IPW (numeric confounders vary within a
  /// cell, so the propensity design is not cell-constant); still serves
  /// features from the partition's cached columns.
  Result<CateEstimate> SolveIpwRows(const Slice& slice,
                                    size_t min_group_size) const;

  bool need_moments() const {
    return options_.method == CateMethod::kRegression &&
           partition_->num_numeric() > 0;
  }
  /// Bytes of one accum's slots and moment blocks over `cells` cells.
  size_t AccumBytes(size_t cells) const;
  /// Zeroes `acc` to `slots` slots (and the moment blocks when needed),
  /// reusing its buffers.
  void ResetAccum(Accum* acc, size_t slots) const;
  /// Readies this engine's treatment of a fused pass: zeroes `acc`'s
  /// overall accum (and, when `split`, its subgroup accums) to `slots`
  /// slots and points `sinks` at them and at this treated mask.
  void ResetTreatment(size_t slots, bool split, size_t rows_covered,
                      SubgroupAccums* acc,
                      simd::CateTreatmentSinks* sinks) const;

  const DataFrame* df_;
  CateOptions options_;
  std::vector<size_t> adjustment_;
  std::shared_ptr<const Bitmap> treated_;
  std::shared_ptr<const ConfounderPartition> partition_;
};

}  // namespace faircap

#endif  // FAIRCAP_CAUSAL_CATE_STATS_ENGINE_H_
