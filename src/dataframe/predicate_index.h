// PredicateIndex: the shared row-selection engine. Every subgroup the
// pipeline touches — Apriori items, grouping-pattern coverage, treatment
// masks, protected-group membership — is a conjunction of
// `attribute op constant` atoms over one DataFrame. The index memoizes the
// bitmap of each atom (one columnar scan, ever) and of each conjunction
// (word-level ANDs of atom masks), so repeated pattern evaluation costs a
// hash lookup instead of a row scan.
//
// Thread-safe: the mining phase fans out across grouping patterns and all
// of them evaluate through the one index attached to the DataFrame.
// Returned references stay valid until Clear() (which DataFrame calls on
// any row mutation).

#ifndef FAIRCAP_DATAFRAME_PREDICATE_INDEX_H_
#define FAIRCAP_DATAFRAME_PREDICATE_INDEX_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dataframe/bitmap.h"
#include "dataframe/compare.h"
#include "dataframe/value.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace faircap {

class DataFrame;

/// One `attribute op constant` selection atom, the dataframe-layer view of
/// a mining-layer Predicate.
struct PredicateAtom {
  size_t attr = 0;
  CompareOp op = CompareOp::kEq;
  Value value;

  PredicateAtom() = default;
  PredicateAtom(size_t attr_in, CompareOp op_in, Value value_in)
      : attr(attr_in), op(op_in), value(std::move(value_in)) {}
};

/// Memoizing evaluation engine for predicate atoms and conjunctions.
class PredicateIndex {
 public:
  /// Batch-materializing sibling category masks pays off only while the
  /// whole set is small; past this cardinality each category gets its own
  /// on-demand scan so rare codes never allocate a mask nobody asked for.
  /// The streaming-ingest warm start honors the same cap.
  static constexpr size_t kBatchBuildMaxCategories = 64;

  PredicateIndex() = default;
  PredicateIndex(const PredicateIndex&) = delete;
  PredicateIndex& operator=(const PredicateIndex&) = delete;

  /// Materializes every category's equality mask of categorical `attr` in
  /// one columnar pass (`masks[code]` = rows carrying that code; null
  /// rows in none). Shared by the index's lazy batch build and the
  /// streaming-ingest warm start, so the two can never drift.
  static std::vector<Bitmap> BuildCategoryMasks(const DataFrame& df,
                                                size_t attr);

  /// Bitmap of rows of `df` satisfying `attr op value`. Memoized; the
  /// first request for a categorical equality atom materializes the masks
  /// of every category of that column in a single pass. The reference is
  /// stable until Clear() — except under a memory budget, where a cold
  /// atom mask may be evicted (and transparently rebuilt on re-request);
  /// callers that hold the reference across further index calls while a
  /// budget is active must use AtomMaskShared instead.
  const Bitmap& AtomMask(const DataFrame& df, size_t attr, CompareOp op,
                         const Value& value) const;

  /// Shared-ownership variant of AtomMask: the returned pointer keeps the
  /// mask alive even if the budgeted cache evicts the atom.
  std::shared_ptr<const Bitmap> AtomMaskShared(const DataFrame& df,
                                               size_t attr, CompareOp op,
                                               const Value& value) const;

  /// Bitmap of rows satisfying every atom (the empty conjunction selects
  /// all rows). Atom masks are composed with word-level ANDs, cheapest
  /// (most selective) mask first, with an early exit on an empty result.
  /// Memoized per canonical atom-id set; stable until Clear() — except
  /// under a memory budget (SetMemoryBudget), where a cold conjunction
  /// mask may be evicted by a later insertion. Callers that hold a mask
  /// across further index calls while a budget is active must use
  /// ConjunctionMaskShared instead.
  const Bitmap& ConjunctionMask(const DataFrame& df,
                                const std::vector<PredicateAtom>& atoms) const;

  /// Shared-ownership variant of ConjunctionMask: the returned pointer
  /// keeps a multi-atom conjunction mask alive even if the budgeted cache
  /// evicts it. The estimator holds treatment masks through this so long
  /// regressions never race eviction. Caveat: for the empty and
  /// single-atom conjunctions the pointer is a non-owning view of an atom
  /// (or all-rows) mask — never evicted, but still invalidated by
  /// Clear(), i.e. by row mutation; no mask handle may be held across
  /// table mutation.
  std::shared_ptr<const Bitmap> ConjunctionMaskShared(
      const DataFrame& df, const std::vector<PredicateAtom>& atoms) const;

  /// Uncached columnar scan for a single atom — the reference
  /// implementation the cache is built on. Numeric comparisons are
  /// word-batched: 64 rows are compared into one mask word at a time.
  /// Null cells never match — numeric nulls (NaN) are excluded under
  /// every operator including kNe and kLt, mirroring the categorical
  /// null convention.
  static Bitmap Scan(const DataFrame& df, size_t attr, CompareOp op,
                     const Value& value);

  /// Installs precomputed equality masks for every category of
  /// categorical attribute `attr` (`masks[code]` = rows whose value is
  /// `CategoryName(code)`). The streaming ingest path builds these while
  /// the column codes are still hot, so the index starts warm and Apriori
  /// / lattice / treatment evaluation never pay a first-touch column
  /// scan. Categories with a live cached mask are left untouched;
  /// interned-but-budget-evicted masks are reinstalled into their
  /// existing slots.
  void WarmStartCategoryMasks(const DataFrame& df, size_t attr,
                              std::vector<Bitmap> masks) const;

  /// Caps the bytes held by the index's caches — conjunction masks, atom
  /// masks, AND the numeric sorted-row orders behind range atoms.
  /// 0 = unlimited (the default). When an insertion pushes usage past the
  /// budget, least-recently-used conjunction masks are evicted first;
  /// atom masks are the recompose primitives, so they form the tier
  /// behind the warm cap and are evicted LRU *last* — only when no
  /// evictable conjunction remains (very-high-cardinality columns can
  /// otherwise bloat a warm index). Numeric orders are the most expensive
  /// entries to rebuild (an O(n log n) sort) and go only after the atom
  /// tier. Evicted entries are transparently rescanned / recomposed /
  /// re-sorted on re-request (atom ids stay stable, so cached conjunction
  /// keys survive atom eviction). Shrinking the budget evicts
  /// immediately.
  void SetMemoryBudget(size_t max_bytes);
  size_t memory_budget() const;

  /// Drops every cached mask (row data changed). Outstanding references
  /// are invalidated.
  void Clear();

  /// Notifies the index that rows were appended to `df` (existing rows
  /// unchanged). Unlike Clear(), cached masks stay resident: every mask's
  /// bits over the old rows are still correct, so stale entries are
  /// extended lazily on next touch — resident words are copied, only the
  /// delta's tail words are rescanned, and numeric sorted-row orders merge
  /// the delta's sorted rows into the cached order. Bumps the index
  /// generation; entries record the generation they cover and a stale
  /// entry is never served (checked at every serve point). Outstanding
  /// mask handles are invalidated, as with any table mutation.
  void OnAppend(const DataFrame& df) EXCLUDES(mu_);

  /// Cache observability (for tests and benchmarks).
  struct CacheStats {
    size_t atom_masks = 0;         ///< distinct atom bitmaps held
    size_t conjunction_masks = 0;  ///< distinct conjunction bitmaps held
    size_t hits = 0;               ///< lookups served from cache
    size_t misses = 0;             ///< lookups that had to scan/compose
    size_t atom_bytes = 0;         ///< bitmap bytes held by atom masks
    size_t conjunction_bytes = 0;  ///< bitmap bytes held by conjunctions
    size_t evictions = 0;          ///< conjunction masks evicted (budget)
    size_t atom_evictions = 0;     ///< atom masks evicted (budget, LRU last)
    size_t warm_atom_masks = 0;    ///< atom masks installed by ingest
    size_t numeric_orders = 0;     ///< sorted-row orders cached for range ops
    size_t numeric_order_bytes = 0;  ///< bytes held by those orders
    size_t atoms_extended = 0;       ///< stale atom masks extended (append)
    size_t conjunctions_extended = 0;  ///< stale conjunctions extended
    size_t orders_merged = 0;        ///< numeric orders delta-merged
    size_t rebuilt_after_append = 0;  ///< full builds while in append mode
  };
  CacheStats GetStats() const;

  /// Index generation: bumped by OnAppend() and Clear(). Entries record
  /// the generation they cover; tests use this to assert lazy extension
  /// actually refreshed an entry.
  uint64_t generation() const EXCLUDES(mu_);

 private:
  /// Interns the atom, scanning (or batch-building) its mask on first
  /// sight. Returns its dense id. Caller must NOT hold mu_.
  uint32_t EnsureAtom(const DataFrame& df, size_t attr, CompareOp op,
                      const Value& value) const EXCLUDES(mu_);

  /// EnsureAtom plus a live shared_ptr to the mask. Pinning matters: a
  /// later insertion can budget-evict the atom from the cache, and
  /// without a pinned copy two atoms of one conjunction could evict each
  /// other's masks forever under a tiny budget. Caller must NOT hold mu_.
  std::pair<uint32_t, std::shared_ptr<const Bitmap>> EnsureAtomPinned(
      const DataFrame& df, size_t attr, CompareOp op,
      const Value& value) const EXCLUDES(mu_);

  /// All-rows mask, built on first use.
  const Bitmap& AllRowsMask(const DataFrame& df) const EXCLUDES(mu_);

  /// Ascending (value-sorted) row order of numeric `attr`, NaN rows
  /// excluded — the one-time index behind range-operator atom masks.
  struct NumericOrder {
    std::vector<uint32_t> rows;   ///< row ids, ascending by value
    std::vector<double> values;   ///< values[i] == numeric(rows[i])
    size_t rows_covered = 0;      ///< df.num_rows() at build/merge time
  };

  /// Like the public Scan but writes only mask words [word_begin, end) of
  /// `out` (rows word_begin*64 onward) — the append-extension primitive:
  /// predicates are row-local, so recomputing whole tail words (including
  /// the boundary word) is bit-identical to a cold full scan. Scan() is
  /// ScanInto at word 0.
  static void ScanInto(const DataFrame& df, size_t attr, CompareOp op,
                       const Value& value, size_t word_begin, Bitmap* out);

  /// Cached NumericOrder for `attr`, built on first request (racing
  /// duplicate builds are identical; the first insertion wins).
  std::shared_ptr<const NumericOrder> NumericOrderFor(const DataFrame& df,
                                                      size_t attr) const
      EXCLUDES(mu_);

  /// Range-operator (kLt/kLe/kGt/kGe) mask for numeric `attr` from the
  /// sorted order: two binary searches bound the qualifying run, and only
  /// its rows are set — O(log n + matches) per distinct threshold instead
  /// of a full per-row double scan. Bit-identical to Scan(): NaN rows are
  /// never in the order, and a NaN threshold matches nothing.
  Bitmap ScanNumericRange(const DataFrame& df, size_t attr, CompareOp op,
                          double rhs) const;

  mutable Mutex mu_;
  // Column scans and mask composition run outside mu_; concurrent
  // first-touch builds of the same atom (or same column batch) coordinate
  // through this in-flight key set instead of duplicating the scan.
  mutable CondVar build_done_;
  mutable std::unordered_set<std::string> in_flight_ GUARDED_BY(mu_);
  /// Inserts `mask` under `key`, wires it into the LRU, and evicts from
  /// the cold end while over budget. Returns the canonical mask (an
  /// earlier racing insert wins). Caller must hold mu_.
  std::shared_ptr<Bitmap> InsertConjunctionLocked(
      const std::string& key, std::shared_ptr<Bitmap> mask) const
      REQUIRES(mu_);

  /// Evicts LRU-tail conjunctions until within budget. Caller holds mu_.
  void EnforceBudgetLocked() const REQUIRES(mu_);

  /// Inserts the freshly scanned `mask` for atom id `id`, charging the
  /// budget and wiring the atom LRU. Caller must hold mu_.
  void InstallAtomMaskLocked(uint32_t id, std::shared_ptr<Bitmap> mask) const
      REQUIRES(mu_);

  /// Most-recently-used touch of an atom. Caller must hold mu_.
  void TouchAtomLocked(uint32_t id) const REQUIRES(mu_);

  // Atom key -> dense id; masks indexed by id. Ids are stable forever
  // (conjunction keys embed them); under a budget the *mask* of a cold
  // atom may be dropped (entry.mask == nullptr) and is rescanned on
  // re-request. shared_ptr ownership keeps masks handed out via
  // AtomMaskShared / single-atom ConjunctionMaskShared alive across
  // eviction.
  struct AtomEntry {
    std::shared_ptr<Bitmap> mask;
    std::list<uint32_t>::iterator lru_pos;  // valid iff mask != nullptr
    uint64_t gen = 0;  ///< index generation this mask covers
  };
  mutable std::unordered_map<std::string, uint32_t> atom_ids_
      GUARDED_BY(mu_);
  mutable std::vector<AtomEntry> atom_masks_ GUARDED_BY(mu_);
  mutable std::list<uint32_t> atom_lru_ GUARDED_BY(mu_);  // most-recent first
  // Canonical sorted-id key -> conjunction mask, with an LRU list
  // (most-recent first) driving budget eviction. shared_ptr ownership
  // keeps masks handed out via ConjunctionMaskShared alive across
  // eviction.
  struct ConjunctionEntry {
    std::shared_ptr<Bitmap> mask;
    std::list<std::string>::iterator lru_pos;
    uint64_t gen = 0;  ///< index generation this mask covers
  };
  mutable std::unordered_map<std::string, ConjunctionEntry> conjunctions_
      GUARDED_BY(mu_);
  mutable std::list<std::string> lru_ GUARDED_BY(mu_);
  mutable std::unique_ptr<Bitmap> all_rows_ GUARDED_BY(mu_);
  // Per-attr sorted row order for numeric range atoms (~12 bytes per
  // non-null row — much bigger than one mask at scale). Counted against
  // the byte budget and evicted behind the atom tier: orders are the most
  // expensive entries to rebuild (an O(n log n) sort vs an O(n) rescan),
  // so they go last. Outstanding shared_ptr holders keep an evicted
  // order alive; a re-request re-sorts. Clear() drops them too.
  mutable std::unordered_map<size_t, std::shared_ptr<const NumericOrder>>
      numeric_orders_ GUARDED_BY(mu_);
  mutable size_t numeric_order_bytes_ GUARDED_BY(mu_) = 0;
  mutable size_t max_bytes_ GUARDED_BY(mu_) = 0;  // 0 = unlimited
  mutable size_t conjunction_bytes_ GUARDED_BY(mu_) = 0;
  mutable size_t atom_bytes_ GUARDED_BY(mu_) = 0;
  mutable size_t hits_ GUARDED_BY(mu_) = 0;
  mutable size_t misses_ GUARDED_BY(mu_) = 0;
  mutable size_t evictions_ GUARDED_BY(mu_) = 0;
  mutable size_t atom_evictions_ GUARDED_BY(mu_) = 0;
  mutable size_t warm_atoms_ GUARDED_BY(mu_) = 0;
  // Append bookkeeping: gen_ bumps on OnAppend()/Clear(); append_mode_
  // (set by OnAppend, cleared by Clear) marks that stale-entry extension
  // is in play, so full builds can be told apart from extensions in the
  // append.* metrics.
  mutable uint64_t gen_ GUARDED_BY(mu_) = 0;
  mutable bool append_mode_ GUARDED_BY(mu_) = false;
  mutable size_t atoms_extended_ GUARDED_BY(mu_) = 0;
  mutable size_t conjunctions_extended_ GUARDED_BY(mu_) = 0;
  mutable size_t orders_merged_ GUARDED_BY(mu_) = 0;
  mutable size_t rebuilt_after_append_ GUARDED_BY(mu_) = 0;
};

}  // namespace faircap

#endif  // FAIRCAP_DATAFRAME_PREDICATE_INDEX_H_
