#include "dataframe/predicate_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "dataframe/dataframe.h"
#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/simd/simd.h"

namespace faircap {

namespace {

// Global-registry mirrors of the per-instance cache stats: incremented at
// the same sites, under the same mutex, so the run report's index_cache
// section and GetStats() can never disagree about what happened. The
// counters aggregate across every index instance in the process; the byte
// gauges track the most recently mutated instance (one live table in the
// CLI, so in practice: the table's index).
struct IndexCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& atom_evictions;
  obs::Counter& warm_atom_masks;
  obs::Gauge& atom_bytes;
  obs::Gauge& conjunction_bytes;
  obs::Gauge& numeric_order_bytes;
  // Append-path outcomes: stale entries extended in place (tail-word
  // rescan / order merge) vs. entries built from scratch after an append.
  obs::Counter& masks_extended;
  obs::Counter& masks_rebuilt;
  obs::Counter& orders_merged;
};

IndexCacheMetrics& CacheMetrics() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  static IndexCacheMetrics* metrics = new IndexCacheMetrics{
      r.GetCounter("index_cache.hits"),
      r.GetCounter("index_cache.misses"),
      r.GetCounter("index_cache.evictions"),
      r.GetCounter("index_cache.atom_evictions"),
      r.GetCounter("index_cache.warm_atom_masks"),
      r.GetGauge("index_cache.atom_bytes"),
      r.GetGauge("index_cache.conjunction_bytes"),
      r.GetGauge("index_cache.numeric_order_bytes"),
      r.GetCounter("append.masks_extended"),
      r.GetCounter("append.masks_rebuilt"),
      r.GetCounter("append.orders_merged"),
  };
  return *metrics;
}

}  // namespace

namespace {

// Canonical byte key for an atom. Doubles are keyed by bit pattern so the
// key is exact (distinct NaN payloads or signed zeros may alias to
// separate, individually-correct entries).
std::string AtomKey(size_t attr, CompareOp op, const Value& value) {
  std::string key;
  key.reserve(16 + (value.is_string() ? value.str().size() : 8));
  key += std::to_string(attr);
  key += static_cast<char>('0' + static_cast<int>(op));
  if (value.is_string()) {
    key += 's';
    key += value.str();
  } else if (value.is_numeric()) {
    key += 'n';
    const double v = value.numeric();
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    key.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
  } else {
    key += '0';
  }
  return key;
}

std::string ConjunctionKey(const std::vector<uint32_t>& ids) {
  std::string key;
  key.reserve(ids.size() * sizeof(uint32_t));
  for (uint32_t id : ids) {
    key.append(reinterpret_cast<const char*>(&id), sizeof(id));
  }
  return key;
}

// Bytes a mask contributes to the budget (its word storage).
size_t BitmapBytes(const Bitmap& mask) {
  return ((mask.size() + 63) / 64) * sizeof(uint64_t);
}

// Non-owning view of the all-rows mask: it is never evicted, so a
// shared_ptr over it only needs to satisfy the interface, not own. (Atom
// masks ARE evictable under a budget and use real shared ownership.)
std::shared_ptr<const Bitmap> NonOwning(const Bitmap* mask) {
  return std::shared_ptr<const Bitmap>(std::shared_ptr<void>(), mask);
}

}  // namespace

namespace {

// The numeric compare kernels mirror CompareOp one-to-one (util cannot
// include the dataframe headers, hence the parallel enum).
simd::Cmp SimdCmpOf(CompareOp op) {
  switch (op) {
    case CompareOp::kEq: return simd::Cmp::kEq;
    case CompareOp::kNe: return simd::Cmp::kNe;
    case CompareOp::kLt: return simd::Cmp::kLt;
    case CompareOp::kLe: return simd::Cmp::kLe;
    case CompareOp::kGt: return simd::Cmp::kGt;
    case CompareOp::kGe: return simd::Cmp::kGe;
  }
  return simd::Cmp::kEq;
}

}  // namespace

void PredicateIndex::ScanInto(const DataFrame& df, size_t attr, CompareOp op,
                              const Value& value, size_t word_begin,
                              Bitmap* out) {
  const Column& col = df.column(attr);
  const size_t row_begin = word_begin * 64;
  if (row_begin >= df.num_rows()) return;
  const size_t n = df.num_rows() - row_begin;
  if (col.type() == AttrType::kCategorical) {
    // Word-batched compare scan through the SIMD kernel layer: 64 codes
    // per mask word. Nulls (kNullCode) never match under any operator.
    const int32_t* codes = col.codes_data() + row_begin;
    const Result<int32_t> code_result = col.CodeOf(value.str());
    // A category absent from the dictionary matches nothing under kEq
    // and everything non-null under kNe; fold both in-dictionary and
    // out-of-dictionary kNe into one "non-null and != code" compare by
    // using a code no row can carry.
    if (!code_result.ok() && op != CompareOp::kNe) {
      // kEq of an unknown category: no row matches; the tail words of a
      // freshly resized/constructed mask are already zero, but an
      // extension may be overwriting a previously nonzero boundary word.
      std::memset(out->mutable_words() + word_begin, 0,
                  (out->num_words() - word_begin) * sizeof(uint64_t));
      return;
    }
    const int32_t code = code_result.ok() ? *code_result : -2;
    if (op == CompareOp::kEq) {
      simd::ActiveKernels().mask_codes_eq(codes, n, code,
                                          out->mutable_words() + word_begin);
    } else {
      simd::ActiveKernels().mask_codes_ne(codes, n, Column::kNullCode, code,
                                          out->mutable_words() + word_begin);
    }
    return;
  }
  // Numeric compare scan, 64 rows per mask word. NaN cells are nulls and
  // never match — not even under kNe, where IEEE comparison alone would
  // admit them (the categorical convention: null is absent from every
  // selection).
  simd::ActiveKernels().mask_numeric_cmp(col.numeric_data() + row_begin, n,
                                         SimdCmpOf(op), value.numeric(),
                                         out->mutable_words() + word_begin);
}

Bitmap PredicateIndex::Scan(const DataFrame& df, size_t attr, CompareOp op,
                            const Value& value) {
  Bitmap out(df.num_rows());
  if (df.num_rows() == 0) return out;
  ScanInto(df, attr, op, value, /*word_begin=*/0, &out);
  return out;
}

std::shared_ptr<const PredicateIndex::NumericOrder>
PredicateIndex::NumericOrderFor(const DataFrame& df, size_t attr) const {
  std::shared_ptr<const NumericOrder> stale;
  {
    MutexLock lock(mu_);
    const auto it = numeric_orders_.find(attr);
    if (it != numeric_orders_.end()) {
      if (it->second->rows_covered == df.num_rows()) return it->second;
      // Rows were appended since this order was built: merge the delta's
      // sorted rows into the cached order instead of re-sorting everything.
      stale = it->second;
    }
  }
  // Sort (or merge) outside the lock; a racing duplicate build is
  // identical and the first insertion wins.
  auto order = std::make_shared<NumericOrder>();
  const Column& col = df.column(attr);
  const double* values = col.numeric_data();
  const size_t row_begin = stale != nullptr ? stale->rows_covered : 0;
  std::vector<uint32_t> delta_rows;
  delta_rows.reserve(df.num_rows() - row_begin);
  for (size_t r = row_begin; r < df.num_rows(); ++r) {
    if (!std::isnan(values[r])) {
      delta_rows.push_back(static_cast<uint32_t>(r));
    }
  }
  const auto by_value_then_row = [values](uint32_t a, uint32_t b) {
    return values[a] < values[b] || (values[a] == values[b] && a < b);
  };
  std::sort(delta_rows.begin(), delta_rows.end(), by_value_then_row);
  order->rows.reserve((stale != nullptr ? stale->rows.size() : 0) +
                      delta_rows.size());
  if (stale != nullptr) {
    // (value, row) is a total strict order and every delta row id exceeds
    // every resident row id, so the merge is deterministic and equals a
    // cold full sort over the concatenated rows.
    std::merge(stale->rows.begin(), stale->rows.end(), delta_rows.begin(),
               delta_rows.end(), std::back_inserter(order->rows),
               by_value_then_row);
  } else {
    order->rows = std::move(delta_rows);
  }
  order->values.reserve(order->rows.size());
  for (const uint32_t r : order->rows) order->values.push_back(values[r]);
  order->rows_covered = df.num_rows();
  MutexLock lock(mu_);
  auto& slot = numeric_orders_[attr];
  if (slot != nullptr && slot->rows_covered == df.num_rows()) {
    return slot;  // a racing builder landed first; keep its order canonical
  }
  if (slot != nullptr) {
    numeric_order_bytes_ -=
        slot->rows.size() * (sizeof(uint32_t) + sizeof(double));
    ++orders_merged_;
    CacheMetrics().orders_merged.Increment();
  }
  slot = std::move(order);
  // Keep a live reference before enforcing the budget: under a tiny
  // budget the enforcement may evict this very order from the map, and
  // the caller's scan must still be served from this build.
  std::shared_ptr<const NumericOrder> result = slot;
  numeric_order_bytes_ +=
      result->rows.size() * (sizeof(uint32_t) + sizeof(double));
  EnforceBudgetLocked();
  return result;
}

Bitmap PredicateIndex::ScanNumericRange(const DataFrame& df, size_t attr,
                                        CompareOp op, double rhs) const {
  Bitmap out(df.num_rows());
  // Comparisons with a NaN threshold select nothing (and lower_bound on
  // NaN would be meaningless); NaN *cells* are excluded from the order.
  if (std::isnan(rhs)) return out;
  const std::shared_ptr<const NumericOrder> order = NumericOrderFor(df, attr);
  const std::vector<double>& values = order->values;
  size_t lo = 0;
  size_t hi = values.size();
  switch (op) {
    case CompareOp::kLt:
      hi = static_cast<size_t>(
          std::lower_bound(values.begin(), values.end(), rhs) -
          values.begin());
      break;
    case CompareOp::kLe:
      hi = static_cast<size_t>(
          std::upper_bound(values.begin(), values.end(), rhs) -
          values.begin());
      break;
    case CompareOp::kGe:
      lo = static_cast<size_t>(
          std::lower_bound(values.begin(), values.end(), rhs) -
          values.begin());
      break;
    case CompareOp::kGt:
      lo = static_cast<size_t>(
          std::upper_bound(values.begin(), values.end(), rhs) -
          values.begin());
      break;
    default:
      return Scan(df, attr, op, Value(rhs));  // kEq/kNe: not a range
  }
  for (size_t i = lo; i < hi; ++i) out.Set(order->rows[i]);
  return out;
}

std::vector<Bitmap> PredicateIndex::BuildCategoryMasks(const DataFrame& df,
                                                       size_t attr) {
  const Column& col = df.column(attr);
  std::vector<Bitmap> masks(col.num_categories());
  for (Bitmap& m : masks) m = Bitmap(df.num_rows());
  for (size_t row = 0; row < df.num_rows(); ++row) {
    const int32_t c = col.code(row);
    if (c != Column::kNullCode) masks[static_cast<size_t>(c)].Set(row);
  }
  return masks;
}

void PredicateIndex::InstallAtomMaskLocked(uint32_t id,
                                           std::shared_ptr<Bitmap> mask) const {
  AtomEntry& entry = atom_masks_[id];
  atom_bytes_ += BitmapBytes(*mask);
  entry.mask = std::move(mask);
  entry.gen = gen_;
  atom_lru_.push_front(id);
  entry.lru_pos = atom_lru_.begin();
}

void PredicateIndex::TouchAtomLocked(uint32_t id) const {
  AtomEntry& entry = atom_masks_[id];
  if (entry.mask != nullptr) {
    atom_lru_.splice(atom_lru_.begin(), atom_lru_, entry.lru_pos);
  }
}

uint32_t PredicateIndex::EnsureAtom(const DataFrame& df, size_t attr,
                                    CompareOp op, const Value& value) const {
  const std::string key = AtomKey(attr, op, value);
  const Column& col = df.column(attr);
  const bool batch = col.type() == AttrType::kCategorical &&
                     op == CompareOp::kEq && value.is_string() &&
                     col.num_categories() <= kBatchBuildMaxCategories &&
                     col.CodeOf(value.str()).ok();
  // Batch builds cover every sibling category at once, so racing requests
  // for any category of the column coordinate on one column-level token.
  const std::string build_token =
      batch ? "col:" + std::to_string(attr) : key;

  // Set when a cached mask exists but covers fewer rows than df (rows were
  // appended since it was scanned): the build below copies its resident
  // words and rescans only the tail, instead of the whole column.
  std::shared_ptr<const Bitmap> extend_from;
  {
    MutexLock lock(mu_);
    for (;;) {
      const auto it = atom_ids_.find(key);
      // An interned id whose mask was budget-evicted needs a rescan: the
      // id (and thus every conjunction key embedding it) stays valid.
      if (it != atom_ids_.end() &&
          atom_masks_[it->second].mask != nullptr) {
        if (atom_masks_[it->second].mask->size() == df.num_rows()) {
          ++hits_;
          CacheMetrics().hits.Increment();
          TouchAtomLocked(it->second);
          atom_masks_[it->second].gen = gen_;
          return it->second;
        }
        // Stale after an append: extend lazily. Extension coordinates on
        // the per-atom token (not the column batch token) — each touched
        // sibling extends on its own first touch.
        if (in_flight_.count(key) == 0) {
          extend_from = atom_masks_[it->second].mask;
          in_flight_.insert(key);
          break;  // this thread extends
        }
        build_done_.Wait(mu_);
        continue;
      }
      if (in_flight_.count(build_token) == 0) {
        in_flight_.insert(build_token);
        break;  // this thread builds
      }
      build_done_.Wait(mu_);  // another thread is scanning this atom/column
    }
  }
  const std::string& flight_token =
      extend_from != nullptr ? key : build_token;

  // Scan outside the lock; concurrent evaluation of other atoms proceeds.
  const bool range = col.type() == AttrType::kNumeric && value.is_numeric() &&
                     (op == CompareOp::kLt || op == CompareOp::kLe ||
                      op == CompareOp::kGt || op == CompareOp::kGe);
  std::vector<Bitmap> masks;
  try {
    if (extend_from != nullptr) {
      // Copy resident words, then recompute only tail words — whole-word
      // extension. The boundary word is recomputed in full: predicates
      // are row-local, so its resident bits come out identical to the
      // copied ones and the result is bit-identical to a cold full scan.
      Bitmap ext = *extend_from;
      const size_t word_begin = extend_from->size() / 64;
      ext.Resize(df.num_rows());
      ScanInto(df, attr, op, value, word_begin, &ext);
      masks.push_back(std::move(ext));
    } else if (batch) {
      // Materialize every category's equality mask in one columnar pass:
      // Apriori's level-1 items, lattice atoms, and treatment masks all
      // ask for sibling categories of the same column.
      masks = BuildCategoryMasks(df, attr);
    } else if (range) {
      // Numeric range atoms come from the cached sorted order: two binary
      // searches instead of a full per-row double scan per threshold.
      masks.push_back(ScanNumericRange(df, attr, op, value.numeric()));
    } else {
      masks.push_back(Scan(df, attr, op, value));
    }
  } catch (...) {
    // Release waiters before propagating (e.g. a type-mismatched Value).
    MutexLock lock(mu_);
    in_flight_.erase(flight_token);
    build_done_.NotifyAll();
    throw;
  }

  if (extend_from != nullptr) {
    MutexLock lock(mu_);
    const auto it = atom_ids_.find(key);
    const uint32_t id = it->second;  // interned keys never disappear pre-Clear
    AtomEntry& entry = atom_masks_[id];
    if (entry.mask == nullptr || entry.mask->size() != df.num_rows()) {
      if (entry.mask != nullptr) {
        // Replace the stale mask with a fresh shared_ptr: handles held by
        // concurrent readers keep the old (resident-rows) object alive.
        atom_bytes_ -= BitmapBytes(*entry.mask);
        atom_lru_.erase(entry.lru_pos);
        entry.mask.reset();
      }
      InstallAtomMaskLocked(id, std::make_shared<Bitmap>(std::move(masks[0])));
      ++atoms_extended_;
      CacheMetrics().masks_extended.Increment();
    }
    entry.gen = gen_;
    TouchAtomLocked(id);
    in_flight_.erase(key);
    build_done_.NotifyAll();
    EnforceBudgetLocked();
    return id;
  }

  MutexLock lock(mu_);
  ++misses_;
  CacheMetrics().misses.Increment();
  if (append_mode_) {
    ++rebuilt_after_append_;
    CacheMetrics().masks_rebuilt.Increment();
  }
  uint32_t result_id = 0;
  for (size_t i = 0; i < masks.size(); ++i) {
    const std::string k =
        batch ? AtomKey(attr, op,
                        Value(col.CategoryName(static_cast<int32_t>(i))))
              : key;
    const auto it = atom_ids_.find(k);
    uint32_t id;
    if (it != atom_ids_.end()) {
      id = it->second;  // a sibling single-scan got there first; keep its id
      if (atom_masks_[id].mask == nullptr) {
        InstallAtomMaskLocked(id,
                              std::make_shared<Bitmap>(std::move(masks[i])));
      }
    } else {
      id = static_cast<uint32_t>(atom_masks_.size());
      atom_masks_.emplace_back();
      atom_ids_.emplace(k, id);
      InstallAtomMaskLocked(id,
                            std::make_shared<Bitmap>(std::move(masks[i])));
    }
    if (k == key) result_id = id;
  }
  // Keep the requested atom warmest so budget enforcement (atoms are the
  // LRU-last tier) cannot evict the mask the caller is about to read.
  TouchAtomLocked(result_id);
  in_flight_.erase(build_token);
  build_done_.NotifyAll();
  EnforceBudgetLocked();
  return result_id;
}

std::pair<uint32_t, std::shared_ptr<const Bitmap>>
PredicateIndex::EnsureAtomPinned(const DataFrame& df, size_t attr,
                                 CompareOp op, const Value& value) const {
  for (;;) {
    const uint32_t id = EnsureAtom(df, attr, op, value);
    MutexLock lock(mu_);
    // A concurrent insertion may have evicted the atom between EnsureAtom
    // and here; rebuild in that (rare) case. EnsureAtom leaves the atom
    // most-recently-used, so single-threaded this never loops.
    if (atom_masks_[id].mask != nullptr &&
        atom_masks_[id].mask->size() == df.num_rows()) {
      // Serve-point guard: a stale entry (wrong row coverage or built
      // against an older index generation) must never be handed out.
      FAIRCAP_CHECK(atom_masks_[id].gen == gen_);
      return {id, atom_masks_[id].mask};
    }
  }
}

const Bitmap& PredicateIndex::AtomMask(const DataFrame& df, size_t attr,
                                       CompareOp op,
                                       const Value& value) const {
  // The raw reference is safe for transient same-thread use; holders that
  // span further index calls under a budget must use AtomMaskShared.
  return *EnsureAtomPinned(df, attr, op, value).second;
}

std::shared_ptr<const Bitmap> PredicateIndex::AtomMaskShared(
    const DataFrame& df, size_t attr, CompareOp op,
    const Value& value) const {
  return EnsureAtomPinned(df, attr, op, value).second;
}

const Bitmap& PredicateIndex::AllRowsMask(const DataFrame& df) const {
  MutexLock lock(mu_);
  if (all_rows_ == nullptr ||
      all_rows_->size() != df.num_rows()) {
    all_rows_ = std::make_unique<Bitmap>(df.num_rows(), /*value=*/true);
  }
  return *all_rows_;
}

const Bitmap& PredicateIndex::ConjunctionMask(
    const DataFrame& df, const std::vector<PredicateAtom>& atoms) const {
  // The map (or the atom table) retains ownership of the referent; the
  // reference is stable until Clear(), or until eviction under a budget.
  return *ConjunctionMaskShared(df, atoms);
}

std::shared_ptr<const Bitmap> PredicateIndex::ConjunctionMaskShared(
    const DataFrame& df, const std::vector<PredicateAtom>& atoms) const {
  if (atoms.empty()) return NonOwning(&AllRowsMask(df));

  // Pin each atom's mask while interning: the shared_ptr copies stay
  // valid even if a later EnsureAtom call budget-evicts an atom from the
  // cache, so composition never has to re-request (and can't livelock
  // when the budget is smaller than the atom working set).
  std::vector<std::pair<uint32_t, std::shared_ptr<const Bitmap>>> pinned;
  pinned.reserve(atoms.size());
  for (const PredicateAtom& atom : atoms) {
    pinned.push_back(EnsureAtomPinned(df, atom.attr, atom.op, atom.value));
  }
  std::sort(pinned.begin(), pinned.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  pinned.erase(
      std::unique(pinned.begin(), pinned.end(),
                  [](const auto& a, const auto& b) {
                    return a.first == b.first;
                  }),
      pinned.end());

  std::vector<uint32_t> ids;
  ids.reserve(pinned.size());
  for (const auto& [id, mask] : pinned) ids.push_back(id);
  const std::string key = ConjunctionKey(ids);
  // Set when a cached conjunction covers fewer rows than df: the compose
  // below copies its resident words and ANDs the (already current) atom
  // masks over only the tail words.
  std::shared_ptr<const Bitmap> stale_conj;
  {
    MutexLock lock(mu_);
    if (pinned.size() == 1) {
      // A one-atom conjunction IS the atom mask; no separate entry.
      ++hits_;
      CacheMetrics().hits.Increment();
      TouchAtomLocked(ids[0]);
      return pinned[0].second;
    }
    const auto it = conjunctions_.find(key);
    if (it != conjunctions_.end()) {
      if (it->second.mask->size() == df.num_rows()) {
        // Serve-point guard: never hand out a mask with stale coverage.
        FAIRCAP_CHECK(it->second.mask->size() == df.num_rows());
        ++hits_;
        CacheMetrics().hits.Increment();
        it->second.gen = gen_;
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return it->second.mask;
      }
      stale_conj = it->second.mask;
    }
  }

  Bitmap out;
  if (stale_conj != nullptr) {
    // Whole-word extension: resident words are copied; only the delta's
    // tail words (including a fully recomputed boundary word) are ANDed
    // from the atom masks — bit-identical to a cold recompose because the
    // atoms themselves are current and the AND is word-local.
    out = *stale_conj;
    const size_t word_begin = stale_conj->size() / 64;
    out.Resize(df.num_rows());
    uint64_t* words = out.mutable_words();
    for (size_t w = word_begin; w < out.num_words(); ++w) {
      uint64_t word = pinned[0].second->words()[w];
      for (size_t k = 1; k < pinned.size(); ++k) {
        word &= pinned[k].second->words()[w];
      }
      words[w] = word;  // atom padding bits are clear, so the AND's are too
    }
  } else {
    // Intersect cheapest-first so the running mask empties as early as
    // possible; each AND is word-level over the whole row universe. The
    // compose runs without the lock so concurrent evaluators don't
    // serialize; the pinned copies own the inputs.
    std::vector<const Bitmap*> masks;
    masks.reserve(pinned.size());
    for (const auto& [id, mask] : pinned) masks.push_back(mask.get());
    std::sort(masks.begin(), masks.end(),
              [](const Bitmap* a, const Bitmap* b) {
                return a->Count() < b->Count();
              });
    out = *masks[0];
    for (size_t i = 1; i < masks.size() && !out.AllZero(); ++i) {
      out &= *masks[i];
    }
  }

  MutexLock lock(mu_);
  return InsertConjunctionLocked(key,
                                 std::make_shared<Bitmap>(std::move(out)));
}

std::shared_ptr<Bitmap> PredicateIndex::InsertConjunctionLocked(
    const std::string& key, std::shared_ptr<Bitmap> mask) const {
  const auto it = conjunctions_.find(key);
  if (it != conjunctions_.end()) {
    if (it->second.mask->size() == mask->size()) {
      // A racing evaluator of the same pattern landed first; keep its mask
      // so previously returned references stay canonical.
      ++hits_;
      CacheMetrics().hits.Increment();
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.mask;
    }
    // A stale (pre-append) entry superseded by its extension: swap in the
    // new shared_ptr — concurrent holders keep the old object alive.
    conjunction_bytes_ -= BitmapBytes(*it->second.mask);
    it->second.mask = std::move(mask);
    it->second.gen = gen_;
    conjunction_bytes_ += BitmapBytes(*it->second.mask);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    ++conjunctions_extended_;
    CacheMetrics().masks_extended.Increment();
    EnforceBudgetLocked();
    return it->second.mask;
  }
  ++misses_;
  CacheMetrics().misses.Increment();
  std::shared_ptr<Bitmap> result = std::move(mask);
  lru_.push_front(key);
  conjunction_bytes_ += BitmapBytes(*result);
  conjunctions_.emplace(key, ConjunctionEntry{result, lru_.begin(), gen_});
  EnforceBudgetLocked();
  return result;
}

void PredicateIndex::EnforceBudgetLocked() const {
  // Eviction runs only under a budget; the gauge refresh at the end runs
  // unconditionally — every byte-mutating path ends here (insert, warm
  // start, budget change), so this is the one place the registry's byte
  // gauges refresh. (Publishing is straight-line code rather than a
  // scope-exit helper: thread-safety analysis cannot see that a local
  // RAII struct's destructor reads these guarded fields under mu_.)
  if (max_bytes_ != 0) {
    const auto held = [&] {
      return conjunction_bytes_ + atom_bytes_ + numeric_order_bytes_;
    };
    // Conjunctions go first: they recompose cheaply from atom masks.
    // Never evict the most-recently-touched entry — the caller that just
    // inserted (or hit) it may still be using the reference.
    while (held() > max_bytes_ && lru_.size() > 1) {
      const auto it = conjunctions_.find(lru_.back());
      conjunction_bytes_ -= BitmapBytes(*it->second.mask);
      conjunctions_.erase(it);
      lru_.pop_back();
      ++evictions_;
      CacheMetrics().evictions.Increment();
    }
    // Atom tier, LRU last: only reached once no evictable conjunction
    // remains. The dense id (and every conjunction key embedding it)
    // stays valid; a re-request rescans the column into the same slot.
    while (held() > max_bytes_ && atom_lru_.size() > 1) {
      const uint32_t id = atom_lru_.back();
      AtomEntry& entry = atom_masks_[id];
      atom_bytes_ -= BitmapBytes(*entry.mask);
      entry.mask.reset();
      atom_lru_.pop_back();
      ++atom_evictions_;
      CacheMetrics().atom_evictions.Increment();
    }
    // Numeric sorted orders last of all: the costliest rebuild (a full
    // re-sort), but also the biggest entries at scale (~12 bytes/row per
    // column) — without this tier a capped index could silently hold
    // hundreds of MB of order state. Holders' shared_ptr copies survive.
    while (held() > max_bytes_ && !numeric_orders_.empty()) {
      const auto it = numeric_orders_.begin();
      numeric_order_bytes_ -=
          it->second->rows.size() * (sizeof(uint32_t) + sizeof(double));
      numeric_orders_.erase(it);
    }
  }
  IndexCacheMetrics& m = CacheMetrics();
  m.atom_bytes.Set(static_cast<double>(atom_bytes_));
  m.conjunction_bytes.Set(static_cast<double>(conjunction_bytes_));
  m.numeric_order_bytes.Set(static_cast<double>(numeric_order_bytes_));
}

void PredicateIndex::WarmStartCategoryMasks(const DataFrame& df, size_t attr,
                                            std::vector<Bitmap> masks) const {
  const Column& col = df.column(attr);
  MutexLock lock(mu_);
  for (size_t code = 0; code < masks.size(); ++code) {
    const std::string key =
        AtomKey(attr, CompareOp::kEq,
                Value(col.CategoryName(static_cast<int32_t>(code))));
    const auto it = atom_ids_.find(key);
    if (it != atom_ids_.end()) {
      // Interned with a live mask: leave it untouched. Interned but
      // budget-evicted (ids survive eviction by design): reinstall into
      // the existing slot — otherwise a warm start after eviction would
      // discard every mask it just built.
      if (atom_masks_[it->second].mask == nullptr) {
        InstallAtomMaskLocked(
            it->second, std::make_shared<Bitmap>(std::move(masks[code])));
        ++warm_atoms_;
        CacheMetrics().warm_atom_masks.Increment();
      }
      continue;
    }
    const uint32_t id = static_cast<uint32_t>(atom_masks_.size());
    atom_masks_.emplace_back();
    atom_ids_.emplace(key, id);
    InstallAtomMaskLocked(id,
                          std::make_shared<Bitmap>(std::move(masks[code])));
    ++warm_atoms_;
    CacheMetrics().warm_atom_masks.Increment();
  }
  EnforceBudgetLocked();
}

void PredicateIndex::SetMemoryBudget(size_t max_bytes) {
  MutexLock lock(mu_);
  max_bytes_ = max_bytes;
  EnforceBudgetLocked();
}

size_t PredicateIndex::memory_budget() const {
  MutexLock lock(mu_);
  return max_bytes_;
}

void PredicateIndex::Clear() {
  MutexLock lock(mu_);
  atom_ids_.clear();
  atom_masks_.clear();
  atom_lru_.clear();
  conjunctions_.clear();
  lru_.clear();
  conjunction_bytes_ = 0;
  atom_bytes_ = 0;
  all_rows_.reset();
  numeric_orders_.clear();
  numeric_order_bytes_ = 0;
  ++gen_;
  append_mode_ = false;  // nothing cached, so nothing to extend
  EnforceBudgetLocked();  // no-op eviction pass; refreshes the byte gauges
}

void PredicateIndex::OnAppend(const DataFrame& df) {
  (void)df;  // masks extend lazily against the table on next touch
  MutexLock lock(mu_);
  ++gen_;
  append_mode_ = true;
  // Cached entries stay resident: their bits over the old rows are still
  // correct, and every serve path extends (or rebuilds) a stale entry
  // before handing it out. The all-rows mask self-heals on size mismatch.
}

uint64_t PredicateIndex::generation() const {
  MutexLock lock(mu_);
  return gen_;
}

PredicateIndex::CacheStats PredicateIndex::GetStats() const {
  MutexLock lock(mu_);
  CacheStats stats;
  for (const AtomEntry& entry : atom_masks_) {
    if (entry.mask != nullptr) ++stats.atom_masks;
  }
  stats.conjunction_masks = conjunctions_.size();
  stats.hits = hits_;
  stats.misses = misses_;
  stats.atom_bytes = atom_bytes_;
  stats.conjunction_bytes = conjunction_bytes_;
  stats.evictions = evictions_;
  stats.atom_evictions = atom_evictions_;
  stats.warm_atom_masks = warm_atoms_;
  stats.numeric_orders = numeric_orders_.size();
  stats.numeric_order_bytes = numeric_order_bytes_;
  stats.atoms_extended = atoms_extended_;
  stats.conjunctions_extended = conjunctions_extended_;
  stats.orders_merged = orders_merged_;
  stats.rebuilt_after_append = rebuilt_after_append_;
  return stats;
}

}  // namespace faircap
