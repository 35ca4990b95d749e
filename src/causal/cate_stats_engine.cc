#include "causal/cate_stats_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "causal/linear_model.h"
#include "causal/logistic.h"
#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"
#include "util/simd/simd.h"

namespace faircap {

std::vector<double> QuantileBinEdges(const Column& col, size_t bins) {
  std::vector<double> values;
  values.reserve(col.size());
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) values.push_back(col.numeric(r));
  }
  // Partial selection per edge instead of a full sort: the edge positions
  // are ascending, so each nth_element works on the suffix the previous
  // one left behind (everything before `prev` is already <= that edge).
  // O(n * bins) expected vs O(n log n), and identical edge values.
  std::vector<double> edges;
  size_t prev = 0;
  for (size_t b = 1; b < bins && !values.empty(); ++b) {
    const size_t pos = values.size() * b / bins;
    std::nth_element(values.begin() + prev, values.begin() + pos,
                     values.end());
    edges.push_back(values[pos]);
    prev = pos;
  }
  return edges;
}

Result<CateEstimate> HajekIpwFromRows(
    const std::vector<double>& design, size_t n, size_t p,
    const std::vector<double>& labels, const std::vector<double>& outcomes,
    const std::vector<uint8_t>& is_treated_row, double propensity_clip) {
  FAIRCAP_ASSIGN_OR_RETURN(const LogisticFit propensity,
                           FitLogistic(design, n, p, labels));

  // Hajek (self-normalized) IPW with clipped propensities.
  const double clip = propensity_clip;
  double sum_w1 = 0.0, sum_w1y = 0.0, sum_w0 = 0.0, sum_w0y = 0.0;
  std::vector<double> w1_values, w0_values;  // for the variance estimate
  std::vector<double> y1_values, y0_values;
  size_t n_treated = 0, n_control = 0;
  for (size_t r = 0; r < n; ++r) {
    const double e = std::clamp(
        PredictLogistic(propensity.beta, &design[r * p]), clip, 1.0 - clip);
    if (is_treated_row[r] != 0) {
      const double w = 1.0 / e;
      sum_w1 += w;
      sum_w1y += w * outcomes[r];
      w1_values.push_back(w);
      y1_values.push_back(outcomes[r]);
      ++n_treated;
    } else {
      const double w = 1.0 / (1.0 - e);
      sum_w0 += w;
      sum_w0y += w * outcomes[r];
      w0_values.push_back(w);
      y0_values.push_back(outcomes[r]);
      ++n_control;
    }
  }
  // An empty arm would divide by a zero weight sum below and return a
  // NaN estimate that poisons every downstream comparison; fail loudly
  // instead (callers floor arm sizes, but the guard must not rely on it).
  if (n_treated == 0 || n_control == 0) {
    return Status::FailedPrecondition(
        "IPW requires both arms non-empty: " + std::to_string(n_treated) +
        " treated / " + std::to_string(n_control) + " control rows");
  }
  const double mean1 = sum_w1y / sum_w1;
  const double mean0 = sum_w0y / sum_w0;

  // Approximate variance of each weighted mean via the weighted residual
  // sum of squares (Hajek linearization).
  const auto weighted_mean_var = [](const std::vector<double>& weights,
                                    const std::vector<double>& values,
                                    double mean, double weight_sum) {
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      const double d = weights[i] * (values[i] - mean);
      acc += d * d;
    }
    return acc / (weight_sum * weight_sum);
  };

  CateEstimate est;
  est.cate = mean1 - mean0;
  est.std_error =
      std::sqrt(weighted_mean_var(w1_values, y1_values, mean1, sum_w1) +
                weighted_mean_var(w0_values, y0_values, mean0, sum_w0));
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}

std::shared_ptr<const ConfounderPartition> ConfounderPartition::Build(
    const DataFrame& df, size_t outcome_attr,
    const std::vector<size_t>& adjustment, const CateOptions& options) {
  const obs::TraceSpan span("partition_build");
  static obs::Counter& builds =
      obs::MetricsRegistry::Global().GetCounter("estimation.partition_builds");
  builds.Increment();
  // Interning and every accumulation pass read the outcome as doubles.
  FAIRCAP_CHECK(df.column(outcome_attr).type() == AttrType::kNumeric);
  std::shared_ptr<ConfounderPartition> part(new ConfounderPartition());
  const size_t n = df.num_rows();
  part->outcome_attr_ = outcome_attr;
  // Fresh cell-numbering identity; ExtendInPlace keeps it.
  static std::atomic<uint64_t> next_lineage{1};
  part->lineage_id_ = next_lineage.fetch_add(1, std::memory_order_relaxed);

  // Per-confounder layout: design feature span (reference enumeration
  // order) and the radix base of the reference stratum id. Persisted so
  // ExtendInPlace can intern appended rows with the exact same signatures.
  part->confs_.reserve(adjustment.size());
  for (size_t attr : adjustment) {
    const Column& col = df.column(attr);
    ConfLayout info;
    info.attr = attr;
    info.categorical = col.type() == AttrType::kCategorical;
    info.feature_base = static_cast<uint32_t>(part->features_.size());
    if (info.categorical) {
      // Drop the first level as the reference category.
      for (size_t code = 1; code < col.num_categories(); ++code) {
        part->features_.push_back({attr, true, static_cast<int32_t>(code)});
      }
      info.num_categories = col.num_categories();
      info.base = col.num_categories() + 1;
    } else {
      part->numeric_features_.push_back(
          static_cast<uint32_t>(part->features_.size()));
      part->features_.push_back({attr, false, 0});
      info.edges = QuantileBinEdges(
          col, std::max<size_t>(1, options.numeric_confounder_bins));
      info.base = info.edges.size() + 2;
    }
    part->confs_.push_back(std::move(info));
  }

  // Plan the key fold so no key passes int64: `bound` is one past the
  // largest running key. Where the next digit could pass it, the running
  // key is interned into a dense id (< 2^31) first. Every fold of
  // InternRows then stays exact by construction.
  constexpr uint64_t kKeyLimit = static_cast<uint64_t>(INT64_MAX);
  constexpr uint64_t kPrefixIdLimit = uint64_t{1} << 31;
  uint64_t bound = 1;
  for (ConfLayout& info : part->confs_) {
    uint64_t next = 0;
    if (__builtin_mul_overflow(bound, info.base, &next) || next > kKeyLimit) {
      info.starts_segment = true;
      part->prefix_tables_.emplace_back();
      FAIRCAP_CHECK(!__builtin_mul_overflow(kPrefixIdLimit, info.base, &next) &&
                    next <= kKeyLimit);
    }
    bound = next;
  }

  // Cache the numeric confounder columns with nulls as 0.0 — exactly the
  // value the reference design-matrix build substitutes.
  part->numeric_values_.resize(part->numeric_features_.size());
  for (size_t j = 0; j < part->numeric_features_.size(); ++j) {
    const Column& col =
        df.column(part->features_[part->numeric_features_[j]].attr);
    std::vector<double>& vals = part->numeric_values_[j];
    vals.resize(n);
    for (size_t r = 0; r < n; ++r) {
      vals[r] = col.IsNull(r) ? 0.0 : col.numeric(r);
    }
  }
  // Raw pointer span over the cached columns (stable: the column vectors
  // are never resized after this point) — accumulation passes read it
  // directly instead of rebuilding a pointer array per call.
  part->numeric_value_ptrs_.reserve(part->numeric_values_.size());
  for (const auto& vals : part->numeric_values_) {
    part->numeric_value_ptrs_.push_back(vals.data());
  }

  part->InternRows(df, /*row_begin=*/0);
  return part;
}

bool ConfounderPartition::ExtendInPlace(const DataFrame& df) {
  if (df.num_rows() < rows_covered_) return false;  // not an append
  // Numeric confounders are never extendable: their quantile edges (and
  // with them every row's bin signature) shift with the new rows.
  if (!numeric_features_.empty()) return false;
  // A categorical confounder that gained categories changes the radix
  // bases and the one-hot feature layout — cold rebuild required.
  for (const ConfLayout& info : confs_) {
    if (df.column(info.attr).num_categories() != info.num_categories) {
      return false;
    }
  }
  InternRows(df, rows_covered_);
  return true;
}

int32_t ConfounderPartition::KeyTable::Insert(uint64_t key) {
  if (2 * (keys_.size() + 1) > slots_.size()) Rehash(2 * slots_.size());
  FAIRCAP_CHECK(keys_.size() < static_cast<size_t>(INT32_MAX));
  const int32_t id = static_cast<int32_t>(keys_.size());
  slots_[SlotOf(key)] = id;
  keys_.push_back(key);
  return id;
}

void ConfounderPartition::KeyTable::Rehash(size_t capacity) {
  slots_.assign(capacity, -1);
  shift_ = 64 - static_cast<uint32_t>(__builtin_ctzll(capacity));
  // Keys are distinct, so each probe ends on an empty slot.
  for (size_t id = 0; id < keys_.size(); ++id) {
    slots_[SlotOf(keys_[id])] = static_cast<int32_t>(id);
  }
}

void ConfounderPartition::DecodeDigits(uint64_t key, uint64_t* digits) const {
  size_t segment = prefix_tables_.size();
  for (size_t a = confs_.size(); a-- > 0;) {
    digits[a] = key % confs_[a].base;
    key /= confs_[a].base;
    if (confs_[a].starts_segment) key = prefix_tables_[--segment].keys()[key];
  }
}

int32_t ConfounderPartition::AddCell(uint64_t key, uint64_t* digits) {
  DecodeDigits(key, digits);
  bool any_null = false;
  for (size_t a = 0; a < confs_.size(); ++a) {
    const ConfLayout& info = confs_[a];
    if (digits[a] == info.base - 1) {
      any_null = true;
    } else if (info.categorical && digits[a] >= 1) {
      onehot_ids_.push_back(info.feature_base +
                            static_cast<uint32_t>(digits[a] - 1));
    }
  }
  FAIRCAP_CHECK(onehot_ids_.size() <= UINT32_MAX);
  onehot_begin_.push_back(static_cast<uint32_t>(onehot_ids_.size()));
  // Without segments the key is the reference stratum id itself;
  // segmented ids are ranks, assigned after interning.
  cells_.push_back({any_null ? -1 : static_cast<int64_t>(key)});
  return cell_ids_.Insert(key);
}

void ConfounderPartition::InternRows(const DataFrame& df, size_t row_begin) {
  const size_t n = df.num_rows();
  const size_t k = confs_.size();

  // Reserve ~12.5% headroom past the current table whenever the per-row
  // cell map must grow: an append of up to that fraction then extends in
  // place with no O(N) reallocation copy — the same amortized-reserve
  // policy Column::AppendRow uses. (resize alone would also amortize via
  // capacity doubling, but doubling touches 2N fresh pages exactly on
  // the latency-sensitive first append.)
  if (cell_of_row_.capacity() < n) cell_of_row_.reserve(n + n / 8);
  cell_of_row_.resize(n, -1);
  outcome_valid_.Resize(n);

  // Each row's key is the mixed-radix number of its digits (category
  // code or quantile bin, base-1 for null), folded one confounder at a
  // time over a block of rows. Rows with a null outcome stay at cell -1:
  // every estimator excludes them. New cells are appended in
  // first-appearance order, which for an extension (row_begin > 0) is the
  // order a cold build over the concatenated table would discover them.
  const double* outcome = df.column(outcome_attr_).numeric_data();
  constexpr size_t kBlockRows = 2048;
  uint64_t keys[kBlockRows];
  std::vector<uint64_t> digits(k);
  for (size_t block = row_begin; block < n; block += kBlockRows) {
    const size_t len = std::min(kBlockRows, n - block);
    std::fill(keys, keys + len, 0);
    size_t segment = 0;
    for (const ConfLayout& info : confs_) {
      if (info.starts_segment) {
        KeyTable& prefix = prefix_tables_[segment++];
        for (size_t i = 0; i < len; ++i) {
          const int32_t id = prefix.Find(keys[i]);
          keys[i] = static_cast<uint64_t>(id >= 0 ? id : prefix.Insert(keys[i]));
        }
      }
      const Column& col = df.column(info.attr);
      const uint64_t base = info.base;
      const uint64_t null_digit = base - 1;
      if (info.categorical) {
        const int32_t* codes = col.codes_data() + block;
        for (size_t i = 0; i < len; ++i) {
          const uint64_t digit =
              codes[i] < 0 ? null_digit : static_cast<uint64_t>(codes[i]);
          keys[i] = keys[i] * base + digit;
        }
      } else {
        const double* values = col.numeric_data() + block;
        const double* edges = info.edges.data();
        const double* edges_end = edges + info.edges.size();
        for (size_t i = 0; i < len; ++i) {
          const uint64_t digit =
              std::isnan(values[i])
                  ? null_digit
                  : static_cast<uint64_t>(
                        std::upper_bound(edges, edges_end, values[i]) - edges);
          keys[i] = keys[i] * base + digit;
        }
      }
    }

    uint64_t* valid_words = outcome_valid_.mutable_words();
    for (size_t i = 0; i < len; ++i) {
      const size_t r = block + i;
      if (std::isnan(outcome[r])) continue;  // stays at cell -1
      valid_words[r / 64] |= uint64_t{1} << (r % 64);
      const int32_t cell = cell_ids_.Find(keys[i]);
      cell_of_row_[r] = cell >= 0 ? cell : AddCell(keys[i], digits.data());
    }
  }

  for (size_t c = all_cells_.size(); c < cells_.size(); ++c) {
    all_cells_.push_back(static_cast<uint32_t>(c));
  }

  // Re-derive the stratum order over the (possibly grown) cell table:
  // non-null cells ascending by digit tuple, which is ascending stratum id
  // whenever the mixed-radix id fits. Tuples are unique across cells, so
  // the order is deterministic and matches a cold build's.
  cells_by_stratum_.clear();
  cells_by_stratum_.reserve(cells_.size());
  for (uint32_t c = 0; c < cells_.size(); ++c) {
    if (cells_[c].stratum_id >= 0) cells_by_stratum_.push_back(c);
  }
  if (prefix_tables_.empty()) {
    std::sort(cells_by_stratum_.begin(), cells_by_stratum_.end(),
              [&](uint32_t a, uint32_t b) {
                return cells_[a].stratum_id < cells_[b].stratum_id;
              });
  } else {
    std::vector<uint64_t> tuples(cells_.size() * k);
    for (const uint32_t c : cells_by_stratum_) {
      DecodeDigits(cell_ids_.keys()[c], tuples.data() + size_t{c} * k);
    }
    std::sort(cells_by_stratum_.begin(), cells_by_stratum_.end(),
              [&](uint32_t a, uint32_t b) {
                const uint64_t* ta = tuples.data() + size_t{a} * k;
                const uint64_t* tb = tuples.data() + size_t{b} * k;
                return std::lexicographical_compare(ta, ta + k, tb, tb + k);
              });
    for (size_t rank = 0; rank < cells_by_stratum_.size(); ++rank) {
      cells_[cells_by_stratum_[rank]].stratum_id = static_cast<int64_t>(rank);
    }
  }

  size_t bytes = cell_of_row_.size() * sizeof(int32_t) +
                 outcome_valid_.num_words() * sizeof(uint64_t) +
                 (all_cells_.size() + cells_by_stratum_.size()) *
                     sizeof(uint32_t);
  for (const auto& vals : numeric_values_) {
    bytes += vals.size() * sizeof(double);
  }
  bytes += cells_.size() * sizeof(Cell) +
           (onehot_begin_.size() + onehot_ids_.size()) * sizeof(uint32_t);
  // The key tables persist for extension, so they count too.
  bytes += cell_ids_.bytes();
  for (const KeyTable& prefix : prefix_tables_) bytes += prefix.bytes();
  bytes_ = bytes;
  rows_covered_ = n;
}

CateStatsEngine::CateStatsEngine(
    const DataFrame* df, CateOptions options, std::vector<size_t> adjustment,
    std::shared_ptr<const Bitmap> treated,
    std::shared_ptr<const ConfounderPartition> partition)
    : df_(df),
      options_(options),
      adjustment_(std::move(adjustment)),
      treated_(std::move(treated)),
      partition_(std::move(partition)) {}

size_t CateStatsEngine::bytes() const {
  // The treated mask is pinned by this engine via shared ownership (the
  // PredicateIndex may have evicted its own copy), so its words count
  // against whoever budgets the engine.
  const size_t mask_bytes = ((treated_->size() + 63) / 64) * sizeof(uint64_t);
  return sizeof(CateStatsEngine) + adjustment_.size() * sizeof(size_t) +
         mask_bytes;
}

size_t CateStatsEngine::AccumBytes(size_t cells) const {
  const size_t m = need_moments() ? partition_->num_numeric() : 0;
  return cells * 2 *
         (sizeof(simd::CateSlot) + (2 * m + m * (m + 1) / 2) * sizeof(double));
}

void CateStatsEngine::ResetAccum(Accum* acc, size_t slots) const {
  acc->rows = 0;
  acc->n_treated = 0;
  acc->n_control = 0;
  acc->slots.assign(slots, simd::CateSlot());
  if (need_moments()) {
    const size_t m = partition_->num_numeric();
    acc->zsum.assign(slots * m, 0.0);
    acc->zysum.assign(slots * m, 0.0);
    acc->zzsum.assign(slots * (m * (m + 1) / 2), 0.0);
  }
}

CateStatsEngine::CellList CateStatsEngine::TableCells() const {
  const ConfounderPartition& part = *partition_;
  return {part.all_cells().data(), part.all_cells().size(),
          part.cells_by_stratum().data(), part.cells_by_stratum().size()};
}

namespace {

/// The kernel-facing view of an accum's slots.
simd::CateSink SinkOf(CateStatsEngine::Accum* acc) {
  simd::CateSink sink;
  sink.rows = &acc->rows;
  sink.n_treated = &acc->n_treated;
  sink.n_control = &acc->n_control;
  sink.slots = acc->slots.data();
  sink.zsum = acc->zsum.empty() ? nullptr : acc->zsum.data();
  sink.zysum = acc->zysum.empty() ? nullptr : acc->zysum.data();
  sink.zzsum = acc->zzsum.empty() ? nullptr : acc->zzsum.data();
  return sink;
}

}  // namespace

void CateStatsEngine::ResetTreatment(size_t slots, bool split,
                                     size_t rows_covered, SubgroupAccums* acc,
                                     simd::CateTreatmentSinks* sinks) const {
  acc->split = split;
  acc->rows_covered = rows_covered;
  sinks->treated_words = treated_->words();
  ResetAccum(&acc->overall, slots);
  sinks->overall = SinkOf(&acc->overall);
  if (split) {
    ResetAccum(&acc->prot, slots);
    ResetAccum(&acc->nonprot, slots);
    sinks->prot = SinkOf(&acc->prot);
    sinks->nonprot = SinkOf(&acc->nonprot);
  }
}

void CateStatsEngine::AccumulateTable(const CateStatsEngine* const* engines,
                                      SubgroupAccums* accums, size_t count,
                                      const Bitmap& group,
                                      const Bitmap* protected_mask,
                                      size_t row_begin) {
  // The group, valid and protected bitmaps and every treated mask are
  // walked in lockstep over one word range, and every treatment's slots
  // are indexed by the first engine's cell ids; a mismatched universe or
  // partition would read or write out of bounds, so both are checked in
  // every build (once per pass, not per row).
  FAIRCAP_CHECK(count >= 1 && count <= simd::kMaxCateBatch);
  const CateStatsEngine& lead = *engines[0];
  const ConfounderPartition& part = *lead.partition_;
  const Bitmap& valid = part.outcome_valid();
  FAIRCAP_CHECK(valid.size() == group.size());
  FAIRCAP_CHECK(protected_mask == nullptr ||
                protected_mask->size() == group.size());
  FAIRCAP_CHECK(row_begin <= group.size());

  // The group mask ANDed with the valid-row mask picks the rows, each
  // treated mask drives its treatment's arm bit, and the optional
  // protected mask the subgroup sink — 64 rows per word, through the
  // runtime-dispatched accumulation kernel. The outcome is read straight
  // from the table column, fetched here on every pass: an append may
  // reallocate it. Every float add runs in ascending-row order per slot,
  // so the result is bit-identical at every SIMD level and batch width.
  const bool split = protected_mask != nullptr;
  simd::CateAccumArgs args;
  args.group_words = group.words();
  args.protected_words = split ? protected_mask->words() : nullptr;
  args.valid_words = valid.words();
  args.cell_of_row = part.cell_of_row().data();
  args.outcome = lead.df_->column(part.outcome_attr()).numeric_data();
  args.num_numeric = part.num_numeric();
  args.moments = lead.need_moments();
  args.zcols = args.moments ? part.numeric_value_ptrs() : nullptr;
  args.row_begin = row_begin;
  args.word_end = group.num_words();
  args.num_treatments = count;
  const size_t slots = part.cells().size() * 2;
  for (size_t i = 0; i < count; ++i) {
    const CateStatsEngine& engine = *engines[i];
    FAIRCAP_CHECK(engine.partition_.get() == &part &&
                  engine.df_ == lead.df_ &&
                  engine.need_moments() == args.moments);
    FAIRCAP_CHECK(engine.treated_->size() == group.size());
    engine.ResetTreatment(slots, split, engine.df_->num_rows(), &accums[i],
                          &args.treatments[i]);
  }

  simd::ActiveKernels().cate_accumulate(args);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  // Per-treatment row updates: a fused pass adds each row once per
  // treatment.
  static obs::Counter& rows_counter =
      registry.GetCounter("simd.cate_accumulate_rows");
  rows_counter.Add(count * accums[0].overall.rows);
  static obs::Counter& table_passes =
      registry.GetCounter("estimation.table_passes");
  table_passes.Increment();
  // One per evaluation the pass serves (the one accumulate path).
  static obs::Counter& sparse_passes =
      registry.GetCounter("estimation.accumulate_path_sparse");
  sparse_passes.Add(count);
}

Result<CateEstimate> CateStatsEngine::Solve(const Accum& acc,
                                            const CellList& cells,
                                            CountBlock* row_counts,
                                            const Slice& slice,
                                            size_t min_group_size) const {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  switch (options_.method) {
    case CateMethod::kRegression: {
      static obs::Counter& solves =
          registry.GetCounter("estimation.solve_regression");
      solves.Increment();
      return SolveRegression(acc, cells, row_counts, min_group_size);
    }
    case CateMethod::kStratified: {
      static obs::Counter& solves =
          registry.GetCounter("estimation.solve_stratified");
      solves.Increment();
      return SolveStratified(acc, cells, min_group_size);
    }
    case CateMethod::kIpw:
      // The cell/row split is counted inside SolveIpw — only there is it
      // known whether the grouped-cell fit applies or the per-row
      // fallback runs.
      return SolveIpw(acc, cells, slice, min_group_size);
  }
  return Status::Internal("unknown CATE method");
}

void CateStatsEngine::AssembleNormalEquations(const Accum& acc,
                                              NormalEquations* out) const {
  AssembleNormalEquations(acc, TableCells(), nullptr, out);
}

void CateStatsEngine::AssembleNormalEquations(const Accum& acc,
                                              const CellList& cells,
                                              CountBlock* row_counts,
                                              NormalEquations* out) const {
  const ConfounderPartition& part = *partition_;
  FAIRCAP_CHECK(acc.slots.size() == cells.size * 2);
  const uint32_t* onehot_begin = part.onehot_begin().data();
  const uint32_t* onehot_ids = part.onehot_ids().data();
  const auto& features = part.features();
  const auto& nf = part.numeric_features();
  const size_t m = part.num_numeric();
  const size_t mm = m * (m + 1) / 2;
  const size_t p = 2 + features.size();
  out->p = p;
  out->xtx.assign(p * p, 0.0);
  out->xty.assign(p, 0.0);
  out->yty = 0.0;
  double* xtx = out->xtx.data();
  double* xty = out->xty.data();

  // Within a cell the design row is [1, arm, one-hot(c), z], with only z
  // varying by row. Every X'X entry between the intercept, T and one-hot
  // columns is therefore a row count: summed per cell in int64 (n0 + n1,
  // or n1 for T) and converted once below. Each partial sum is an integer
  // below 2^53, so this equals the ascending per-slot double sum exactly.
  // (f, f) equals (0, f), and levels of one confounder never share a
  // cell, so only the cross-confounder pairs are summed. The entries
  // weighted by n0 + n1 do not depend on the treatment: with `row_counts`
  // they are summed on first use, kept, and copied after; the T row and
  // (0, T) are weighted by n1 and summed every time.
  thread_local std::vector<int64_t> counts;
  const bool have_block = row_counts != nullptr && row_counts->ready;
  if (have_block) {
    FAIRCAP_CHECK(row_counts->counts.size() == p * p);
    counts = row_counts->counts;
  } else {
    counts.assign(p * p, 0);
  }
  int64_t* cnt = counts.data();
  for (size_t i = 0; i < cells.size; ++i) {
    const int64_t n1 = acc.slots[i * 2 + 1].n;
    const int64_t nc = acc.slots[i * 2].n + n1;
    if (nc == 0) continue;
    const uint32_t c = cells.cells[i];
    const uint32_t* f_begin = onehot_ids + onehot_begin[c];
    const uint32_t* f_end = onehot_ids + onehot_begin[c + 1];
    if (!have_block) {
      cnt[0] += nc;
      for (const uint32_t* f = f_begin; f != f_end; ++f) {
        const size_t col = 2 + *f;
        cnt[col] += nc;
        int64_t* row = cnt + col * p + 2;
        for (const uint32_t* g = f + 1; g != f_end; ++g) row[*g] += nc;
      }
    }
    cnt[1] += n1;
    cnt[p + 1] += n1;
    for (const uint32_t* f = f_begin; f != f_end; ++f) cnt[p + 2 + *f] += n1;

    // X'y, y'y and the numeric-moment entries stay in double, added per
    // non-empty slot in ascending slot order.
    for (size_t arm = 0; arm < 2; ++arm) {
      const size_t idx = i * 2 + arm;
      const simd::CateSlot& slot = acc.slots[idx];
      if (slot.n == 0) continue;
      const double sy = slot.sy;
      xty[0] += sy;
      if (arm != 0) xty[1] += sy;
      out->yty += slot.syy;
      for (const uint32_t* f = f_begin; f != f_end; ++f) xty[2 + *f] += sy;
      if (m == 0) continue;
      const size_t zbase = idx * m;
      for (size_t j = 0; j < m; ++j) {
        const double sz = acc.zsum[zbase + j];
        const size_t colj = 2 + nf[j];
        xtx[colj] += sz;                    // (0, z_j)
        if (arm != 0) xtx[p + colj] += sz;  // (T, z_j)
        for (const uint32_t* f = f_begin; f != f_end; ++f) {
          const size_t a = 2 + *f;
          if (a <= colj) {
            xtx[a * p + colj] += sz;
          } else {
            xtx[colj * p + a] += sz;
          }
        }
        xty[colj] += acc.zysum[zbase + j];
      }
      const size_t zzbase = idx * mm;
      for (size_t zi = 0, t = 0; zi < m; ++zi) {
        for (size_t zj = zi; zj < m; ++zj, ++t) {
          xtx[(2 + nf[zi]) * p + (2 + nf[zj])] += acc.zzsum[zzbase + t];
        }
      }
    }
  }

  if (row_counts != nullptr && !have_block) {
    // Keep the treatment-invariant entries: all but (0, T) and the T row.
    row_counts->counts = counts;
    row_counts->counts[1] = 0;
    std::fill(row_counts->counts.begin() + static_cast<ptrdiff_t>(p),
              row_counts->counts.begin() + static_cast<ptrdiff_t>(2 * p), 0);
    row_counts->ready = true;
  }

  // Convert the count block: the upper triangle over the intercept, T and
  // one-hot columns. Numeric columns hold moments and are left as summed.
  const auto is_count = [&](size_t col) {
    return col < 2 || features[col - 2].categorical;
  };
  for (size_t i = 0; i < p; ++i) {
    if (!is_count(i)) continue;
    if (i >= 2) cnt[i * p + i] = cnt[i];
    for (size_t j = i; j < p; ++j) {
      if (is_count(j)) xtx[i * p + j] = static_cast<double>(cnt[i * p + j]);
    }
  }
}

Result<CateEstimate> CateStatsEngine::SolveRegression(
    const Accum& acc, const CellList& cells, CountBlock* row_counts,
    size_t min_group_size) const {
  if (acc.n_treated < min_group_size || acc.n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(acc.n_treated) +
        " treated / " + std::to_string(acc.n_control) + " control rows");
  }
  thread_local NormalEquations eq;
  AssembleNormalEquations(acc, cells, row_counts, &eq);
  FAIRCAP_ASSIGN_OR_RETURN(
      const OlsFit fit,
      SolveNormalEquations(eq.xtx, eq.xty, eq.yty, acc.rows, eq.p,
                           options_.ridge));
  CateEstimate est;
  est.cate = fit.beta[1];
  est.std_error = fit.treatment_std_error;
  est.n_treated = acc.n_treated;
  est.n_control = acc.n_control;
  return est;
}

Result<CateEstimate> CateStatsEngine::SolveStratified(
    const Accum& acc, const CellList& cells, size_t min_group_size) const {
  // The exact reference combine (same arithmetic, same std::map-ascending
  // stratum order), fed from the sliced cell stats — bit-for-bit equal.
  double weighted_effect = 0.0;
  double weighted_var = 0.0;
  size_t n_used = 0, n_treated = 0, n_control = 0;
  for (size_t k = 0; k < cells.num_by_stratum; ++k) {
    const simd::CateSlot& s1 =
        acc.slots[static_cast<size_t>(cells.by_stratum[k]) * 2 + 1];
    const simd::CateSlot& s0 =
        acc.slots[static_cast<size_t>(cells.by_stratum[k]) * 2];
    const size_t nt = s1.n;
    const size_t nc = s0.n;
    if (nt + nc == 0) continue;  // cell untouched by this subgroup
    if (nt < options_.min_stratum_arm || nc < options_.min_stratum_arm) {
      continue;  // no overlap in this stratum (positivity violation)
    }
    const size_t n_s = nt + nc;
    const double m1 = s1.sy / static_cast<double>(nt);
    const double m0 = s0.sy / static_cast<double>(nc);
    weighted_effect += static_cast<double>(n_s) * (m1 - m0);
    const auto arm_var = [](size_t n, double sum, double sum_sq) {
      if (n < 2) return 0.0;
      const double mean = sum / static_cast<double>(n);
      return std::max(0.0,
                      (sum_sq - sum * mean) / static_cast<double>(n - 1));
    };
    const double v1 =
        arm_var(nt, s1.sy, s1.syy) / static_cast<double>(nt);
    const double v0 =
        arm_var(nc, s0.sy, s0.syy) / static_cast<double>(nc);
    weighted_var += static_cast<double>(n_s) * static_cast<double>(n_s) *
                    (v1 + v0);
    n_used += n_s;
    n_treated += nt;
    n_control += nc;
  }
  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap after stratification: " +
        std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }
  CateEstimate est;
  est.cate = weighted_effect / static_cast<double>(n_used);
  est.std_error = std::sqrt(weighted_var) / static_cast<double>(n_used);
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}

Result<CateEstimate> CateStatsEngine::SolveIpw(const Accum& acc,
                                               const CellList& cells,
                                               const Slice& slice,
                                               size_t min_group_size) const {
  if (acc.n_treated < min_group_size || acc.n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(acc.n_treated) +
        " treated / " + std::to_string(acc.n_control) + " control rows");
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (partition_->num_numeric() > 0) {
    // The propensity design varies within a cell; replay the reference
    // per-row path (design served from the partition's cached columns).
    static obs::Counter& row_solves =
        registry.GetCounter("estimation.solve_ipw_rows");
    row_solves.Increment();
    return SolveIpwRows(slice, min_group_size);
  }
  static obs::Counter& cell_solves =
      registry.GetCounter("estimation.solve_ipw_cells");
  cell_solves.Increment();

  // Categorical-only confounders: the propensity design is constant per
  // cell, so the logistic fit runs on grouped counts and the Hajek sums
  // come straight from the cell stats.
  const uint32_t* onehot_begin = partition_->onehot_begin().data();
  const uint32_t* onehot_ids = partition_->onehot_ids().data();
  const size_t p = 1 + partition_->features().size();
  std::vector<double> x;
  std::vector<double> trials, successes;
  std::vector<uint32_t> touched;  // slot-cell indices i
  for (uint32_t i = 0; i < cells.size; ++i) {
    const uint32_t n1 = acc.slots[static_cast<size_t>(i) * 2 + 1].n;
    const uint32_t n0 = acc.slots[static_cast<size_t>(i) * 2].n;
    if (n1 + n0 == 0) continue;
    const uint32_t c = cells.cells[i];
    const size_t base = x.size();
    x.resize(base + p, 0.0);
    x[base] = 1.0;
    for (uint32_t k = onehot_begin[c]; k < onehot_begin[c + 1]; ++k) {
      x[base + 1 + onehot_ids[k]] = 1.0;
    }
    trials.push_back(static_cast<double>(n1 + n0));
    successes.push_back(static_cast<double>(n1));
    touched.push_back(i);
  }
  const Result<LogisticFit> propensity =
      FitLogisticGrouped(x, touched.size(), p, trials, successes);
  if (!propensity.ok()) return propensity.status();

  const double clip = options_.propensity_clip;
  double sum_w1 = 0.0, sum_w1y = 0.0, sum_w0 = 0.0, sum_w0y = 0.0;
  std::vector<double> e_of(touched.size());
  for (size_t i = 0; i < touched.size(); ++i) {
    const double e = std::clamp(
        PredictLogistic(propensity->beta, &x[i * p]), clip, 1.0 - clip);
    e_of[i] = e;
    const size_t c2 = static_cast<size_t>(touched[i]) * 2;
    const simd::CateSlot& s1 = acc.slots[c2 + 1];
    const simd::CateSlot& s0 = acc.slots[c2];
    sum_w1 += static_cast<double>(s1.n) / e;
    sum_w1y += s1.sy / e;
    sum_w0 += static_cast<double>(s0.n) / (1.0 - e);
    sum_w0y += s0.sy / (1.0 - e);
  }
  const double mean1 = sum_w1y / sum_w1;
  const double mean0 = sum_w0y / sum_w0;

  // Per-arm Hajek variance: within a cell the weight is constant, so
  // Σ_r (w (y_r - mean))² = w² (Σy² - 2 mean Σy + n mean²).
  double var1_acc = 0.0, var0_acc = 0.0;
  for (size_t i = 0; i < touched.size(); ++i) {
    const double e = e_of[i];
    const size_t c2 = static_cast<size_t>(touched[i]) * 2;
    const simd::CateSlot& s1 = acc.slots[c2 + 1];
    const simd::CateSlot& s0 = acc.slots[c2];
    const double n1 = static_cast<double>(s1.n);
    const double n0 = static_cast<double>(s0.n);
    const double w1 = 1.0 / e;
    const double w0 = 1.0 / (1.0 - e);
    const double ssd1 = std::max(
        0.0, s1.syy - 2.0 * mean1 * s1.sy + n1 * mean1 * mean1);
    const double ssd0 = std::max(
        0.0, s0.syy - 2.0 * mean0 * s0.sy + n0 * mean0 * mean0);
    var1_acc += w1 * w1 * ssd1;
    var0_acc += w0 * w0 * ssd0;
  }
  CateEstimate est;
  est.cate = mean1 - mean0;
  est.std_error = std::sqrt(var1_acc / (sum_w1 * sum_w1) +
                            var0_acc / (sum_w0 * sum_w0));
  est.n_treated = acc.n_treated;
  est.n_control = acc.n_control;
  return est;
}

Result<CateEstimate> CateStatsEngine::SolveIpwRows(
    const Slice& slice, size_t min_group_size) const {
  (void)min_group_size;  // overlap already checked on the accumulated counts
  const uint32_t* onehot_begin = partition_->onehot_begin().data();
  const uint32_t* onehot_ids = partition_->onehot_ids().data();
  const int32_t* cell_of_row = partition_->cell_of_row().data();
  const uint64_t* vw = partition_->outcome_valid().words();
  const double* y = df_->column(partition_->outcome_attr()).numeric_data();
  const size_t m = partition_->num_numeric();
  const auto& nf = partition_->numeric_features();
  const size_t p = 1 + partition_->features().size();

  std::vector<double> design;
  std::vector<double> labels;
  std::vector<double> outcomes;
  std::vector<uint8_t> is_treated_row;
  const uint64_t* gw = slice.group->words();
  const uint64_t* tw = treated_->words();
  const uint64_t* pw =
      slice.protected_mask != nullptr ? slice.protected_mask->words() : nullptr;
  const size_t num_words = slice.group->num_words();
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t bits = gw[w] & vw[w];
    if (pw != nullptr) bits &= slice.protected_member ? pw[w] : ~pw[w];
    if (bits == 0) continue;
    const uint64_t tword = tw[w];
    while (bits != 0) {
      const int b = __builtin_ctzll(bits);
      bits &= bits - 1;
      const size_t r = w * 64 + static_cast<size_t>(b);
      const int32_t c = cell_of_row[r];
      const size_t base = design.size();
      design.resize(base + p, 0.0);
      design[base] = 1.0;
      for (uint32_t k = onehot_begin[c]; k < onehot_begin[c + 1]; ++k) {
        design[base + 1 + onehot_ids[k]] = 1.0;
      }
      for (size_t j = 0; j < m; ++j) {
        design[base + 1 + nf[j]] = partition_->numeric_values()[j][r];
      }
      const bool t = ((tword >> b) & 1) != 0;
      labels.push_back(t ? 1.0 : 0.0);
      outcomes.push_back(y[r]);
      is_treated_row.push_back(t ? 1 : 0);
    }
  }
  // Same ascending row order, same design values as the reference loop —
  // HajekIpwFromRows is the one shared implementation.
  return HajekIpwFromRows(design, labels.size(), p, labels, outcomes,
                          is_treated_row, options_.propensity_clip);
}

void CateStatsEngine::MergeAccum(Accum* into, const Accum& from) const {
  // Checked in every build: the loops below index `into` by `from`'s
  // sizes, and MergeSubgroupAccums is public. Accums of one engine (after
  // GrowAccum) always agree.
  FAIRCAP_CHECK(into->slots.size() == from.slots.size());
  FAIRCAP_CHECK(into->zsum.size() == from.zsum.size() &&
                into->zysum.size() == from.zysum.size() &&
                into->zzsum.size() == from.zzsum.size());
  into->rows += from.rows;
  into->n_treated += from.n_treated;
  into->n_control += from.n_control;
  for (size_t i = 0; i < from.slots.size(); ++i) {
    into->slots[i].n += from.slots[i].n;
    into->slots[i].sy += from.slots[i].sy;
    into->slots[i].syy += from.slots[i].syy;
  }
  for (size_t i = 0; i < from.zsum.size(); ++i) into->zsum[i] += from.zsum[i];
  for (size_t i = 0; i < from.zysum.size(); ++i) {
    into->zysum[i] += from.zysum[i];
  }
  for (size_t i = 0; i < from.zzsum.size(); ++i) {
    into->zzsum[i] += from.zzsum[i];
  }
}

CateStatsEngine::SubgroupAccums CateStatsEngine::AccumulateSubgroups(
    const Bitmap& group, const Bitmap* protected_mask) const {
  SubgroupAccums out;
  const CateStatsEngine* self = this;
  AccumulateTable(&self, &out, 1, group, protected_mask, /*row_begin=*/0);
  return out;
}

CateStatsEngine::SubgroupAccums CateStatsEngine::AccumulateDelta(
    const Bitmap& group, const Bitmap* protected_mask,
    size_t row_begin) const {
  // The pass starts at the word holding row_begin with that word's
  // resident bits masked, so it reaches the delta rows in ascending row
  // order — the order a cold pass would reach them after all resident
  // rows.
  SubgroupAccums out;
  const CateStatsEngine* self = this;
  AccumulateTable(&self, &out, 1, group, protected_mask, row_begin);
  return out;
}

void CateStatsEngine::MergeSubgroupAccums(SubgroupAccums* into,
                                          const SubgroupAccums& from) const {
  FAIRCAP_CHECK(into->split == from.split);
  GrowAccum(&into->overall);
  MergeAccum(&into->overall, from.overall);
  if (into->split) {
    GrowAccum(&into->prot);
    GrowAccum(&into->nonprot);
    MergeAccum(&into->prot, from.prot);
    MergeAccum(&into->nonprot, from.nonprot);
  }
  into->rows_covered = std::max(into->rows_covered, from.rows_covered);
}

void CateStatsEngine::GrowAccum(Accum* acc) const {
  // A cached accum may predate cells the delta interned: grow it to the
  // current slot count. New cells append at the end, so resident slot
  // indices are unchanged and the new slots start at zero.
  const size_t slots = partition_->cells().size() * 2;
  if (acc->slots.empty() || acc->slots.size() >= slots) return;
  acc->slots.resize(slots);
  const size_t m = partition_->num_numeric();
  if (!acc->zsum.empty()) acc->zsum.resize(slots * m, 0.0);
  if (!acc->zysum.empty()) acc->zysum.resize(slots * m, 0.0);
  if (!acc->zzsum.empty()) acc->zzsum.resize(slots * (m * (m + 1) / 2), 0.0);
}

CateSubgroupEstimates CateStatsEngine::SolveFromAccums(
    const SubgroupAccums& accums, const Bitmap& group,
    const Bitmap* protected_mask, size_t min_group_size,
    size_t min_subgroup_size, bool skip_subgroups_unless_positive) const {
  // The solvers index every cell of the partition: an accum that predates
  // delta-interned cells must be grown (MergeSubgroupAccums) first.
  const size_t slots = partition_->cells().size() * 2;
  FAIRCAP_CHECK(accums.overall.slots.size() == slots);
  FAIRCAP_CHECK(!accums.split || (accums.prot.slots.size() == slots &&
                                  accums.nonprot.slots.size() == slots));
  return SolveSubgroups(accums, TableCells(), nullptr, group, protected_mask,
                        min_group_size, min_subgroup_size,
                        skip_subgroups_unless_positive);
}

CateSubgroupEstimates CateStatsEngine::SolveSubgroups(
    const SubgroupAccums& accums, const CellList& cells,
    CountBlock* row_counts, const Bitmap& group, const Bitmap* protected_mask,
    size_t min_group_size, size_t min_subgroup_size,
    bool skip_subgroups_unless_positive) const {
  const auto block = [row_counts](size_t s) {
    return row_counts != nullptr ? row_counts + s : nullptr;
  };
  CateSubgroupEstimates out;
  const Slice whole{&group, nullptr, false};
  out.overall = Solve(accums.overall, cells, block(0), whole, min_group_size);
  if (protected_mask == nullptr) return out;
  if (skip_subgroups_unless_positive &&
      (!out.overall.ok() || out.overall->cate <= 0.0)) {
    return out;
  }
  const Slice prot_slice{&group, protected_mask, true};
  const Slice nonprot_slice{&group, protected_mask, false};
  out.protected_group =
      Solve(accums.prot, cells, block(1), prot_slice, min_subgroup_size);
  out.nonprotected =
      Solve(accums.nonprot, cells, block(2), nonprot_slice, min_subgroup_size);
  return out;
}

void CompactGroup::Gather(const DataFrame& df, size_t outcome_attr,
                          const Bitmap& group, const Bitmap* protected_mask) {
  const size_t num_rows = df.num_rows();
  FAIRCAP_CHECK(group.size() == num_rows);
  FAIRCAP_CHECK(protected_mask == nullptr ||
                protected_mask->size() == num_rows);
  FAIRCAP_CHECK(group.num_words() <= UINT32_MAX);
  FAIRCAP_CHECK(df.column(outcome_attr).type() == AttrType::kNumeric);
  partition_.reset();
  gathered_ = true;
  outcome_attr_ = outcome_attr;
  table_rows_ = num_rows;
  split_ = protected_mask != nullptr;
  word_index_.clear();
  word_bits_.clear();
  word_prot_.clear();
  // Sized up front (the group's rows bound the valid ones), so the
  // buffers hold no growth slack.
  outcome_.resize(group.Count());
  // A row is valid iff its outcome is non-null (NaN): the rule every
  // partition's outcome_valid() bitmap is built by.
  const double* y = df.column(outcome_attr).numeric_data();
  const uint64_t* gw = group.words();
  const uint64_t* pw =
      protected_mask != nullptr ? protected_mask->words() : nullptr;
  size_t rows = 0;
  for (size_t w = 0; w < group.num_words(); ++w) {
    uint64_t bits = gw[w];
    for (uint64_t rest = bits; rest != 0; rest &= rest - 1) {
      const unsigned b = static_cast<unsigned>(__builtin_ctzll(rest));
      const double value = y[w * 64 + b];
      if (std::isnan(value)) {
        bits &= ~(uint64_t{1} << b);
      } else {
        outcome_[rows++] = value;
      }
    }
    if (bits == 0) continue;
    word_index_.push_back(static_cast<uint32_t>(w));
    word_bits_.push_back(bits);
    if (pw != nullptr) word_prot_.push_back(bits & pw[w]);
  }
  outcome_.resize(rows);
}

void CateStatsEngine::BindCompactGroup(CompactGroup* view) const {
  const obs::TraceSpan span("compact_view");
  static obs::Counter& views =
      obs::MetricsRegistry::Global().GetCounter("estimation.compact_views");
  views.Increment();
  const ConfounderPartition& part = *partition_;
  // The gathered rows are group ∧ valid only for a partition over the same
  // outcome column and the same table.
  FAIRCAP_CHECK(view->outcome_attr_ == part.outcome_attr());
  FAIRCAP_CHECK(view->table_rows_ == part.rows_covered());
  view->partition_ = partition_;
  view->moments_ = need_moments();
  for (CompactGroup::CountBlock& block : view->count_blocks_) {
    block.ready = false;
  }
  const size_t m = view->moments_ ? part.num_numeric() : 0;
  const size_t rows = view->outcome_.size();
  view->z_.resize(m);
  for (std::vector<double>& z : view->z_) z.resize(rows);
  view->cell_.resize(rows);

  // Each row's cell, marking the touched cells.
  std::vector<int32_t>& dense_of = view->dense_of_;
  dense_of.assign(part.cells().size(), -1);
  const int32_t* cell_of_row = part.cell_of_row().data();
  size_t i = 0;
  for (size_t k = 0; k < view->word_index_.size(); ++k) {
    const size_t base = size_t{view->word_index_[k]} * 64;
    for (uint64_t bits = view->word_bits_[k]; bits != 0; bits &= bits - 1) {
      const size_t r = base + static_cast<size_t>(__builtin_ctzll(bits));
      const int32_t c = cell_of_row[r];
      dense_of[static_cast<size_t>(c)] = 0;
      for (size_t j = 0; j < m; ++j) {
        view->z_[j][i] = part.numeric_values()[j][r];
      }
      view->cell_[i++] = static_cast<uint32_t>(c);
    }
  }

  // Number the touched cells densely in ascending cell order (a monotone
  // map), then renumber the rows and the stratum order.
  view->cells_.clear();
  for (size_t c = 0; c < dense_of.size(); ++c) {
    if (dense_of[c] < 0) continue;
    dense_of[c] = static_cast<int32_t>(view->cells_.size());
    view->cells_.push_back(static_cast<uint32_t>(c));
  }
  for (uint32_t& c : view->cell_) c = static_cast<uint32_t>(dense_of[c]);
  view->by_stratum_.clear();
  for (const uint32_t c : part.cells_by_stratum()) {
    if (dense_of[c] >= 0) {
      view->by_stratum_.push_back(static_cast<uint32_t>(dense_of[c]));
    }
  }
  view->z_ptrs_.clear();
  for (const std::vector<double>& z : view->z_) {
    view->z_ptrs_.push_back(z.data());
  }
}

void CateStatsEngine::AccumulateCompact(const CateStatsEngine* const* engines,
                                        SubgroupAccums* accums, size_t count,
                                        const CompactGroup& view) {
  FAIRCAP_CHECK(count >= 1 && count <= simd::kMaxCateBatch);
  const size_t slots = view.cells_.size() * 2;
  simd::CateCompactArgs args;
  args.word_index = view.word_index_.data();
  args.word_bits = view.word_bits_.data();
  args.word_prot = view.split_ ? view.word_prot_.data() : nullptr;
  args.num_words = view.word_index_.size();
  args.cell = view.cell_.data();
  args.outcome = view.outcome_.data();
  args.num_numeric = view.moments_ ? view.partition_->num_numeric() : 0;
  args.moments = view.moments_;
  args.zcols = args.moments ? view.z_ptrs_.data() : nullptr;
  args.num_treatments = count;
  for (size_t i = 0; i < count; ++i) {
    const CateStatsEngine& engine = *engines[i];
    // The cell numbering and statistics shape are the bound partition's,
    // and every treated mask is read at the view's table word indices.
    FAIRCAP_CHECK(engine.partition_ == view.partition_ &&
                  engine.need_moments() == view.moments_);
    FAIRCAP_CHECK(engine.treated_->size() == view.table_rows_);
    engine.ResetTreatment(slots, view.split_, view.table_rows_, &accums[i],
                          &args.treatments[i]);
  }
  simd::ActiveKernels().cate_accumulate_compact(args);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& rows_counter =
      registry.GetCounter("simd.cate_accumulate_rows");
  rows_counter.Add(count * accums[0].overall.rows);
  static obs::Counter& compact_passes =
      registry.GetCounter("estimation.compact_passes");
  compact_passes.Increment();
  static obs::Counter& compact_evals =
      registry.GetCounter("estimation.compact_evals");
  compact_evals.Add(count);
}

namespace {

/// The fewest engines of one batch that read a CompactGroup; smaller
/// batches take fused table passes. Measured on a 38K-row stackoverflow
/// table with one pass per treatment on both paths (fusing, on either
/// path, came later and the threshold was not re-measured): binding a
/// view costs ~0.46 of a table evaluation and each evaluation on it
/// ~0.80 of one, so a view breaks even at ~2.3 evaluations, and four is
/// the smallest batch with a clear margin. A view of one of synth_1m's
/// 1M-row groups would hold ~12 MB where a fused table pass holds only
/// its accums.
constexpr size_t kMinCompactBatch = 4;

/// The most accumulator bytes one fused pass, table or compact, keeps
/// live, summed over its treatments' slots (and moment blocks): a wider
/// chunk is narrowed until its accums fit. Measured with perfbench
/// so_fair on a 4-core AVX-512 host (stackoverflow 38K, split accums,
/// partitions of up to ~3,600 cells; 2 threads, seed 1; 6 rotated runs
/// per setting, 3 uncapped): fusing table passes with no cap raised peak
/// RSS from 24.4-25.1 MB (unfused) to 26.3-27.1 MB; capped at 32 KB or
/// 256 KB it read 24.7-25.0 MB, and op_s medians were 1.363 (unfused),
/// 1.361 (32 KB) and 1.364 s (256 KB). A compact chunk's budget counts
/// the 2k slots of the k cells the group touches; fused four wide with no
/// cap, compact chunks read so_fair peak RSS 24.0-25.8 MB against
/// 22.5-23.3 MB capped (4 alternating pairs, op_s medians 1.085 and
/// 1.064 s). At 256 KB every synth_1m batch (unsplit accums over at most
/// 18 cells) fuses whole.
constexpr size_t kMaxFusedAccumBytes = 256 * 1024;

}  // namespace

std::vector<CateSubgroupEstimates> CateStatsEngine::EstimateSubgroupsBatch(
    const std::vector<const CateStatsEngine*>& engines, const Bitmap& group,
    const Bitmap* protected_mask, size_t min_group_size,
    size_t min_subgroup_size, bool skip_subgroups_unless_positive,
    CompactGroup* view) {
  std::vector<CateSubgroupEstimates> out(engines.size());
  if (engines.empty()) return out;
  const CateStatsEngine& lead = *engines.front();
  const bool compact = view != nullptr && engines.size() >= kMinCompactBatch;
  CellList cells = lead.TableCells();
  CountBlock* count_blocks = nullptr;
  if (compact) {
    if (!view->gathered_) {
      view->Gather(*lead.df_, lead.partition_->outcome_attr(), group,
                   protected_mask);
    }
    if (view->partition_ != lead.partition_) lead.BindCompactGroup(view);
    // The view must describe exactly these passes: same rows, same
    // protected split.
    FAIRCAP_CHECK(view->table_rows_ == group.size());
    FAIRCAP_CHECK(view->split_ == (protected_mask != nullptr));
    cells = CellList{view->cells_.data(), view->cells_.size(),
                     view->by_stratum_.data(), view->by_stratum_.size()};
    count_blocks = view->count_blocks_;
  }
  // The engines are taken in order, in chunks of up to kMaxCateBatch that
  // one pass accumulates; each treatment is then solved from its accums.
  const size_t sinks = protected_mask != nullptr ? 3 : 1;
  const size_t treatment_bytes =
      std::max<size_t>(1, sinks * lead.AccumBytes(cells.size));
  const size_t width = std::clamp<size_t>(
      kMaxFusedAccumBytes / treatment_bytes, 1, simd::kMaxCateBatch);
  std::vector<SubgroupAccums> accums(std::min(width, engines.size()));
  for (size_t begin = 0; begin < engines.size(); begin += width) {
    const size_t count = std::min(width, engines.size() - begin);
    {
      const obs::TraceSpan accumulate_span("accumulate");
      if (compact) {
        AccumulateCompact(engines.data() + begin, accums.data(), count,
                          *view);
      } else {
        AccumulateTable(engines.data() + begin, accums.data(), count, group,
                        protected_mask, /*row_begin=*/0);
      }
    }
    for (size_t i = 0; i < count; ++i) {
      const obs::TraceSpan solve_span("solve");
      out[begin + i] = engines[begin + i]->SolveSubgroups(
          accums[i], cells, count_blocks, group, protected_mask,
          min_group_size, min_subgroup_size, skip_subgroups_unless_positive);
    }
  }
  return out;
}

}  // namespace faircap
