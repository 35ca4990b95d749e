#include "causal/estimator.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "causal/backdoor.h"
#include "causal/cate_stats_engine.h"
#include "causal/linear_model.h"
#include "mining/shard_plan.h"
#include "util/logging.h"
#include "util/obs/metrics.h"

namespace faircap {

namespace {

// Canonical cache key for an adjustment attr list (keys the stratum-id
// and confounder-partition caches).
std::string AdjustmentKey(const std::vector<size_t>& adjustment) {
  std::string key;
  for (size_t a : adjustment) {
    key += std::to_string(a);
    key += ',';
  }
  return key;
}

// Registry mirrors of the per-estimator engine-cache stats, bumped at the
// same sites under the same mutex (see dataframe/predicate_index.cc for
// the pattern). engine_cache.bytes tracks the most recently mutated
// estimator instance.
struct EngineCacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Gauge& bytes;
};

EngineCacheMetrics& EngineMetrics() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  static EngineCacheMetrics* metrics = new EngineCacheMetrics{
      r.GetCounter("engine_cache.hits"),
      r.GetCounter("engine_cache.misses"),
      r.GetCounter("engine_cache.evictions"),
      r.GetGauge("engine_cache.bytes"),
  };
  return *metrics;
}

// Append-refresh counters (run-report "append.*" family).
struct AppendMetrics {
  obs::Counter& partitions_extended;
  obs::Counter& partitions_rebuilt;
  obs::Counter& engines_extended;
  obs::Counter& engines_rebuilt;
};

AppendMetrics& AppendRefreshMetrics() {
  obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
  static AppendMetrics* metrics = new AppendMetrics{
      r.GetCounter("append.partitions_extended"),
      r.GetCounter("append.partitions_rebuilt"),
      r.GetCounter("append.engines_extended"),
      r.GetCounter("append.engines_rebuilt"),
  };
  return *metrics;
}

}  // namespace

Result<CateEstimator> CateEstimator::Create(const DataFrame* df,
                                            const CausalDag* dag,
                                            CateOptions options) {
  if (df == nullptr || dag == nullptr) {
    return Status::InvalidArgument("df and dag must be non-null");
  }
  FAIRCAP_ASSIGN_OR_RETURN(const size_t outcome_attr,
                           df->schema().OutcomeIndex());
  const std::string& outcome_name = df->schema().attribute(outcome_attr).name;
  FAIRCAP_ASSIGN_OR_RETURN(const size_t outcome_node,
                           dag->IndexOf(outcome_name));
  return CateEstimator(df, dag, options, outcome_attr, outcome_node);
}

CateEstimator::CateEstimator(const DataFrame* df, const CausalDag* dag,
                             CateOptions options, size_t outcome_attr,
                             size_t outcome_node)
    : df_(df),
      dag_(dag),
      options_(options),
      outcome_attr_(outcome_attr),
      outcome_node_(outcome_node),
      mu_(new Mutex) {}

Result<std::vector<size_t>> CateEstimator::AdjustmentAttrs(
    const Pattern& intervention) const {
  const std::vector<size_t> treatment_attrs = intervention.Attributes();
  std::string key;
  for (size_t a : treatment_attrs) {
    key += std::to_string(a);
    key += ',';
  }
  {
    MutexLock lock(*mu_);
    const auto it = adjustment_cache_.find(key);
    if (it != adjustment_cache_.end()) return it->second;
  }

  // Map treatment attributes to DAG nodes (attributes absent from the DAG
  // contribute no backdoor paths).
  std::vector<size_t> treatment_nodes;
  for (size_t attr : treatment_attrs) {
    const std::string& name = df_->schema().attribute(attr).name;
    const Result<size_t> node = dag_->IndexOf(name);
    if (node.ok()) treatment_nodes.push_back(*node);
  }
  std::vector<size_t> adjustment_attrs;
  if (!treatment_nodes.empty()) {
    FAIRCAP_ASSIGN_OR_RETURN(
        const std::vector<size_t> z_nodes,
        ParentAdjustmentSet(*dag_, treatment_nodes, outcome_node_));
    for (size_t node : z_nodes) {
      const Result<size_t> attr = df_->schema().IndexOf(dag_->name(node));
      // DAG nodes without a backing column (latent) cannot be adjusted for.
      if (attr.ok() && *attr != outcome_attr_) {
        adjustment_attrs.push_back(*attr);
      }
    }
    std::sort(adjustment_attrs.begin(), adjustment_attrs.end());
  }
  {
    MutexLock lock(*mu_);
    adjustment_cache_.emplace(key, adjustment_attrs);
  }
  return adjustment_attrs;
}

std::shared_ptr<const Bitmap> CateEstimator::TreatedMask(
    const Pattern& intervention) const {
  return intervention.EvaluateShared(*df_);
}

Result<CateEstimate> CateEstimator::Estimate(const Pattern& intervention,
                                             const Bitmap& group) const {
  return Estimate(intervention, group, /*min_group_size=*/0);
}

Result<CateEstimate> CateEstimator::Estimate(const Pattern& intervention,
                                             const Bitmap& group,
                                             size_t min_group_size) const {
  if (intervention.empty()) {
    return Status::InvalidArgument("intervention pattern must be non-empty");
  }
  if (min_group_size == 0) min_group_size = options_.min_group_size;
  FAIRCAP_RETURN_NOT_OK(intervention.Validate(*df_));
  FAIRCAP_ASSIGN_OR_RETURN(const std::vector<size_t> adjustment,
                           AdjustmentAttrs(intervention));
  const std::shared_ptr<const Bitmap> treated_mask = TreatedMask(intervention);
  const Bitmap& treated = *treated_mask;
  static obs::Counter& legacy_calls =
      obs::MetricsRegistry::Global().GetCounter("estimation.legacy_calls");
  legacy_calls.Increment();
  switch (options_.method) {
    case CateMethod::kRegression:
      return EstimateRegression(treated, group, adjustment, min_group_size);
    case CateMethod::kStratified:
      return EstimateStratified(treated, group, adjustment, min_group_size);
    case CateMethod::kIpw:
      return EstimateIpw(treated, group, adjustment, min_group_size);
  }
  return Status::Internal("unknown CATE method");
}

Result<CateEstimate> CateEstimator::EstimateRegression(
    const Bitmap& treated, const Bitmap& group,
    const std::vector<size_t>& adjustment, size_t min_group_size) const {
  // Design: [intercept, T, one-hot(Z_cat levels 1..k-1)..., Z_num...].
  struct Feature {
    size_t attr;
    bool categorical;
    int32_t code;  // the level this column indicates (categorical)
  };
  std::vector<Feature> features;
  for (size_t attr : adjustment) {
    const Column& col = df_->column(attr);
    if (col.type() == AttrType::kCategorical) {
      // Drop the first level as the reference category.
      for (size_t code = 1; code < col.num_categories(); ++code) {
        features.push_back({attr, true, static_cast<int32_t>(code)});
      }
    } else {
      features.push_back({attr, false, 0});
    }
  }
  const size_t p = 2 + features.size();
  OlsAccumulator acc(p);
  const Column& outcome = df_->column(outcome_attr_);
  std::vector<double> row(p);
  size_t n_treated = 0, n_control = 0;
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r)) return;
    row[0] = 1.0;
    const bool is_treated = treated.Get(r);
    row[1] = is_treated ? 1.0 : 0.0;
    for (size_t f = 0; f < features.size(); ++f) {
      const Feature& feat = features[f];
      const Column& col = df_->column(feat.attr);
      if (col.IsNull(r)) {
        // Null confounders: treat as the reference level / zero.
        row[2 + f] = 0.0;
        continue;
      }
      if (feat.categorical) {
        row[2 + f] = col.code(r) == feat.code ? 1.0 : 0.0;
      } else {
        row[2 + f] = col.numeric(r);
      }
    }
    acc.AddRow(row.data(), outcome.numeric(r));
    if (is_treated) ++n_treated; else ++n_control;
  });

  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }
  FAIRCAP_ASSIGN_OR_RETURN(const OlsFit fit, acc.Solve(options_.ridge));
  CateEstimate est;
  est.cate = fit.beta[1];
  est.std_error = fit.treatment_std_error;
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}

std::vector<int64_t> CateEstimator::StratumIds(
    const std::vector<size_t>& adjustment) const {
  const size_t n = df_->num_rows();
  std::vector<int64_t> ids(n, 0);
  // Precompute quantile bin edges for numeric confounders (shared with
  // the ConfounderPartition build so the two can never drift).
  std::vector<std::vector<double>> edges(adjustment.size());
  for (size_t a = 0; a < adjustment.size(); ++a) {
    const Column& col = df_->column(adjustment[a]);
    if (col.type() != AttrType::kNumeric) continue;
    edges[a] = QuantileBinEdges(
        col, std::max<size_t>(1, options_.numeric_confounder_bins));
  }
  for (size_t r = 0; r < n; ++r) {
    int64_t id = 0;
    for (size_t a = 0; a < adjustment.size(); ++a) {
      const Column& col = df_->column(adjustment[a]);
      int64_t cell;
      if (col.IsNull(r)) {
        ids[r] = -1;
        break;
      }
      if (col.type() == AttrType::kCategorical) {
        cell = col.code(r);
        id = id * static_cast<int64_t>(col.num_categories() + 1) + cell;
      } else {
        const auto& e = edges[a];
        cell = static_cast<int64_t>(
            std::upper_bound(e.begin(), e.end(), col.numeric(r)) - e.begin());
        id = id * static_cast<int64_t>(e.size() + 2) + cell;
      }
    }
    if (ids[r] != -1) ids[r] = id;
  }
  return ids;
}

std::shared_ptr<const std::vector<int64_t>> CateEstimator::StratumIdsCached(
    const std::vector<size_t>& adjustment) const {
  const std::string key = AdjustmentKey(adjustment);
  {
    MutexLock lock(*mu_);
    const auto it = stratum_cache_.find(key);
    if (it != stratum_cache_.end()) return it->second;
  }
  // Compute outside the lock (deterministic: a racing duplicate is
  // identical, and the first insertion wins).
  auto ids = std::make_shared<const std::vector<int64_t>>(
      StratumIds(adjustment));
  MutexLock lock(*mu_);
  const auto [it, inserted] = stratum_cache_.emplace(key, std::move(ids));
  return it->second;
}

Result<CateEstimate> CateEstimator::EstimateStratified(
    const Bitmap& treated, const Bitmap& group,
    const std::vector<size_t>& adjustment, size_t min_group_size) const {
  const std::shared_ptr<const std::vector<int64_t>> strata_ptr =
      StratumIdsCached(adjustment);
  const std::vector<int64_t>& strata = *strata_ptr;
  struct Arm {
    size_t n = 0;
    double sum = 0.0;
    double sum_sq = 0.0;
  };
  struct Cell {
    Arm treated;
    Arm control;
  };
  std::map<int64_t, Cell> cells;
  const Column& outcome = df_->column(outcome_attr_);
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r) || strata[r] < 0) return;
    Cell& cell = cells[strata[r]];
    Arm& arm = treated.Get(r) ? cell.treated : cell.control;
    const double y = outcome.numeric(r);
    ++arm.n;
    arm.sum += y;
    arm.sum_sq += y * y;
  });

  double weighted_effect = 0.0;
  double weighted_var = 0.0;
  size_t n_used = 0, n_treated = 0, n_control = 0;
  for (const auto& [stratum, cell] : cells) {
    if (cell.treated.n < options_.min_stratum_arm ||
        cell.control.n < options_.min_stratum_arm) {
      continue;  // no overlap in this stratum (positivity violation)
    }
    const size_t n_s = cell.treated.n + cell.control.n;
    const double m1 = cell.treated.sum / static_cast<double>(cell.treated.n);
    const double m0 = cell.control.sum / static_cast<double>(cell.control.n);
    weighted_effect += static_cast<double>(n_s) * (m1 - m0);
    // Within-arm variances for the standard error (0 when n=1).
    auto arm_var = [](const Arm& arm) {
      if (arm.n < 2) return 0.0;
      const double mean = arm.sum / static_cast<double>(arm.n);
      return std::max(0.0, (arm.sum_sq - arm.sum * mean) /
                               static_cast<double>(arm.n - 1));
    };
    const double v1 = arm_var(cell.treated) / static_cast<double>(cell.treated.n);
    const double v0 = arm_var(cell.control) / static_cast<double>(cell.control.n);
    weighted_var += static_cast<double>(n_s) * static_cast<double>(n_s) *
                    (v1 + v0);
    n_used += n_s;
    n_treated += cell.treated.n;
    n_control += cell.control.n;
  }
  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap after stratification: " +
        std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }
  CateEstimate est;
  est.cate = weighted_effect / static_cast<double>(n_used);
  est.std_error =
      std::sqrt(weighted_var) / static_cast<double>(n_used);
  est.n_treated = n_treated;
  est.n_control = n_control;
  return est;
}


Result<CateEstimate> CateEstimator::EstimateIpw(
    const Bitmap& treated, const Bitmap& group,
    const std::vector<size_t>& adjustment, size_t min_group_size) const {
  // Propensity design: [intercept, one-hot(Z_cat levels 1..k-1), Z_num].
  struct Feature {
    size_t attr;
    bool categorical;
    int32_t code;
  };
  std::vector<Feature> features;
  for (size_t attr : adjustment) {
    const Column& col = df_->column(attr);
    if (col.type() == AttrType::kCategorical) {
      for (size_t code = 1; code < col.num_categories(); ++code) {
        features.push_back({attr, true, static_cast<int32_t>(code)});
      }
    } else {
      features.push_back({attr, false, 0});
    }
  }
  const size_t p = 1 + features.size();

  const Column& outcome = df_->column(outcome_attr_);
  std::vector<double> design;
  std::vector<double> labels;
  std::vector<double> outcomes;
  std::vector<uint8_t> is_treated_row;
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r)) return;
    design.push_back(1.0);
    for (const Feature& feat : features) {
      const Column& col = df_->column(feat.attr);
      if (col.IsNull(r)) {
        design.push_back(0.0);
      } else if (feat.categorical) {
        design.push_back(col.code(r) == feat.code ? 1.0 : 0.0);
      } else {
        design.push_back(col.numeric(r));
      }
    }
    const bool t = treated.Get(r);
    labels.push_back(t ? 1.0 : 0.0);
    outcomes.push_back(outcome.numeric(r));
    is_treated_row.push_back(t ? 1 : 0);
  });
  const size_t n = labels.size();
  size_t n_treated = 0;
  for (uint8_t t : is_treated_row) n_treated += t;
  const size_t n_control = n - n_treated;
  if (n_treated < min_group_size || n_control < min_group_size) {
    return Status::FailedPrecondition(
        "insufficient overlap: " + std::to_string(n_treated) + " treated / " +
        std::to_string(n_control) + " control rows");
  }

  // Fit + clipped Hajek weighting via the one shared implementation (the
  // sufficient-statistics engine's per-row fallback calls it too).
  return HajekIpwFromRows(design, n, p, labels, outcomes, is_treated_row,
                          options_.propensity_clip);
}

std::shared_ptr<const ConfounderPartition> CateEstimator::PartitionFor(
    const std::vector<size_t>& adjustment) const {
  const std::string key = AdjustmentKey(adjustment);
  {
    MutexLock lock(*mu_);
    const auto it = partitions_.find(key);
    if (it != partitions_.end()) {
      if (auto alive = it->second.lock()) {
        // A partition pinned alive by an un-refreshed engine may lag the
        // table after an append; never serve it — rebuild instead.
        if (alive->rows_covered() == df_->num_rows()) return alive;
      }
    }
  }
  // Build outside the lock; a racing duplicate build is identical and the
  // first insertion wins.
  std::shared_ptr<const ConfounderPartition> built =
      ConfounderPartition::Build(*df_, outcome_attr_, adjustment, options_);
  MutexLock lock(*mu_);
  auto& slot = partitions_[key];
  if (auto alive = slot.lock()) {
    if (alive->rows_covered() == df_->num_rows()) return alive;
  }
  slot = built;
  return built;
}

size_t CateEstimator::EngineBytesLocked() const {
  // Per-engine bytes include the treated mask each engine pins; the
  // (shared) partitions are counted once each below.
  size_t bytes = 0;
  for (const auto& [key, entry] : engines_) bytes += entry.engine->bytes();
  for (auto it = partitions_.begin(); it != partitions_.end();) {
    if (auto alive = it->second.lock()) {
      bytes += alive->bytes();
      ++it;
    } else {
      it = partitions_.erase(it);  // expired: prune while we are here
    }
  }
  return bytes;
}

void CateEstimator::EnforceEngineBudgetLocked() const {
  if (engine_budget_ == 0) return;
  // Never evict the most-recently-touched engine: the caller that just
  // inserted (or hit) it is still using it. Partition bytes fall out
  // automatically once the last engine holding a partition is dropped.
  while (engine_lru_.size() > 1 && EngineBytesLocked() > engine_budget_) {
    const auto it = engines_.find(engine_lru_.back());
    engines_.erase(it);
    engine_lru_.pop_back();
    ++engine_evictions_;
    EngineMetrics().evictions.Increment();
  }
}

Result<std::shared_ptr<const CateStatsEngine>> CateEstimator::EngineFor(
    const Pattern& intervention) const {
  if (intervention.empty()) {
    return Status::InvalidArgument("intervention pattern must be non-empty");
  }
  FAIRCAP_RETURN_NOT_OK(intervention.Validate(*df_));
  const std::string key = intervention.Key();
  const auto is_current = [this](const CateStatsEngine& e) {
    return e.treated().size() == df_->num_rows() &&
           e.partition().rows_covered() == df_->num_rows();
  };
  {
    MutexLock lock(*mu_);
    const auto it = engines_.find(key);
    if (it != engines_.end()) {
      if (is_current(*it->second.engine)) {
        ++engine_hits_;
        EngineMetrics().hits.Increment();
        engine_lru_.splice(engine_lru_.begin(), engine_lru_,
                           it->second.lru_pos);
        return it->second.engine;
      }
      // Stale after an append (the eager NotifyAppend refresh missed it,
      // e.g. it was evicted and re-inserted by a racing builder between
      // snapshot and swap): a stale engine must never be served, so the
      // hit becomes a miss and the entry is rebuilt below.
      engine_lru_.erase(it->second.lru_pos);
      engines_.erase(it);
      AppendRefreshMetrics().engines_rebuilt.Increment();
    }
  }
  FAIRCAP_ASSIGN_OR_RETURN(const std::vector<size_t> adjustment,
                           AdjustmentAttrs(intervention));
  std::shared_ptr<const ConfounderPartition> partition =
      PartitionFor(adjustment);
  std::shared_ptr<const Bitmap> treated = TreatedMask(intervention);
  auto engine = std::make_shared<const CateStatsEngine>(
      df_, options_, adjustment, std::move(treated), std::move(partition));

  MutexLock lock(*mu_);
  const auto it = engines_.find(key);
  if (it != engines_.end() && is_current(*it->second.engine)) {
    // A racing builder landed first; keep its engine canonical.
    ++engine_hits_;
    EngineMetrics().hits.Increment();
    engine_lru_.splice(engine_lru_.begin(), engine_lru_, it->second.lru_pos);
    return it->second.engine;
  }
  if (it != engines_.end()) {
    // Racing entry is itself stale — supersede it with ours.
    engine_lru_.erase(it->second.lru_pos);
    engines_.erase(it);
  }
  ++engine_misses_;
  EngineMetrics().misses.Increment();
  engine_lru_.push_front(key);
  engines_.emplace(key, EngineEntry{engine, engine_lru_.begin(), intervention});
  EnforceEngineBudgetLocked();
  EngineMetrics().bytes.Set(static_cast<double>(EngineBytesLocked()));
  // Serve-point invariant: whatever path produced it, the engine handed
  // out must cover the table as it is now.
  FAIRCAP_CHECK(is_current(*engine));
  return engine;
}

Result<CateSubgroupEstimates> CateEstimator::EstimateSubgroups(
    const Pattern& intervention, const Bitmap& group,
    const Bitmap* protected_mask, size_t min_subgroup_size,
    bool skip_subgroups_unless_positive) const {
  return EstimateSubgroups(intervention, group, protected_mask,
                           min_subgroup_size, skip_subgroups_unless_positive,
                           /*plan=*/nullptr, /*tasks=*/nullptr);
}

Result<CateSubgroupEstimates> CateEstimator::EstimateSubgroups(
    const Pattern& intervention, const Bitmap& group,
    const Bitmap* protected_mask, size_t min_subgroup_size,
    bool skip_subgroups_unless_positive, const ShardPlan* plan,
    TaskGroup* tasks) const {
  // The engine walks every mask in lockstep over the table's words; a
  // mask over a different row count would be read out of bounds.
  const size_t num_rows = df_->num_rows();
  if (group.size() != num_rows) {
    return Status::InvalidArgument(
        "group bitmap has " + std::to_string(group.size()) +
        " rows; the table has " + std::to_string(num_rows));
  }
  if (protected_mask != nullptr && protected_mask->size() != num_rows) {
    return Status::InvalidArgument(
        "protected bitmap has " + std::to_string(protected_mask->size()) +
        " rows; the table has " + std::to_string(num_rows));
  }
  if (plan != nullptr && plan->num_rows() != num_rows) {
    return Status::InvalidArgument(
        "shard plan covers " + std::to_string(plan->num_rows()) +
        " rows; the table has " + std::to_string(num_rows));
  }
  static obs::Counter& batch_evals =
      obs::MetricsRegistry::Global().GetCounter("estimation.batch_evals");
  batch_evals.Increment();
  FAIRCAP_ASSIGN_OR_RETURN(
      const std::shared_ptr<const CateStatsEngine> engine,
      EngineFor(intervention));
  const size_t min_sub = min_subgroup_size != 0 ? min_subgroup_size
                                                : options_.min_group_size;
  return engine->EstimateSubgroups(group, protected_mask,
                                   options_.min_group_size, min_sub,
                                   skip_subgroups_unless_positive, plan, tasks);
}

CateEstimator::AppendRefreshStats CateEstimator::NotifyAppend() {
  AppendRefreshStats stats;
  const size_t num_rows = df_->num_rows();

  // Snapshot the cached state under the lock; the heavy work (partition
  // extension, treated-mask re-evaluation through the index, engine
  // construction) runs outside mu_ like every other build path here.
  std::vector<std::pair<std::string, EngineEntry>> resident;
  std::vector<std::pair<std::string, std::shared_ptr<const ConfounderPartition>>>
      live_parts;
  {
    MutexLock lock(*mu_);
    // Per-row stratum ids are stale and cheap to rebuild; drop them.
    // Adjustment sets depend only on schema + DAG and survive.
    stratum_cache_.clear();
    resident.reserve(engines_.size());
    for (const auto& [key, entry] : engines_) {
      resident.emplace_back(key, entry);
    }
    for (auto it = partitions_.begin(); it != partitions_.end();) {
      if (auto alive = it->second.lock()) {
        live_parts.emplace_back(it->first, std::move(alive));
        ++it;
      } else {
        it = partitions_.erase(it);
      }
    }
  }

  // Extend each live partition once — it is shared by every engine over
  // the same adjustment set, so the delta-intern cost is paid per
  // adjustment key, not per treatment. Extension happens in place: the
  // session Append contract guarantees no queries are in flight, and a
  // copy (O(N) per-row arrays per adjustment set) would dominate the cost
  // of a small append at scale.
  std::unordered_map<const ConfounderPartition*,
                     std::shared_ptr<const ConfounderPartition>>
      extended;
  std::vector<std::string> dead_slots;
  for (const auto& [key, part] : live_parts) {
    if (part->rows_covered() == num_rows) {
      extended.emplace(part.get(), part);
      continue;
    }
    auto* mut = const_cast<ConfounderPartition*>(part.get());
    if (mut->ExtendInPlace(*df_)) {
      ++stats.partitions_extended;
      AppendRefreshMetrics().partitions_extended.Increment();
      extended.emplace(part.get(), part);
    } else {
      // Numeric confounders (quantile edges shift) or new categories:
      // drop the partition and every engine on it; cold rebuild on next
      // use.
      ++stats.partitions_rebuilt;
      AppendRefreshMetrics().partitions_rebuilt.Increment();
      dead_slots.push_back(key);
    }
  }

  // Rebuild each cached engine onto its (extended) partition and the
  // re-evaluated treated mask — the index serves the mask extended by
  // whole delta words, so this costs delta work, not table work.
  std::vector<std::pair<std::string, std::shared_ptr<const CateStatsEngine>>>
      rebuilt;
  std::vector<std::string> dropped;
  for (const auto& [key, entry] : resident) {
    if (entry.engine->treated().size() == num_rows &&
        entry.engine->partition().rows_covered() == num_rows) {
      continue;  // already current (e.g. a zero-row append)
    }
    const auto it = extended.find(&entry.engine->partition());
    if (it == extended.end()) {
      dropped.push_back(key);
      continue;
    }
    std::shared_ptr<const Bitmap> treated = TreatedMask(entry.pattern);
    rebuilt.emplace_back(
        key, std::make_shared<const CateStatsEngine>(
                 df_, options_, entry.engine->adjustment(), std::move(treated),
                 it->second));
  }

  MutexLock lock(*mu_);
  for (auto& [key, engine] : rebuilt) {
    const auto it = engines_.find(key);
    if (it == engines_.end()) continue;  // evicted since the snapshot
    it->second.engine = std::move(engine);
    ++stats.engines_refreshed;
    AppendRefreshMetrics().engines_extended.Increment();
  }
  for (const std::string& key : dropped) {
    const auto it = engines_.find(key);
    if (it == engines_.end()) continue;
    engine_lru_.erase(it->second.lru_pos);
    engines_.erase(it);
    ++stats.engines_dropped;
    AppendRefreshMetrics().engines_rebuilt.Increment();
  }
  for (const std::string& key : dead_slots) partitions_.erase(key);
  EngineMetrics().bytes.Set(static_cast<double>(EngineBytesLocked()));
  return stats;
}

void CateEstimator::SetEngineMemoryBudget(size_t max_bytes) {
  MutexLock lock(*mu_);
  engine_budget_ = max_bytes;
  EnforceEngineBudgetLocked();
}

CateEstimator::EngineCacheStats CateEstimator::GetEngineStats() const {
  MutexLock lock(*mu_);
  EngineCacheStats stats;
  stats.engines = engines_.size();
  stats.bytes = EngineBytesLocked();  // also prunes expired partitions
  stats.partitions = partitions_.size();
  stats.hits = engine_hits_;
  stats.misses = engine_misses_;
  stats.evictions = engine_evictions_;
  return stats;
}

}  // namespace faircap
