#include "causal/estimator.h"

#include <algorithm>

#include "causal/backdoor.h"
#include "causal/cate_stats_engine.h"
#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace faircap {

namespace {

// Canonical cache key for an attr list (keys the adjustment-set cache by
// treatment attrs and the confounder-partition cache by adjustment attrs).
std::string AttrListKey(const std::vector<size_t>& attrs) {
  std::string key;
  for (size_t a : attrs) {
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
  const std::string key = AttrListKey(treatment_attrs);
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

std::shared_ptr<const ConfounderPartition> CateEstimator::PartitionFor(
    const std::vector<size_t>& adjustment) const {
  const std::string key = AttrListKey(adjustment);
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
  // Miss: build the engine (its partition on first use of the adjustment
  // set, and the treated mask through the PredicateIndex).
  const obs::TraceSpan build_span("engine_build");
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

namespace {

// The engine walks every mask in lockstep over the table's words; a mask
// over a different row count would be read out of bounds.
Status CheckSpansTable(const Bitmap& group, const Bitmap* protected_mask,
                       size_t num_rows) {
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
  return Status::OK();
}

}  // namespace

Result<CateSubgroupEstimates> CateEstimator::EstimateSubgroups(
    const Pattern& intervention, const Bitmap& group,
    const Bitmap* protected_mask, size_t min_subgroup_size,
    bool skip_subgroups_unless_positive) const {
  FAIRCAP_ASSIGN_OR_RETURN(
      std::vector<Result<CateSubgroupEstimates>> estimates,
      EstimateSubgroupsBatch({&intervention}, group, protected_mask,
                             min_subgroup_size,
                             skip_subgroups_unless_positive));
  return std::move(estimates.front());
}

Result<std::vector<Result<CateSubgroupEstimates>>>
CateEstimator::EstimateSubgroupsBatch(
    const std::vector<const Pattern*>& interventions, const Bitmap& group,
    const Bitmap* protected_mask, size_t min_subgroup_size,
    bool skip_subgroups_unless_positive, CompactGroup* view) const {
  FAIRCAP_RETURN_NOT_OK(
      CheckSpansTable(group, protected_mask, df_->num_rows()));
  static obs::Counter& batch_evals =
      obs::MetricsRegistry::Global().GetCounter("estimation.batch_evals");
  batch_evals.Add(interventions.size());
  const size_t min_sub = min_subgroup_size != 0 ? min_subgroup_size
                                                : options_.min_group_size;
  std::vector<Result<CateSubgroupEstimates>> out(
      interventions.size(), Status::FailedPrecondition("not computed"));
  // The engines are held for the passes (a budgeted cache may evict
  // them) and batched by partition, in first-appearance order.
  std::vector<std::shared_ptr<const CateStatsEngine>> engines(
      interventions.size());
  std::vector<std::vector<size_t>> batches;
  for (size_t i = 0; i < interventions.size(); ++i) {
    Result<std::shared_ptr<const CateStatsEngine>> engine =
        EngineFor(*interventions[i]);
    if (!engine.ok()) {
      out[i] = engine.status();
      continue;
    }
    engines[i] = std::move(engine).ValueOrDie();
    const auto same_partition = [&](const std::vector<size_t>& batch) {
      return &engines[batch.front()]->partition() == &engines[i]->partition();
    };
    const auto it = std::find_if(batches.begin(), batches.end(),
                                 same_partition);
    if (it == batches.end()) {
      batches.push_back({i});
    } else {
      it->push_back(i);
    }
  }
  std::vector<const CateStatsEngine*> batch_engines;
  for (const std::vector<size_t>& batch : batches) {
    batch_engines.clear();
    for (const size_t i : batch) batch_engines.push_back(engines[i].get());
    std::vector<CateSubgroupEstimates> estimates =
        CateStatsEngine::EstimateSubgroupsBatch(
            batch_engines, group, protected_mask, options_.min_group_size,
            min_sub, skip_subgroups_unless_positive, view);
    for (size_t k = 0; k < batch.size(); ++k) {
      out[batch[k]] = std::move(estimates[k]);
    }
  }
  return out;
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
    // Adjustment sets depend only on schema + DAG and survive.
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
