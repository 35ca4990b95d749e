#include "core/incremental.h"

#include <utility>

#include "util/logging.h"
#include "util/obs/metrics.h"
#include "util/obs/trace.h"

namespace faircap {
namespace {

// append.* reuse counters (registered once; see util/obs/run_report.cc
// for the report floor).
struct IncMetrics {
  obs::Counter& rows_appended;
  obs::Counter& batches;
  obs::Counter& patterns_reused;
  obs::Counter& patterns_rechecked;
  obs::Counter& evals_cached;
  obs::Counter& evals_delta;
  obs::Counter& evals_full;
  obs::Counter& full_remines;
};

IncMetrics& Metrics() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static IncMetrics m{
      registry.GetCounter("append.rows_appended"),
      registry.GetCounter("append.batches"),
      registry.GetCounter("append.patterns_reused"),
      registry.GetCounter("append.patterns_rechecked"),
      registry.GetCounter("append.evals_cached"),
      registry.GetCounter("append.evals_delta"),
      registry.GetCounter("append.evals_full"),
      registry.GetCounter("append.full_remines"),
  };
  return m;
}

std::vector<size_t> CategoryCounts(const DataFrame& df) {
  std::vector<size_t> counts(df.schema().num_attributes(), 0);
  for (size_t i = 0; i < counts.size(); ++i) {
    if (df.column(i).type() == AttrType::kCategorical) {
      counts[i] = df.column(i).num_categories();
    }
  }
  return counts;
}

}  // namespace

void IncrementalState::Attach(const DataFrame& df) {
  MutexLock lock(mu_);
  if (attached_) return;
  attached_ = true;
  category_counts_ = CategoryCounts(df);
  // Group-level reuse is sound only while no numeric attribute can land
  // in an adjustment set: delta rows shift its quantile edges, silently
  // re-binning resident rows, so "support unchanged" would no longer
  // imply "estimates unchanged". The outcome itself is never a
  // confounder, so a numeric outcome does not disable the gate.
  numeric_ok_ = true;
  for (size_t i = 0; i < df.schema().num_attributes(); ++i) {
    const AttributeSpec& spec = df.schema().attribute(i);
    if (spec.type == AttrType::kNumeric && spec.role != AttrRole::kOutcome) {
      numeric_ok_ = false;
      break;
    }
  }
}

void IncrementalState::OnAppend(const DataFrame& df) {
  MutexLock lock(mu_);
  FAIRCAP_CHECK(attached_);
  std::vector<size_t> counts = CategoryCounts(df);
  bool new_categories = counts.size() != category_counts_.size();
  if (!new_categories) {
    for (size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] != category_counts_[i]) {
        new_categories = true;
        break;
      }
    }
  }
  category_counts_ = std::move(counts);
  if (new_categories) {
    // Cell numbering, one-hot layouts and the intervention atom set all
    // depend on the category universe: nothing cached survives.
    accums_.clear();
    groups_.clear();
    accum_bytes_ = 0;
    Metrics().full_remines.Increment();
  }
}

bool IncrementalState::TryReuseGroup(const FrequentPattern& group,
                                     std::vector<PrescriptionRule>* rules,
                                     size_t* num_evaluated) {
  const std::string key = group.pattern.Key();
  MutexLock lock(mu_);
  if (numeric_ok_) {
    const auto it = groups_.find(key);
    if (it != groups_.end() && it->second.support == group.support) {
      // No delta row entered this coverage, so every cached estimate is
      // exactly what a cold re-mine would produce; only the coverage
      // bitmap needs re-materializing (support counts were stored with
      // the rules).
      rules->clear();
      rules->reserve(it->second.rules.size());
      for (const PrescriptionRule& cached : it->second.rules) {
        PrescriptionRule rule = cached;
        rule.coverage = group.coverage;
        rules->push_back(std::move(rule));
      }
      *num_evaluated = it->second.num_evaluated;
      Metrics().patterns_reused.Increment();
      return true;
    }
  }
  Metrics().patterns_rechecked.Increment();
  return false;
}

void IncrementalState::StoreGroup(const FrequentPattern& group,
                                  const std::vector<PrescriptionRule>& rules,
                                  size_t num_evaluated) {
  GroupEntry entry;
  entry.support = group.support;
  entry.num_evaluated = num_evaluated;
  entry.rules.reserve(rules.size());
  for (const PrescriptionRule& rule : rules) {
    PrescriptionRule stored = rule;
    stored.coverage = Bitmap();
    entry.rules.push_back(std::move(stored));
  }
  MutexLock lock(mu_);
  groups_[group.pattern.Key()] = std::move(entry);
}

size_t IncrementalState::AccumBytes(
    const CateStatsEngine::SubgroupAccums& accums) {
  const auto one = [](const CateStatsEngine::Accum& acc) {
    return acc.slots.size() * sizeof(simd::CateSlot) +
           (acc.zsum.size() + acc.zysum.size() + acc.zzsum.size()) *
               sizeof(double);
  };
  return one(accums.overall) + one(accums.prot) + one(accums.nonprot);
}

Result<CateSubgroupEstimates> IncrementalState::EstimateWithCache(
    const CateEstimator& estimator, const std::string& group_key,
    const Pattern& intervention, const Bitmap& group,
    const Bitmap& protected_mask, bool want_subgroups,
    size_t min_subgroup_size, bool skip_subgroups_unless_positive) {
  FAIRCAP_ASSIGN_OR_RETURN(
      const std::shared_ptr<const CateStatsEngine> engine,
      estimator.EngineFor(intervention));
  const size_t min_group = estimator.options().min_group_size;
  const size_t min_sub =
      min_subgroup_size != 0 ? min_subgroup_size : min_group;
  const size_t num_rows = engine->treated().size();
  const uint64_t lineage = engine->partition().lineage_id();
  const Bitmap* mask = want_subgroups ? &protected_mask : nullptr;
  const std::string key = group_key + "|" + intervention.Key();

  AccumEntry* entry = nullptr;
  {
    MutexLock lock(mu_);
    const auto it = accums_.find(key);
    if (it != accums_.end()) entry = it->second.get();
  }
  // A hit is serveable only against the exact cell numbering it was
  // accumulated under: the lineage id changes whenever a partition is
  // rebuilt cold (copy-extension inherits it), so a stale accum can
  // never be merged against re-numbered cells.
  // Child spans of the caller's "eval": the row pass (delta or full) and
  // the solves.
  if (entry != nullptr && entry->lineage == lineage &&
      entry->accums.rows_covered <= num_rows) {
    FAIRCAP_CHECK(entry->accums.split);
    if (entry->accums.rows_covered < num_rows) {
      const obs::TraceSpan accumulate_span("accumulate");
      const size_t old_bytes = AccumBytes(entry->accums);
      const CateStatsEngine::SubgroupAccums delta = engine->AccumulateDelta(
          group, &protected_mask, entry->accums.rows_covered);
      engine->MergeSubgroupAccums(&entry->accums, delta);
      Metrics().evals_delta.Increment();
      MutexLock lock(mu_);
      accum_bytes_ += AccumBytes(entry->accums) - old_bytes;
    } else {
      Metrics().evals_cached.Increment();
    }
    const obs::TraceSpan solve_span("solve");
    return engine->SolveFromAccums(entry->accums, group, mask, min_group,
                                   min_sub, skip_subgroups_unless_positive);
  }

  // Miss (or stale lineage): full pass — the same pass as the
  // non-caching path, so a cold-cache run is bit-identical to one with
  // no IncrementalState at all. The accumulation is always split on the
  // protected mask so one cached shape serves both the fairness-aware
  // evaluator and rule costing.
  auto fresh = std::make_unique<AccumEntry>();
  fresh->lineage = lineage;
  {
    const obs::TraceSpan accumulate_span("accumulate");
    fresh->accums = engine->AccumulateSubgroups(group, &protected_mask);
  }
  CateSubgroupEstimates out;
  {
    const obs::TraceSpan solve_span("solve");
    out = engine->SolveFromAccums(fresh->accums, group, mask, min_group,
                                  min_sub, skip_subgroups_unless_positive);
  }
  Metrics().evals_full.Increment();
  const size_t bytes = AccumBytes(fresh->accums);
  {
    MutexLock lock(mu_);
    auto& slot = accums_[key];
    if (slot != nullptr) accum_bytes_ -= AccumBytes(slot->accums);
    slot = std::move(fresh);
    accum_bytes_ += bytes;
  }
  return out;
}

IncrementalState::CacheStats IncrementalState::GetCacheStats() const {
  MutexLock lock(mu_);
  CacheStats stats;
  stats.accum_entries = accums_.size();
  stats.group_entries = groups_.size();
  stats.accum_bytes = accum_bytes_;
  stats.group_reuse_sound = numeric_ok_;
  return stats;
}

Result<IncrementalSession> IncrementalSession::Create(
    DataFrame df, CausalDag dag, Pattern protected_pattern,
    FairCapOptions options) {
  IncrementalSession session;
  session.df_ = std::make_unique<DataFrame>(std::move(df));
  session.dag_ = std::make_unique<CausalDag>(std::move(dag));
  session.state_ = options.incremental_state != nullptr
                       ? options.incremental_state
                       : std::make_shared<IncrementalState>();
  options.incremental_state = session.state_;
  FAIRCAP_ASSIGN_OR_RETURN(
      FairCap faircap,
      FairCap::Create(session.df_.get(), session.dag_.get(),
                      std::move(protected_pattern), std::move(options)));
  session.faircap_ = std::make_unique<FairCap>(std::move(faircap));
  return session;
}

Result<FairCapResult> IncrementalSession::Run() { return faircap_->Run(); }

Status IncrementalSession::Append(const DataFrame& delta) {
  const obs::TraceSpan span("append_ingest");
  const size_t rows = delta.num_rows();
  FAIRCAP_RETURN_NOT_OK(df_->AppendFrame(delta));
  Metrics().rows_appended.Add(rows);
  Metrics().batches.Increment();
  // Refresh order matters: the estimator extends partitions/engines and
  // the predicate index re-stamps before the incremental caches judge
  // what survived.
  faircap_->NotifyAppend();
  return Status::OK();
}

}  // namespace faircap
