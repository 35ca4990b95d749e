#include "core/faircap.h"

#include <algorithm>
#include <numeric>

#include "causal/cate_stats_engine.h"
#include "core/benefit.h"
#include "core/incremental.h"
#include "util/obs/metrics.h"
#include "util/obs/run_report.h"
#include "util/obs/trace.h"
#include "util/task_scheduler.h"
#include "util/timer.h"

namespace faircap {

Result<FairCap> FairCap::Create(const DataFrame* df, const CausalDag* dag,
                                Pattern protected_pattern,
                                FairCapOptions options) {
  if (df == nullptr || dag == nullptr) {
    return Status::InvalidArgument("df and dag must be non-null");
  }
  FAIRCAP_RETURN_NOT_OK(protected_pattern.Validate(*df));
  FAIRCAP_ASSIGN_OR_RETURN(const size_t outcome_attr,
                           df->schema().OutcomeIndex());
  if (protected_pattern.ConstrainsAttr(outcome_attr)) {
    return Status::InvalidArgument(
        "protected pattern must not reference the outcome");
  }
  FAIRCAP_ASSIGN_OR_RETURN(CateEstimator estimator,
                           CateEstimator::Create(df, dag, options.cate));
  if (options.engine_memory_budget > 0) {
    estimator.SetEngineMemoryBudget(options.engine_memory_budget);
  }
  if (options.incremental_state != nullptr) {
    options.incremental_state->Attach(*df);
  }

  // Optimization (i): mutable attributes with no causal path to the
  // outcome cannot have a treatment effect; drop them up front.
  std::vector<size_t> mutable_attrs =
      df->schema().IndicesWithRole(AttrRole::kMutable);
  if (options.prune_non_causal_attrs) {
    const std::string& outcome_name =
        df->schema().attribute(outcome_attr).name;
    const Result<size_t> outcome_node = dag->IndexOf(outcome_name);
    std::vector<size_t> kept;
    for (size_t attr : mutable_attrs) {
      const Result<size_t> node = dag->IndexOf(df->schema().attribute(attr).name);
      if (!node.ok() || !outcome_node.ok()) {
        kept.push_back(attr);  // unknown to the DAG: keep conservatively
        continue;
      }
      if (dag->HasDirectedPath(*node, *outcome_node)) kept.push_back(attr);
    }
    mutable_attrs = std::move(kept);
  }

  Bitmap protected_mask = protected_pattern.Evaluate(*df);
  return FairCap(df, dag, std::move(protected_pattern),
                 std::move(protected_mask), std::move(estimator),
                 std::move(mutable_attrs), std::move(options));
}

FairCap::FairCap(const DataFrame* df, const CausalDag* dag,
                 Pattern protected_pattern, Bitmap protected_mask,
                 CateEstimator estimator, std::vector<size_t> mutable_attrs,
                 FairCapOptions options)
    : df_(df),
      dag_(dag),
      protected_pattern_(std::move(protected_pattern)),
      protected_mask_(std::move(protected_mask)),
      estimator_(std::move(estimator)),
      mutable_attrs_(std::move(mutable_attrs)),
      options_(std::move(options)) {}

CateEstimator::AppendRefreshStats FairCap::NotifyAppend() {
  // The protected pattern constrains only non-appended-value semantics —
  // resident rows keep their bits; the re-evaluation extends the mask
  // over the delta rows (warm: the PredicateIndex extends its atom masks
  // by whole words instead of rescanning).
  protected_mask_ = protected_pattern_.Evaluate(*df_);
  const CateEstimator::AppendRefreshStats stats = estimator_.NotifyAppend();
  if (options_.incremental_state != nullptr) {
    options_.incremental_state->OnAppend(*df_);
  }
  return stats;
}

Result<std::vector<FrequentPattern>> FairCap::MineGroupingPatterns() const {
  const std::vector<size_t> immutable =
      df_->schema().IndicesWithRole(AttrRole::kImmutable);
  // Only categorical immutable attributes participate (numeric grouping
  // attributes must be discretized by the caller).
  std::vector<size_t> usable;
  for (size_t attr : immutable) {
    if (df_->column(attr).type() == AttrType::kCategorical) {
      usable.push_back(attr);
    }
  }
  AprioriOptions apriori = options_.apriori;
  // Section 5.4: under a rule-coverage constraint every rule must cover a
  // theta fraction of the population, so raise the Apriori threshold to
  // theta — low-coverage grouping patterns can never yield a feasible
  // rule and pruning them up front is what makes this the cheapest
  // setting (Figure 3).
  if (options_.coverage.kind == CoverageKind::kRule) {
    apriori.min_support_fraction =
        std::max(apriori.min_support_fraction, options_.coverage.theta);
  }
  FAIRCAP_ASSIGN_OR_RETURN(std::vector<FrequentPattern> groups,
                           MineFrequentPatterns(*df_, usable, apriori));
  // Same argument for the protected-coverage floor theta_p.
  if (options_.coverage.kind == CoverageKind::kRule &&
      options_.coverage.theta_protected > 0.0) {
    const double need_protected = options_.coverage.theta_protected *
                                  static_cast<double>(protected_mask_.Count());
    std::vector<FrequentPattern> kept;
    kept.reserve(groups.size());
    for (auto& group : groups) {
      const size_t covered_protected =
          group.coverage.AndCount(protected_mask_);
      if (static_cast<double>(covered_protected) >= need_protected) {
        kept.push_back(std::move(group));
      }
    }
    groups = std::move(kept);
  }
  return groups;
}

PrescriptionRule FairCap::CostRule(const Pattern& grouping,
                                   const Pattern& intervention) const {
  return CostRule(grouping, intervention, /*eval=*/nullptr);
}

PrescriptionRule FairCap::CostRule(const Pattern& grouping,
                                   const Pattern& intervention,
                                   const TreatmentEval* eval) const {
  PrescriptionRule rule;
  rule.grouping = grouping;
  rule.intervention = intervention;
  rule.coverage = grouping.Evaluate(*df_);
  rule.support = rule.coverage.Count();
  rule.support_protected = rule.coverage.AndCount(protected_mask_);

  if (rule.support == 0 || intervention.empty()) return rule;

  // A fairness-aware lattice evaluation already holds the three CATEs
  // for exactly this coverage; reuse them instead of re-estimating.
  if (eval != nullptr && eval->has_subgroup_utilities &&
      eval->subgroups_estimable) {
    rule.utility = eval->cate;
    rule.std_error = eval->std_error;
    rule.utility_protected = eval->utility_protected;
    rule.utility_nonprotected = eval->utility_nonprotected;
    rule.benefit = RuleBenefit(rule, options_.fairness);
    return rule;
  }

  const size_t support_nonprotected = rule.support - rule.support_protected;
  // One sufficient-statistics pass answers all three subgroups; the
  // non-protected slice comes from the accumulation split, so its bitmap
  // is never materialized. With an incremental state the pass is served
  // from the cross-run accum cache (delta-only after an append).
  const Result<CateSubgroupEstimates> batch =
      options_.incremental_state != nullptr
          ? options_.incremental_state->EstimateWithCache(
                estimator_, grouping.Key(), intervention, rule.coverage,
                protected_mask_, /*want_subgroups=*/true,
                options_.min_subgroup_arm,
                /*skip_subgroups_unless_positive=*/false)
          : estimator_.EstimateSubgroups(intervention, rule.coverage,
                                         &protected_mask_,
                                         options_.min_subgroup_arm);
  if (batch.ok()) {
    if (batch->overall.ok()) {
      rule.utility = batch->overall->cate;
      rule.std_error = batch->overall->std_error;
    }
    if (rule.support_protected > 0) {
      if (batch->protected_group.ok()) {
        rule.utility_protected = batch->protected_group->cate;
      } else {
        rule.utility_protected_estimable = false;
      }
    }
    if (support_nonprotected > 0) {
      if (batch->nonprotected.ok()) {
        rule.utility_nonprotected = batch->nonprotected->cate;
      } else {
        rule.utility_nonprotected_estimable = false;
      }
    }
  } else {
    // An outright failure (e.g. the intervention does not validate)
    // means no subgroup could be estimated.
    if (rule.support_protected > 0) rule.utility_protected_estimable = false;
    if (support_nonprotected > 0) rule.utility_nonprotected_estimable = false;
  }
  rule.benefit = RuleBenefit(rule, options_.fairness);
  return rule;
}

Result<std::vector<PrescriptionRule>> FairCap::MineCandidateRules(
    const std::vector<FrequentPattern>& groups, size_t* num_evaluations,
    SchedulerStats* scheduler_stats, TaskScheduler* pool) const {
  const obs::TraceSpan step_span("treatment_mining");
  StopWatch mining_watch;
  const bool needs_group_utilities = options_.fairness.active();
  std::vector<std::vector<PrescriptionRule>> per_group(groups.size());
  std::vector<size_t> evals(groups.size(), 0);

  // Grouping patterns are the unit of parallel work, as in the paper's
  // per-group Step 2: one ParallelFor on the flat pool runs each
  // pattern's whole lattice as one index. Which thread runs a pattern
  // never shows in the output — its results land in per_group[g] and are
  // concatenated in pattern order — so a run is bit-identical at every
  // thread count. Without a caller's pool, one is started here.
  std::unique_ptr<TaskScheduler> own_pool;
  TaskScheduler* scheduler = pool;
  if (scheduler == nullptr && ResolveThreadCount(options_.num_threads) > 1) {
    own_pool = std::make_unique<TaskScheduler>(options_.num_threads);
    scheduler = own_pool.get();
  }
  const uint64_t claims_before =
      scheduler != nullptr ? scheduler->GetStats().executed : 0;

  IncrementalState* const inc = options_.incremental_state.get();
  // Each mined (not reused) pattern's wall time: the cost tail the
  // largest-first schedule below works around.
  static obs::Histogram& pattern_us =
      obs::MetricsRegistry::Global().GetHistogram("mining.pattern_us");

  auto mine_one = [&](size_t g) {
    // One span per grouping pattern ("args":{"v":g}); the nested
    // "lattice" span and its "accumulate", "solve" and "eval" spans give
    // the trace its pattern -> eval hierarchy on each worker track.
    const obs::TraceSpan pattern_span("pattern",
                                      static_cast<int64_t>(g));
    const FrequentPattern& group = groups[g];
    // Delta-aware short-circuit: a group whose support the append left
    // unchanged gained no delta rows, so its cached candidate rules are
    // exactly what this lattice traversal would re-derive.
    if (inc != nullptr &&
        inc->TryReuseGroup(group, &per_group[g], &evals[g])) {
      return;
    }
    const StopWatch pattern_watch;
    const std::string group_key =
        inc != nullptr ? group.pattern.Key() : std::string();
    // Subgroup cardinalities come from fused word-level counts; the
    // protected / non-protected coverage bitmaps are never materialized
    // (the engine splits the accumulation on the protected bit instead).
    const size_t protected_count = group.coverage.AndCount(protected_mask_);
    const size_t nonprotected_count =
        group.coverage.AndNotCount(protected_mask_);

    const Bitmap* const split_mask =
        needs_group_utilities ? &protected_mask_ : nullptr;
    // The interpret step: a treatment's lattice evaluation from its
    // estimates.
    auto interpret = [&](const Result<CateSubgroupEstimates>& estimates)
        -> std::optional<TreatmentEval> {
      if (!estimates.ok()) return std::nullopt;
      const CateSubgroupEstimates& ests = *estimates;
      if (!ests.overall.ok()) return std::nullopt;
      const CateEstimate& overall = *ests.overall;
      TreatmentEval eval;
      eval.cate = overall.cate;
      eval.std_error = overall.std_error;
      // Non-positive treatments are never selectable (Section 4.3) and the
      // lattice prunes on the overall CATE only, so their subgroup
      // estimates would be wasted work.
      if (overall.cate <= 0.0) {
        eval.score = overall.cate;
        eval.feasible = false;
        return eval;
      }
      if (needs_group_utilities) {
        double utility_protected = 0.0;
        double utility_nonprotected = 0.0;
        bool estimable = true;
        if (protected_count > 0) {
          if (ests.protected_group.ok()) {
            utility_protected = ests.protected_group->cate;
          } else {
            estimable = false;
          }
        }
        if (nonprotected_count > 0) {
          if (ests.nonprotected.ok()) {
            utility_nonprotected = ests.nonprotected->cate;
          } else {
            estimable = false;
          }
        }
        eval.utility_protected = utility_protected;
        eval.utility_nonprotected = utility_nonprotected;
        eval.subgroups_estimable = estimable;
        eval.has_subgroup_utilities = true;
        eval.score = RuleBenefit(overall.cate, utility_protected,
                                 utility_nonprotected, options_.fairness);
        // A treatment whose subgroup effects cannot be estimated cannot
        // have its fairness certified; under an active fairness
        // constraint it is not selectable.
        if (!estimable) eval.feasible = false;
        // Individual-scope constraints restrict which treatments are
        // selectable for this group (Section 5.4).
        if (eval.feasible && options_.fairness.individual()) {
          PrescriptionRule probe;
          probe.utility = overall.cate;
          probe.utility_protected = utility_protected;
          probe.utility_nonprotected = utility_nonprotected;
          eval.feasible = options_.fairness.RuleSatisfies(probe);
        }
      } else {
        eval.score = overall.cate;
      }
      return eval;
    };
    // A lattice level arrives whole and goes to the estimator in one
    // call, with this pattern's CompactGroup: the estimator batches the
    // level by confounder partition and picks, per batch, fused compact
    // or table passes, so the "accumulate" and "solve" spans sit under
    // "lattice" and each "eval" span holds the interpret step alone. The
    // incremental path keeps its per-treatment accum cache.
    CompactGroup view;  // filled on first use, reused across levels
    const LevelEvaluator evaluator = [&](const std::vector<Pattern>& level) {
      std::vector<std::optional<TreatmentEval>> results(level.size());
      if (inc != nullptr) {
        for (size_t i = 0; i < level.size(); ++i) {
          const obs::TraceSpan eval_span("eval", static_cast<int64_t>(g));
          results[i] = interpret(inc->EstimateWithCache(
              estimator_, group_key, level[i], group.coverage,
              protected_mask_, /*want_subgroups=*/needs_group_utilities,
              options_.min_subgroup_arm,
              /*skip_subgroups_unless_positive=*/true));
        }
        return results;
      }
      std::vector<const Pattern*> interventions;
      interventions.reserve(level.size());
      for (const Pattern& intervention : level) {
        interventions.push_back(&intervention);
      }
      const Result<std::vector<Result<CateSubgroupEstimates>>> estimates =
          estimator_.EstimateSubgroupsBatch(
              interventions, group.coverage, split_mask,
              options_.min_subgroup_arm,
              /*skip_subgroups_unless_positive=*/true, &view);
      for (size_t i = 0; i < level.size(); ++i) {
        const obs::TraceSpan eval_span("eval", static_cast<int64_t>(g));
        results[i] = estimates.ok() ? interpret((*estimates)[i])
                                    : std::nullopt;
      }
      return results;
    };

    const LatticeResult lattice = TraverseInterventionLattice(
        *df_, mutable_attrs_, evaluator, options_.lattice);
    evals[g] = lattice.num_evaluated;

    auto emit = [&](const Pattern& intervention, const TreatmentEval& eval) {
      PrescriptionRule rule = CostRule(group.pattern, intervention, &eval);
      if (rule.utility <= 0.0) return;
      if (options_.fairness.active() && !rule.GroupUtilitiesEstimable()) {
        return;
      }
      if (options_.fairness.individual() &&
          !options_.fairness.RuleSatisfies(rule)) {
        return;
      }
      per_group[g].push_back(std::move(rule));
    };

    if (options_.keep_all_treatments) {
      for (const auto& [pattern, eval] : lattice.positive) {
        if (eval.feasible) emit(pattern, eval);
      }
    } else if (lattice.best.has_value()) {
      emit(*lattice.best, lattice.best_eval);
    }
    if (inc != nullptr) inc->StoreGroup(group, per_group[g], evals[g]);
    pattern_us.Observe(pattern_watch.ElapsedSeconds() * 1e6);
  };

  if (scheduler == nullptr) {
    for (size_t g = 0; g < groups.size(); ++g) mine_one(g);
  } else {
    // The pool hands out one pattern at a time, so the largest patterns
    // (by support, ties by index) go first: a large pattern claimed last
    // would leave the other threads idle while it runs. The order only
    // picks which pattern a thread claims next; results still land in
    // per_group[g].
    std::vector<size_t> order(groups.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (groups[a].support != groups[b].support) {
        return groups[a].support > groups[b].support;
      }
      return a < b;
    });
    scheduler->ParallelFor(groups.size(),
                           [&](size_t i) { mine_one(order[i]); });
  }
  if (scheduler_stats != nullptr) {
    // Inline, every grouping pattern is one task of the calling thread.
    *scheduler_stats =
        scheduler != nullptr
            ? SchedulerStats{scheduler->num_threads(),
                             scheduler->GetStats().executed - claims_before}
            : SchedulerStats{0, groups.size()};
  }

  std::vector<PrescriptionRule> candidates;
  size_t total_evals = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    total_evals += evals[g];
    for (auto& rule : per_group[g]) candidates.push_back(std::move(rule));
  }
  if (num_evaluations != nullptr) *num_evaluations = total_evals;

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter& pattern_tasks =
      registry.GetCounter("mining.pattern_tasks");
  pattern_tasks.Add(groups.size());
  // Set here (not only in Run) so direct callers — the baseline
  // adapters — get a populated run report too.
  registry.GetGauge(obs::kPhaseTreatmentMining)
      .Set(mining_watch.ElapsedSeconds());
  return candidates;
}

Result<FairCapResult> FairCap::Run() const {
  FairCapResult result;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  StopWatch total_watch;
  StopWatch watch;

  // Step 1: grouping patterns.
  std::vector<FrequentPattern> groups;
  {
    const obs::TraceSpan step_span("group_mining");
    FAIRCAP_ASSIGN_OR_RETURN(groups, MineGroupingPatterns());
  }
  result.num_grouping_patterns = groups.size();
  result.timings.group_mining_seconds = watch.ElapsedSeconds();
  registry.GetGauge(obs::kPhaseGroupMining)
      .Set(result.timings.group_mining_seconds);

  // One pool serves Step 2 and Step 3.
  std::unique_ptr<TaskScheduler> pool;
  if (ResolveThreadCount(options_.num_threads) > 1) {
    pool = std::make_unique<TaskScheduler>(options_.num_threads);
  }

  // Step 2: intervention patterns.
  watch.Restart();
  FAIRCAP_ASSIGN_OR_RETURN(
      const std::vector<PrescriptionRule> candidates,
      MineCandidateRules(groups, &result.num_treatment_evaluations,
                         &result.scheduler, pool.get()));
  result.num_candidate_rules = candidates.size();
  result.timings.treatment_mining_seconds = watch.ElapsedSeconds();
  registry.GetGauge(obs::kPhaseTreatmentMining)
      .Set(result.timings.treatment_mining_seconds);

  // Step 3: greedy selection (budget-aware when a cost model is set).
  watch.Restart();
  const obs::TraceSpan selection_span("selection");
  std::vector<double> costs;
  const std::vector<double>* costs_ptr = nullptr;
  if (options_.cost_model != nullptr && options_.greedy.budget > 0.0) {
    costs.reserve(candidates.size());
    for (const PrescriptionRule& rule : candidates) {
      costs.push_back(
          options_.cost_model->RuleTotalCost(rule, df_->schema()));
    }
    costs_ptr = &costs;
  }
  GreedyOptions greedy_options = options_.greedy;
  // Selection shares the pipeline's thread budget; the greedy result is
  // thread-count-invariant (see GreedyOptions::num_threads).
  greedy_options.num_threads = options_.num_threads;
  const GreedyResult greedy =
      GreedySelect(candidates, protected_mask_, options_.fairness,
                   options_.coverage, greedy_options, costs_ptr, pool.get());
  result.timings.selection_seconds = watch.ElapsedSeconds();
  registry.GetGauge(obs::kPhaseSelection)
      .Set(result.timings.selection_seconds);
  registry.GetGauge(obs::kPhaseTotal).Set(total_watch.ElapsedSeconds());

  result.stats = greedy.stats;
  result.constraints_satisfied = greedy.constraints_satisfied;
  result.total_cost = greedy.total_cost;
  result.rules.reserve(greedy.selected.size());
  for (size_t idx : greedy.selected) {
    result.rules.push_back(candidates[idx]);
  }
  return result;
}

}  // namespace faircap
