#include "probe.h"

#include <map>
#include <set>
#include <string>

#include "causal/cate_stats_engine.h"
#include "causal/estimator.h"
#include "stats.h"
#include "util/timer.h"

namespace perfbench {

using faircap::Bitmap;
using faircap::PrescriptionRule;
using faircap::Result;
using faircap::StopWatch;

Result<ProbeResult> RunLayerProbe(
    const faircap::DataFrame& df, const faircap::CausalDag& dag,
    const faircap::Pattern& protected_pattern,
    const faircap::FairCapOptions& options,
    const std::vector<PrescriptionRule>& candidates) {
  const faircap::DataFrame fresh(df);  // copies start with a cold index
  ProbeResult out;

  // dataframe: each distinct pattern evaluated on the cold index, then
  // again from its cache.
  std::vector<double> cold_us;
  std::vector<double> warm_us;
  std::set<std::string> seen_patterns;
  for (const PrescriptionRule& rule : candidates) {
    for (const faircap::Pattern* p : {&rule.grouping, &rule.intervention}) {
      if (!seen_patterns.insert(p->Key()).second) continue;
      StopWatch watch;
      const Bitmap cold = p->Evaluate(fresh);
      cold_us.push_back(watch.ElapsedSeconds() * 1e6);
      watch.Restart();
      const Bitmap warm = p->Evaluate(fresh);
      warm_us.push_back(watch.ElapsedSeconds() * 1e6);
    }
  }
  out.mask_cold_us = Median(cold_us);
  out.mask_warm_us = Median(warm_us);

  // causal: one partition per distinct adjustment set, then one engine
  // per distinct intervention on a fresh estimator (the first engine of
  // an adjustment set also builds that estimator's partition).
  FAIRCAP_ASSIGN_OR_RETURN(
      const faircap::CateEstimator estimator,
      faircap::CateEstimator::Create(&fresh, &dag, options.cate));
  std::vector<double> partition_ms;
  std::set<std::vector<size_t>> seen_adjustments;
  for (const PrescriptionRule& rule : candidates) {
    FAIRCAP_ASSIGN_OR_RETURN(const std::vector<size_t> adjustment,
                             estimator.AdjustmentAttrs(rule.intervention));
    if (!seen_adjustments.insert(adjustment).second) continue;
    StopWatch watch;
    const auto partition = faircap::ConfounderPartition::Build(
        fresh, estimator.outcome_attr(), adjustment, options.cate);
    partition_ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  out.partition_build_ms = Median(partition_ms);

  std::vector<double> engine_ms;
  std::map<std::string, std::shared_ptr<const faircap::CateStatsEngine>>
      engines;
  for (const PrescriptionRule& rule : candidates) {
    const std::string key = rule.intervention.Key();
    if (engines.count(key) != 0) continue;
    StopWatch watch;
    FAIRCAP_ASSIGN_OR_RETURN(auto engine,
                             estimator.EngineFor(rule.intervention));
    engine_ms.push_back(watch.ElapsedSeconds() * 1e3);
    engines.emplace(key, std::move(engine));
  }
  out.engine_build_ms = Median(engine_ms);

  // One accumulation and one solve per pair, with the protected split
  // exactly when the pipeline asks for subgroup utilities.
  const Bitmap protected_mask = protected_pattern.Evaluate(fresh);
  const Bitmap* split = options.fairness.active() ? &protected_mask : nullptr;
  std::vector<double> accumulate_us;
  std::vector<double> solve_us;
  double accumulate_seconds = 0.0;
  double accumulated_rows = 0.0;
  for (const PrescriptionRule& rule : candidates) {
    const faircap::CateStatsEngine& engine =
        *engines.at(rule.intervention.Key());
    StopWatch watch;
    const faircap::CateStatsEngine::SubgroupAccums accums =
        engine.AccumulateSubgroups(rule.coverage, split, nullptr, nullptr);
    const double seconds = watch.ElapsedSeconds();
    accumulate_us.push_back(seconds * 1e6);
    accumulate_seconds += seconds;
    accumulated_rows += static_cast<double>(rule.coverage.Count());
    watch.Restart();
    const faircap::CateSubgroupEstimates estimates = engine.SolveFromAccums(
        accums, rule.coverage, split, options.cate.min_group_size,
        options.min_subgroup_arm, /*skip_subgroups_unless_positive=*/true);
    solve_us.push_back(watch.ElapsedSeconds() * 1e6);
  }
  out.accumulate_us = Median(accumulate_us);
  out.accumulate_mrows_per_s =
      Ratio(accumulated_rows, accumulate_seconds) * 1e-6;
  out.solve_us = Median(solve_us);
  return out;
}

}  // namespace perfbench
