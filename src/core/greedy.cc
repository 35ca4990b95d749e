#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/benefit.h"
#include "util/obs/trace.h"
#include "util/task_scheduler.h"

namespace faircap {

namespace {

// Normalized score of a ruleset (higher is better). `coverage_active` keeps
// the coverage term in play until the coverage constraint is satisfied
// (Section 5.3: "once the coverage constraints are met, the focus shifts
// to maximizing benefit and utility"). With no coverage constraint the
// coverage term stays active — the paper's unconstrained objective still
// rewards broadly applicable rules through ExpUtility, and retaining the
// term reproduces its high-coverage unconstrained solutions.
// The benefit term uses the ruleset *mean* benefit (benefit(R) read as a
// set-level score): a redundant or low-benefit addition drags the mean
// down, which is what lets the marginal-gain stopping rule fire before
// max_rules.
double ScoreOf(const RulesetStats& stats, double benefit_sum,
               double utility_scale, bool coverage_active,
               const GreedyOptions& options) {
  double score = 0.0;
  if (coverage_active) {
    score += options.weight_coverage *
             (stats.coverage_fraction + stats.coverage_protected_fraction);
  }
  const double mean_benefit =
      stats.num_rules == 0
          ? 0.0
          : benefit_sum / static_cast<double>(stats.num_rules);
  score += options.weight_benefit * mean_benefit / utility_scale;
  score += options.weight_utility * stats.exp_utility / utility_scale;
  return score;
}

// Incremental trial evaluation for the greedy loop. Recomputing
// RulesetStats from scratch for every candidate trial costs
// O((|selected|+1) * N) plus three N-sized allocations per trial — at
// scale that made Step-3 selection the dominant phase of the whole
// pipeline (and the floor under the incremental-append ratio, since a
// warm re-mine pays it in full).
//
// The key structure: each of the selected set's per-row aggregates
// (max utility over covering rules; min protected-side utility; max
// nonprotected-side utility) takes at most one distinct value per
// selected rule. Covered rows are therefore kept as *region bitmaps*,
// one per distinct aggregate value, and a candidate's trial delta is a
// handful of fused AndCounts against those regions — word-level bitmap
// work instead of a per-row scan of the candidate's coverage. Accepting
// a rule migrates the rows it improves into its value's region with
// word-level bitmap algebra. Trials and accepts share the same delta
// arithmetic and the same (deterministic, acceptance-order) region
// iteration order, so a trial's stats and the post-accept stats are
// bitwise equal.
class SelectionState {
 public:
  SelectionState(const std::vector<PrescriptionRule>& candidates,
                 const Bitmap& protected_mask)
      : candidates_(candidates),
        protected_mask_(protected_mask),
        n_(protected_mask.size()),
        population_protected_(protected_mask.Count()),
        covered_(n_),
        covered_protected_(n_),
        support_(candidates.size(), 0),
        support_protected_(candidates.size(), 0) {
    // Per-candidate coverage totals are state-independent; computing
    // them once keeps every trial at pure AndCount cost.
    for (size_t i = 0; i < candidates.size(); ++i) {
      support_[i] = candidates[i].coverage.Count();
      support_protected_[i] = candidates[i].coverage.AndCount(protected_mask);
    }
  }

  /// Stats of selected-so-far plus `candidates_[idx]`.
  RulesetStats TrialAdd(size_t idx) const {
    return Assemble(num_rules_ + 1, ComputeDelta(idx));
  }

  /// Folds `candidates_[idx]` into the selected set.
  void Accept(size_t idx) {
    const Delta d = ComputeDelta(idx);
    const PrescriptionRule& rule = candidates_[idx];
    const Bitmap& cov = rule.coverage;
    Bitmap fresh = cov;
    fresh.AndNot(covered_);

    // Overall: rows whose best covering utility rises to rule.utility —
    // fresh rows plus rows sitting in regions of strictly lower value.
    Bitmap gained = std::move(fresh);
    for (auto& [v, region] : overall_) {
      if (v < rule.utility) {
        gained |= region & cov;
        region.AndNot(cov);
      }
    }
    Bitmap gained_protected = gained & protected_mask_;
    RegionFor(&overall_, rule.utility) |= gained;

    // Protected side: min over covering rules, so regions of strictly
    // higher value drain into this rule's.
    for (auto& [v, region] : protected_regions_) {
      if (v > rule.utility_protected) {
        gained_protected |= region & cov;
        region.AndNot(cov);
      }
    }
    RegionFor(&protected_regions_, rule.utility_protected) |= gained_protected;

    // Nonprotected side: max again, over non-protected covered rows.
    Bitmap gained_nonprotected = cov;
    gained_nonprotected.AndNot(covered_);
    gained_nonprotected.AndNot(protected_mask_);
    for (auto& [v, region] : nonprotected_regions_) {
      if (v < rule.utility_nonprotected) {
        gained_nonprotected |= region & cov;
        region.AndNot(cov);
      }
    }
    RegionFor(&nonprotected_regions_, rule.utility_nonprotected) |=
        gained_nonprotected;

    covered_ |= cov;
    covered_protected_ |= cov & protected_mask_;
    sum_overall_ += d.sum_overall;
    sum_protected_ += d.sum_protected;
    sum_nonprotected_ += d.sum_nonprotected;
    covered_count_ += d.covered;
    covered_protected_count_ += d.covered_protected;
    ++num_rules_;
  }

  RulesetStats Current() const { return Assemble(num_rules_, Delta{}); }

 private:
  // Region list: (aggregate value, rows holding it). Insertion order —
  // the acceptance order — fixes the FP summation order of every later
  // trial, keeping results deterministic and thread-count-invariant.
  using Regions = std::vector<std::pair<double, Bitmap>>;

  struct Delta {
    double sum_overall = 0.0;
    double sum_protected = 0.0;
    double sum_nonprotected = 0.0;
    size_t covered = 0;
    size_t covered_protected = 0;
  };

  Bitmap& RegionFor(Regions* regions, double value) {
    for (auto& [v, region] : *regions) {
      if (v == value) return region;
    }
    regions->emplace_back(value, Bitmap(n_));
    return regions->back().second;
  }

  Delta ComputeDelta(size_t idx) const {
    Delta d;
    const PrescriptionRule& rule = candidates_[idx];
    const Bitmap& cov = rule.coverage;
    const double u = rule.utility;
    const double up = rule.utility_protected;
    const double unp = rule.utility_nonprotected;
    d.covered = support_[idx] - cov.AndCount(covered_);
    d.covered_protected =
        support_protected_[idx] - cov.AndCount(covered_protected_);
    const size_t fresh_nonprotected = d.covered - d.covered_protected;
    d.sum_overall = u * static_cast<double>(d.covered);
    for (const auto& [v, region] : overall_) {
      if (u > v) {
        d.sum_overall += (u - v) * static_cast<double>(cov.AndCount(region));
      }
    }
    d.sum_protected = up * static_cast<double>(d.covered_protected);
    for (const auto& [v, region] : protected_regions_) {
      if (up < v) {
        d.sum_protected += (up - v) * static_cast<double>(cov.AndCount(region));
      }
    }
    d.sum_nonprotected = unp * static_cast<double>(fresh_nonprotected);
    for (const auto& [v, region] : nonprotected_regions_) {
      if (unp > v) {
        d.sum_nonprotected +=
            (unp - v) * static_cast<double>(cov.AndCount(region));
      }
    }
    return d;
  }

  RulesetStats Assemble(size_t num_rules, const Delta& d) const {
    RulesetStats stats;
    stats.num_rules = num_rules;
    stats.population = n_;
    stats.population_protected = population_protected_;
    if (n_ == 0) return stats;
    stats.covered = covered_count_ + d.covered;
    stats.covered_protected = covered_protected_count_ + d.covered_protected;
    const size_t covered_nonprotected =
        stats.covered - stats.covered_protected;
    stats.coverage_fraction =
        static_cast<double>(stats.covered) / static_cast<double>(n_);
    stats.coverage_protected_fraction =
        population_protected_ == 0
            ? 0.0
            : static_cast<double>(stats.covered_protected) /
                  static_cast<double>(population_protected_);
    stats.exp_utility =
        (sum_overall_ + d.sum_overall) / static_cast<double>(n_);
    stats.exp_utility_protected =
        stats.covered_protected == 0
            ? 0.0
            : (sum_protected_ + d.sum_protected) /
                  static_cast<double>(stats.covered_protected);
    stats.exp_utility_nonprotected =
        covered_nonprotected == 0
            ? 0.0
            : (sum_nonprotected_ + d.sum_nonprotected) /
                  static_cast<double>(covered_nonprotected);
    stats.unfairness =
        stats.exp_utility_nonprotected - stats.exp_utility_protected;
    return stats;
  }

  const std::vector<PrescriptionRule>& candidates_;
  const Bitmap& protected_mask_;
  const size_t n_;
  const size_t population_protected_;
  Bitmap covered_;
  Bitmap covered_protected_;
  std::vector<size_t> support_;
  std::vector<size_t> support_protected_;
  Regions overall_;
  Regions protected_regions_;
  Regions nonprotected_regions_;
  double sum_overall_ = 0.0;
  double sum_protected_ = 0.0;
  double sum_nonprotected_ = 0.0;
  size_t covered_count_ = 0;
  size_t covered_protected_count_ = 0;
  size_t num_rules_ = 0;
};

}  // namespace

GreedyResult GreedySelect(const std::vector<PrescriptionRule>& candidates,
                          const Bitmap& protected_mask,
                          const FairnessConstraint& fairness,
                          const CoverageConstraint& coverage,
                          const GreedyOptions& options,
                          const std::vector<double>* candidate_costs,
                          TaskScheduler* pool) {
  GreedyResult result;
  const bool budgeted = options.budget > 0.0 && candidate_costs != nullptr;
  const size_t population = protected_mask.size();
  const size_t population_protected = protected_mask.Count();

  // Matroid pre-filter: rule coverage and individual fairness restrict
  // single rules, so infeasible candidates can never enter any solution.
  std::vector<size_t> eligible;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const PrescriptionRule& rule = candidates[i];
    if (rule.utility <= 0.0) continue;  // only improving rules (Section 4.3)
    if (!coverage.RuleSatisfies(rule, population, population_protected)) {
      continue;
    }
    if (!fairness.RuleSatisfies(rule)) continue;
    eligible.push_back(i);
  }
  if (eligible.empty()) {
    const obs::TraceSpan stats_span("ruleset_stats");
    result.stats = ComputeRulesetStats(candidates, {}, protected_mask);
    result.constraints_satisfied =
        fairness.StatsSatisfy(result.stats) &&
        coverage.StatsSatisfy(result.stats);
    return result;
  }

  // Scale so the benefit/utility terms are comparable with coverage
  // fractions regardless of outcome units (dollars vs probabilities).
  double utility_scale = 0.0;
  for (size_t i : eligible) {
    utility_scale = std::max(utility_scale, candidates[i].utility);
  }
  if (utility_scale <= 0.0) utility_scale = 1.0;

  std::vector<size_t> selected;
  std::vector<bool> taken(candidates.size(), false);
  SelectionState state(candidates, protected_mask);
  RulesetStats current_stats = state.Current();
  double current_benefit_sum = 0.0;
  double current_score = 0.0;

  // Candidate trials are independent reads of the selection state, so
  // each iteration fans them out across workers and only the argmax scan
  // below stays sequential (in eligible order, exactly as before) — the
  // selected ruleset is identical at every thread count.
  std::unique_ptr<TaskScheduler> own_pool;
  TaskScheduler* scheduler = pool;
  if (scheduler == nullptr && eligible.size() > 1 &&
      ResolveThreadCount(options.num_threads) > 1) {
    own_pool = std::make_unique<TaskScheduler>(options.num_threads);
    scheduler = own_pool.get();
  }
  std::vector<RulesetStats> trials(eligible.size());

  while (selected.size() < options.max_rules) {
    const bool coverage_met = coverage.StatsSatisfy(current_stats);
    const bool coverage_active =
        !coverage.active() || !coverage_met;

    const auto trial_one = [&](size_t k) {
      if (!taken[eligible[k]]) trials[k] = state.TrialAdd(eligible[k]);
    };
    if (scheduler != nullptr) {
      scheduler->ParallelFor(eligible.size(), trial_one);
    } else {
      for (size_t k = 0; k < eligible.size(); ++k) trial_one(k);
    }

    double best_gain = -std::numeric_limits<double>::infinity();
    double best_ranking = -std::numeric_limits<double>::infinity();
    size_t best_idx = candidates.size();
    RulesetStats best_stats;
    double best_benefit_sum = 0.0;

    for (size_t k = 0; k < eligible.size(); ++k) {
      const size_t i = eligible[k];
      if (taken[i]) continue;
      if (budgeted &&
          result.total_cost + (*candidate_costs)[i] > options.budget) {
        continue;
      }
      const RulesetStats& trial_stats = trials[k];

      // Group-fairness steering: once coverage is in hand, do not accept a
      // rule that makes the group constraint (more) violated.
      if (coverage_met || !coverage.active()) {
        const double violation_now = fairness.GroupViolation(current_stats);
        const double violation_after = fairness.GroupViolation(trial_stats);
        if (violation_after > violation_now && violation_after > 0.0) {
          continue;
        }
      }

      const double benefit_i = RuleBenefit(candidates[i], fairness);
      const double trial_benefit_sum = current_benefit_sum + benefit_i;
      const double trial_score = ScoreOf(trial_stats, trial_benefit_sum,
                                         utility_scale, coverage_active,
                                         options);
      const double gain = trial_score - current_score;
      // Under a budget, rank by gain per unit cost (budgeted max-coverage
      // heuristic); otherwise by raw gain.
      const double ranking =
          budgeted ? gain / std::max((*candidate_costs)[i], 1e-12) : gain;
      if (ranking > best_ranking) {
        best_ranking = ranking;
        best_gain = gain;
        best_idx = i;
        best_stats = trial_stats;
        best_benefit_sum = trial_benefit_sum;
      }
    }

    if (best_idx == candidates.size()) break;
    // Stop on negligible marginal gain — but never before coverage
    // constraints are met if they still can be improved.
    if (best_gain < options.min_marginal_gain && coverage_met) break;
    if (best_gain <= 0.0 && !coverage.active()) break;

    taken[best_idx] = true;
    selected.push_back(best_idx);
    if (budgeted) result.total_cost += (*candidate_costs)[best_idx];
    // Accept applies the same delta arithmetic TrialAdd used, so
    // state.Current() now equals best_stats bitwise.
    state.Accept(best_idx);
    current_stats = best_stats;
    current_benefit_sum = best_benefit_sum;
    current_score = ScoreOf(current_stats, current_benefit_sum, utility_scale,
                            !coverage.active() ||
                                !coverage.StatsSatisfy(current_stats),
                            options);
  }

  // Final trim: while the group fairness constraint is violated, drop the
  // rule whose removal shrinks the violation most, as long as coverage
  // stays satisfied (or was never satisfied anyway).
  bool changed = true;
  while (changed && fairness.GroupViolation(current_stats) > 0.0 &&
         selected.size() > 1) {
    changed = false;
    double best_violation = fairness.GroupViolation(current_stats);
    size_t drop_pos = selected.size();
    RulesetStats best_stats;
    const bool coverage_was_met = coverage.StatsSatisfy(current_stats);
    for (size_t pos = 0; pos < selected.size(); ++pos) {
      std::vector<size_t> trial = selected;
      trial.erase(trial.begin() + static_cast<ptrdiff_t>(pos));
      const RulesetStats trial_stats =
          ComputeRulesetStats(candidates, trial, protected_mask);
      if (coverage_was_met && !coverage.StatsSatisfy(trial_stats)) continue;
      const double v = fairness.GroupViolation(trial_stats);
      if (v < best_violation) {
        best_violation = v;
        drop_pos = pos;
        best_stats = trial_stats;
      }
    }
    if (drop_pos < selected.size()) {
      current_benefit_sum -=
          RuleBenefit(candidates[selected[drop_pos]], fairness);
      if (budgeted) {
        result.total_cost -= (*candidate_costs)[selected[drop_pos]];
      }
      selected.erase(selected.begin() + static_cast<ptrdiff_t>(drop_pos));
      current_stats = best_stats;
      changed = true;
    }
  }

  result.selected = std::move(selected);
  // Externally visible stats come from the canonical full recompute: the
  // incremental sums can differ from it in the last ulp (association
  // order), and callers compare reported stats across runs. The span
  // lives here, not in ComputeRulesetStats, which the brute-force
  // baseline calls once per subset.
  {
    const obs::TraceSpan stats_span("ruleset_stats");
    result.stats =
        ComputeRulesetStats(candidates, result.selected, protected_mask);
  }
  result.constraints_satisfied = fairness.StatsSatisfy(result.stats) &&
                                 coverage.StatsSatisfy(result.stats);
  return result;
}

}  // namespace faircap
