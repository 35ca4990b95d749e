#include "reference/legacy_estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "causal/cate_stats_engine.h"

namespace faircap {

namespace {

Status InsufficientOverlap(const char* what, size_t n_treated,
                           size_t n_control) {
  return Status::FailedPrecondition(
      std::string(what) + ": " + std::to_string(n_treated) + " treated / " +
      std::to_string(n_control) + " control rows");
}

// One design column over the adjustment set: a categorical level
// indicator (levels 1..k-1; level 0 is the reference) or a numeric value.
struct Feature {
  size_t attr;
  bool categorical;
  int32_t code;
};

std::vector<Feature> DesignFeatures(const DataFrame& df,
                                    const std::vector<size_t>& adjustment) {
  std::vector<Feature> features;
  for (size_t attr : adjustment) {
    const Column& col = df.column(attr);
    if (col.type() == AttrType::kCategorical) {
      for (size_t code = 1; code < col.num_categories(); ++code) {
        features.push_back({attr, true, static_cast<int32_t>(code)});
      }
    } else {
      features.push_back({attr, false, 0});
    }
  }
  return features;
}

// Value of `feat` at row `r`; null confounders read as the reference
// level / zero.
double FeatureValue(const DataFrame& df, const Feature& feat, size_t r) {
  const Column& col = df.column(feat.attr);
  if (col.IsNull(r)) return 0.0;
  if (feat.categorical) return col.code(r) == feat.code ? 1.0 : 0.0;
  return col.numeric(r);
}

// Regression: O ~ alpha + beta*T + gamma'Z; beta is the CATE.
Result<CateEstimate> EstimateRegression(const CateEstimator& est,
                                        const Bitmap& treated,
                                        const Bitmap& group,
                                        const std::vector<size_t>& adjustment,
                                        size_t min_group_size) {
  const DataFrame& df = est.data();
  const std::vector<Feature> features = DesignFeatures(df, adjustment);
  const size_t p = 2 + features.size();
  OlsAccumulator acc(p);
  const Column& outcome = df.column(est.outcome_attr());
  std::vector<double> row(p);
  size_t n_treated = 0, n_control = 0;
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r)) return;
    const bool is_treated = treated.Get(r);
    row[0] = 1.0;
    row[1] = is_treated ? 1.0 : 0.0;
    for (size_t f = 0; f < features.size(); ++f) {
      row[2 + f] = FeatureValue(df, features[f], r);
    }
    acc.AddRow(row.data(), outcome.numeric(r));
    if (is_treated) ++n_treated; else ++n_control;
  });
  if (n_treated < min_group_size || n_control < min_group_size) {
    return InsufficientOverlap("insufficient overlap", n_treated, n_control);
  }
  FAIRCAP_ASSIGN_OR_RETURN(const OlsFit fit, acc.Solve(est.options().ridge));
  CateEstimate out;
  out.cate = fit.beta[1];
  out.std_error = fit.treatment_std_error;
  out.n_treated = n_treated;
  out.n_control = n_control;
  return out;
}

// Stratified: exact matching over joint confounder cells (numeric
// confounders quantile-binned), dropping cells without overlap.
Result<CateEstimate> EstimateStratified(const CateEstimator& est,
                                        const Bitmap& treated,
                                        const Bitmap& group,
                                        const std::vector<size_t>& adjustment,
                                        size_t min_group_size) {
  const DataFrame& df = est.data();
  const CateOptions& options = est.options();
  std::vector<std::vector<double>> edges(adjustment.size());
  for (size_t a = 0; a < adjustment.size(); ++a) {
    const Column& col = df.column(adjustment[a]);
    if (col.type() != AttrType::kNumeric) continue;
    edges[a] = QuantileBinEdges(
        col, std::max<size_t>(1, options.numeric_confounder_bins));
  }
  // Joint stratum id of row `r`; -1 where any confounder is null.
  const auto stratum_of = [&](size_t r) -> int64_t {
    int64_t id = 0;
    for (size_t a = 0; a < adjustment.size(); ++a) {
      const Column& col = df.column(adjustment[a]);
      if (col.IsNull(r)) return -1;
      if (col.type() == AttrType::kCategorical) {
        id = id * static_cast<int64_t>(col.num_categories() + 1) + col.code(r);
      } else {
        const std::vector<double>& e = edges[a];
        const int64_t bin = static_cast<int64_t>(
            std::upper_bound(e.begin(), e.end(), col.numeric(r)) - e.begin());
        id = id * static_cast<int64_t>(e.size() + 2) + bin;
      }
    }
    return id;
  };

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
  const Column& outcome = df.column(est.outcome_attr());
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r)) return;
    const int64_t stratum = stratum_of(r);
    if (stratum < 0) return;
    Cell& cell = cells[stratum];
    Arm& arm = treated.Get(r) ? cell.treated : cell.control;
    const double y = outcome.numeric(r);
    ++arm.n;
    arm.sum += y;
    arm.sum_sq += y * y;
  });

  // Within-arm variance of the mean's numerator (0 when n < 2).
  const auto arm_var = [](const Arm& arm) {
    if (arm.n < 2) return 0.0;
    const double mean = arm.sum / static_cast<double>(arm.n);
    return std::max(0.0, (arm.sum_sq - arm.sum * mean) /
                             static_cast<double>(arm.n - 1));
  };
  double weighted_effect = 0.0;
  double weighted_var = 0.0;
  size_t n_used = 0, n_treated = 0, n_control = 0;
  for (const auto& [stratum, cell] : cells) {
    if (cell.treated.n < options.min_stratum_arm ||
        cell.control.n < options.min_stratum_arm) {
      continue;  // no overlap in this stratum (positivity violation)
    }
    const size_t n_s = cell.treated.n + cell.control.n;
    const double m1 = cell.treated.sum / static_cast<double>(cell.treated.n);
    const double m0 = cell.control.sum / static_cast<double>(cell.control.n);
    weighted_effect += static_cast<double>(n_s) * (m1 - m0);
    const double v1 =
        arm_var(cell.treated) / static_cast<double>(cell.treated.n);
    const double v0 =
        arm_var(cell.control) / static_cast<double>(cell.control.n);
    weighted_var +=
        static_cast<double>(n_s) * static_cast<double>(n_s) * (v1 + v0);
    n_used += n_s;
    n_treated += cell.treated.n;
    n_control += cell.control.n;
  }
  if (n_treated < min_group_size || n_control < min_group_size) {
    return InsufficientOverlap("insufficient overlap after stratification",
                               n_treated, n_control);
  }
  CateEstimate out;
  out.cate = weighted_effect / static_cast<double>(n_used);
  out.std_error = std::sqrt(weighted_var) / static_cast<double>(n_used);
  out.n_treated = n_treated;
  out.n_control = n_control;
  return out;
}

// IPW: logistic propensity over [1, one-hot(Z)], clipped Hajek weights.
Result<CateEstimate> EstimateIpw(const CateEstimator& est,
                                 const Bitmap& treated, const Bitmap& group,
                                 const std::vector<size_t>& adjustment,
                                 size_t min_group_size) {
  const DataFrame& df = est.data();
  const std::vector<Feature> features = DesignFeatures(df, adjustment);
  const size_t p = 1 + features.size();
  const Column& outcome = df.column(est.outcome_attr());
  std::vector<double> design;
  std::vector<double> labels;
  std::vector<double> outcomes;
  std::vector<uint8_t> is_treated_row;
  size_t n_treated = 0;
  group.ForEach([&](size_t r) {
    if (outcome.IsNull(r)) return;
    design.push_back(1.0);
    for (const Feature& feat : features) {
      design.push_back(FeatureValue(df, feat, r));
    }
    const bool t = treated.Get(r);
    labels.push_back(t ? 1.0 : 0.0);
    outcomes.push_back(outcome.numeric(r));
    is_treated_row.push_back(t ? 1 : 0);
    if (t) ++n_treated;
  });
  const size_t n = labels.size();
  const size_t n_control = n - n_treated;
  if (n_treated < min_group_size || n_control < min_group_size) {
    return InsufficientOverlap("insufficient overlap", n_treated, n_control);
  }
  return HajekIpwFromRows(design, n, p, labels, outcomes, is_treated_row,
                          est.options().propensity_clip);
}

}  // namespace

Result<CateEstimate> ReferenceEstimate(const CateEstimator& est,
                                       const Pattern& intervention,
                                       const Bitmap& group,
                                       size_t min_group_size) {
  if (intervention.empty()) {
    return Status::InvalidArgument("intervention pattern must be non-empty");
  }
  if (min_group_size == 0) min_group_size = est.options().min_group_size;
  FAIRCAP_RETURN_NOT_OK(intervention.Validate(est.data()));
  FAIRCAP_ASSIGN_OR_RETURN(const std::vector<size_t> adjustment,
                           est.AdjustmentAttrs(intervention));
  const std::shared_ptr<const Bitmap> treated = est.TreatedMask(intervention);
  switch (est.options().method) {
    case CateMethod::kRegression:
      return EstimateRegression(est, *treated, group, adjustment,
                                min_group_size);
    case CateMethod::kStratified:
      return EstimateStratified(est, *treated, group, adjustment,
                                min_group_size);
    case CateMethod::kIpw:
      return EstimateIpw(est, *treated, group, adjustment, min_group_size);
  }
  return Status::Internal("unknown CATE method");
}

OlsAccumulator::OlsAccumulator(size_t p)
    : p_(p), xtx_(p * p, 0.0), xty_(p, 0.0) {}

void OlsAccumulator::AddRow(const double* x, double y) {
  for (size_t i = 0; i < p_; ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;  // design rows are sparse one-hots
    for (size_t j = i; j < p_; ++j) {
      xtx_[i * p_ + j] += xi * x[j];
    }
    xty_[i] += xi * y;
  }
  yty_ += y * y;
  ++n_;
}

Result<OlsFit> OlsAccumulator::Solve(double ridge) const {
  return SolveNormalEquations(xtx_, xty_, yty_, n_, p_, ridge);
}

}  // namespace faircap
