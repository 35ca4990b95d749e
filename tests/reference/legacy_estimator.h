// Test-side pinning oracle for CATE estimation: the original per-call
// estimator, which rebuilds one design (regression, IPW) or one stratum
// table (stratified) per (intervention, group) straight from the rows.
// Production code has one estimation path, the batch sufficient-
// statistics engine behind CateEstimator::EstimateSubgroups; the tests
// pin that engine against this oracle (stratified bit-for-bit, regression
// and IPW within summation-order tolerance).
//
// The oracle reads the estimator only through its public accessors, so it
// shares the table, adjustment sets, treated masks and options with the
// engine under test, and nothing else.

#ifndef FAIRCAP_TESTS_REFERENCE_LEGACY_ESTIMATOR_H_
#define FAIRCAP_TESTS_REFERENCE_LEGACY_ESTIMATOR_H_

#include <cstddef>
#include <vector>

#include "causal/estimator.h"
#include "causal/linear_model.h"
#include "dataframe/bitmap.h"
#include "mining/pattern.h"
#include "util/result.h"

namespace faircap {

/// Estimates the effect of `intervention` within `group` the legacy way,
/// dispatching on `est.options().method`. `min_group_size` == 0 falls
/// back to the estimator's configured floor. Fails (FailedPrecondition)
/// when either arm is below the floor or no stratum has overlap, and
/// (InvalidArgument) on an empty intervention.
Result<CateEstimate> ReferenceEstimate(const CateEstimator& est,
                                       const Pattern& intervention,
                                       const Bitmap& group,
                                       size_t min_group_size = 0);

/// Accumulates X'X, X'y, y'y row by row, then solves the (ridge-stabilized)
/// normal equations through SolveNormalEquations. Design rows never need
/// to be materialized together.
class OlsAccumulator {
 public:
  explicit OlsAccumulator(size_t p);

  size_t num_features() const { return p_; }
  size_t num_rows() const { return n_; }

  /// Adds one design row `x` (length p) with response `y`.
  void AddRow(const double* x, double y);

  /// Solves (X'X + ridge*I) beta = X'y and computes standard errors.
  /// Fails when fewer rows than features or a singular system.
  Result<OlsFit> Solve(double ridge = 1e-8) const;

 private:
  size_t p_;
  size_t n_ = 0;
  std::vector<double> xtx_;  // p x p, row-major (upper triangle filled)
  std::vector<double> xty_;  // p
  double yty_ = 0.0;
};

}  // namespace faircap

#endif  // FAIRCAP_TESTS_REFERENCE_LEGACY_ESTIMATOR_H_
