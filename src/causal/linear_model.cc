#include "causal/linear_model.h"

#include <algorithm>
#include <cmath>

namespace faircap {

namespace {

// In-place Cholesky factorization A = L L'. Returns false if A is not
// positive definite. Lower triangle of `a` receives L.
bool Cholesky(std::vector<double>& a, size_t p) {
  for (size_t j = 0; j < p; ++j) {
    double d = a[j * p + j];
    for (size_t k = 0; k < j; ++k) d -= a[j * p + k] * a[j * p + k];
    if (d <= 0.0 || !std::isfinite(d)) return false;
    const double l_jj = std::sqrt(d);
    a[j * p + j] = l_jj;
    for (size_t i = j + 1; i < p; ++i) {
      double s = a[i * p + j];
      for (size_t k = 0; k < j; ++k) s -= a[i * p + k] * a[j * p + k];
      a[i * p + j] = s / l_jj;
    }
  }
  return true;
}

// Solves L L' x = b given the Cholesky factor in the lower triangle.
void CholeskySolve(const std::vector<double>& l, size_t p,
                   std::vector<double>& b) {
  // Forward: L z = b.
  for (size_t i = 0; i < p; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l[i * p + k] * b[k];
    b[i] = s / l[i * p + i];
  }
  // Backward: L' x = z.
  for (size_t i = p; i-- > 0;) {
    double s = b[i];
    for (size_t k = i + 1; k < p; ++k) s -= l[k * p + i] * b[k];
    b[i] = s / l[i * p + i];
  }
}

}  // namespace

Result<std::vector<double>> SolveSpd(std::vector<double> a, size_t p,
                                     std::vector<double> b) {
  if (a.size() != p * p || b.size() != p) {
    return Status::InvalidArgument("SolveSpd: dimension mismatch");
  }
  if (!Cholesky(a, p)) {
    return Status::FailedPrecondition("matrix is not positive definite");
  }
  CholeskySolve(a, p, b);
  return b;
}

Result<OlsFit> SolveNormalEquations(const std::vector<double>& xtx,
                                    const std::vector<double>& xty,
                                    double yty, size_t n, size_t p,
                                    double ridge) {
  if (xtx.size() != p * p || xty.size() != p) {
    return Status::InvalidArgument("SolveNormalEquations: dimension mismatch");
  }
  if (n < p) {
    return Status::FailedPrecondition(
        "OLS needs at least as many rows as features (" +
        std::to_string(n) + " < " + std::to_string(p) + ")");
  }
  // The factor lives in per-thread scratch, reused by every solve on the
  // thread. Cholesky reads only the lower triangle, so the upper triangle
  // of X'X is transposed into it and the ridge added on the diagonal.
  thread_local std::vector<double> a;
  a.resize(p * p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < i; ++j) a[i * p + j] = xtx[j * p + i];
    a[i * p + i] = xtx[i * p + i] + ridge;
  }
  if (!Cholesky(a, p)) {
    return Status::FailedPrecondition("matrix is not positive definite");
  }

  OlsFit fit;
  fit.n = n;
  fit.beta = xty;
  CholeskySolve(a, p, fit.beta);
  // Residual sum of squares: y'y - 2 beta'X'y + beta'X'X beta, folded as
  // y'y - beta'X'y (valid at the normal-equation solution up to ridge).
  double beta_xty = 0.0;
  for (size_t i = 0; i < p; ++i) beta_xty += fit.beta[i] * xty[i];
  const double rss = std::max(0.0, yty - beta_xty);
  const size_t dof = n > p ? n - p : 1;
  fit.sigma2 = rss / static_cast<double>(dof);
  if (p < 2) {
    fit.treatment_std_error = std::nan("");
    return fit;
  }
  // (A^-1)_11 = |z|^2 for L z = e_1. z[0] = 0, so the forward solve
  // starts at row 1 and never reads column 0 of L.
  thread_local std::vector<double> z;
  z.resize(p);
  double inv_11 = 0.0;
  for (size_t i = 1; i < p; ++i) {
    double s = i == 1 ? 1.0 : 0.0;
    for (size_t k = 1; k < i; ++k) s -= a[i * p + k] * z[k];
    z[i] = s / a[i * p + i];
    inv_11 += z[i] * z[i];
  }
  fit.treatment_std_error = std::sqrt(std::max(0.0, fit.sigma2 * inv_11));
  return fit;
}

}  // namespace faircap
