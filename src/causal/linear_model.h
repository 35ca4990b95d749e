// Ordinary least squares from normal-equation sufficient statistics. The
// regression CATE estimator fits O ~ alpha + beta*T + gamma'Z and reads
// the treatment effect off beta, so all we need is a small,
// dependency-free SPD solver.

#ifndef FAIRCAP_CAUSAL_LINEAR_MODEL_H_
#define FAIRCAP_CAUSAL_LINEAR_MODEL_H_

#include <vector>

#include "util/result.h"

namespace faircap {

/// Fitted OLS model.
struct OlsFit {
  std::vector<double> beta;  ///< coefficients, length p
  /// Standard error of beta[1] — the treatment coefficient of the CATE
  /// design [1, T, Z...], the only standard error any caller reads.
  /// NaN when p < 2.
  double treatment_std_error = 0.0;
  double sigma2 = 0.0;  ///< residual variance estimate
  size_t n = 0;         ///< rows used
};

/// Solves A x = b for symmetric positive definite A (row-major p x p) via
/// Cholesky. Fails when A is not positive definite.
Result<std::vector<double>> SolveSpd(std::vector<double> a, size_t p,
                                     std::vector<double> b);

/// Solves the ridge-stabilized normal equations from sufficient statistics
/// alone: `xtx` is X'X with at least the upper triangle filled (i <= j;
/// the lower triangle is ignored), `xty` is X'y, `yty` is y'y, `n` the row
/// count behind the sums. The CATE sufficient-statistics engine assembles
/// X'X from per-stratum accumulations instead of design rows.
///
/// Factors X'X + ridge*I = L L' once (Cholesky, into per-thread scratch),
/// takes beta from one forward/back solve of X'y, and Var(beta[1]) from
/// (A^-1)_11 = |L^-1 e_1|^2 — one more forward solve. No p x p inverse is
/// formed, so beta[1] agrees with inverse-times-X'y only to solver
/// precision on ill-conditioned systems.
Result<OlsFit> SolveNormalEquations(const std::vector<double>& xtx,
                                    const std::vector<double>& xty,
                                    double yty, size_t n, size_t p,
                                    double ridge = 1e-8);

}  // namespace faircap

#endif  // FAIRCAP_CAUSAL_LINEAR_MODEL_H_
