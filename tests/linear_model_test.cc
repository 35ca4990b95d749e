#include "causal/linear_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reference/legacy_estimator.h"
#include "util/random.h"

namespace faircap {
namespace {

// Test-side reference: the explicit inverse, one SPD solve per column.
Result<std::vector<double>> InvertSpd(const std::vector<double>& a,
                                      size_t p) {
  std::vector<double> inv(p * p);
  for (size_t col = 0; col < p; ++col) {
    std::vector<double> e(p, 0.0);
    e[col] = 1.0;
    FAIRCAP_ASSIGN_OR_RETURN(const std::vector<double> x, SolveSpd(a, p, e));
    for (size_t row = 0; row < p; ++row) inv[row * p + col] = x[row];
  }
  return inv;
}

// The inverse-based normal-equation solve SolveNormalEquations replaced:
// beta = (X'X + ridge I)^-1 X'y, se(beta_1) = sqrt(sigma2 * inv_11).
struct ReferenceFit {
  std::vector<double> beta;
  double treatment_std_error = 0.0;
};

Result<ReferenceFit> ReferenceSolve(const std::vector<double>& xtx,
                                    const std::vector<double>& xty,
                                    double yty, size_t n, size_t p,
                                    double ridge) {
  std::vector<double> a(p * p);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      a[i * p + j] = i <= j ? xtx[i * p + j] : xtx[j * p + i];
    }
    a[i * p + i] += ridge;
  }
  FAIRCAP_ASSIGN_OR_RETURN(const std::vector<double> inv, InvertSpd(a, p));
  ReferenceFit fit;
  fit.beta.assign(p, 0.0);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) fit.beta[i] += inv[i * p + j] * xty[j];
  }
  double beta_xty = 0.0;
  for (size_t i = 0; i < p; ++i) beta_xty += fit.beta[i] * xty[i];
  const double sigma2 = std::max(0.0, yty - beta_xty) /
                        static_cast<double>(n > p ? n - p : 1);
  fit.treatment_std_error = std::sqrt(std::max(0.0, sigma2 * inv[p + 1]));
  return fit;
}

// Normal equations of a random design: an intercept, a Bernoulli
// treatment column, then alternating one-hot and Gaussian columns.
// `zero_col` (if < p) stays all-zero — a one-hot level no row carries —
// and `dup_col` (if < p) copies column 2, so two design columns coincide.
struct System {
  std::vector<double> xtx, xty;
  double yty = 0.0;
  size_t n = 0;
};

System RandomSystem(size_t p, size_t n, Rng* rng, size_t zero_col = SIZE_MAX,
                    size_t dup_col = SIZE_MAX) {
  System sys;
  sys.n = n;
  sys.xtx.assign(p * p, 0.0);
  sys.xty.assign(p, 0.0);
  std::vector<double> row(p);
  for (size_t r = 0; r < n; ++r) {
    row[0] = 1.0;
    row[1] = rng->NextBernoulli(0.4) ? 1.0 : 0.0;
    for (size_t j = 2; j < p; ++j) {
      row[j] = j % 2 == 0 ? (rng->NextBernoulli(0.3) ? 1.0 : 0.0)
                          : rng->NextGaussian();
    }
    if (zero_col < p) row[zero_col] = 0.0;
    if (dup_col < p) row[dup_col] = row[2];
    double y = 3.0 + 2.0 * row[1] + rng->NextGaussian();
    for (size_t j = 2; j < p; ++j) {
      y += 0.5 * static_cast<double>(j % 5) * row[j];
    }
    for (size_t i = 0; i < p; ++i) {
      for (size_t j = i; j < p; ++j) sys.xtx[i * p + j] += row[i] * row[j];
      sys.xty[i] += row[i] * y;
    }
    sys.yty += y * y;
  }
  return sys;
}

double MaxAbs(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::abs(x));
  return m;
}

TEST(SolveNormalEquationsTest, MatchesExplicitInverseOnRandomSpdSystems) {
  Rng rng(2025);
  for (size_t trial = 0; trial < 200; ++trial) {
    const size_t p = 2 + rng.NextBounded(39);  // p in [2, 40]
    const size_t n = 4 * p + 20 + rng.NextBounded(200);
    const System sys = RandomSystem(p, n, &rng);
    const auto fit =
        SolveNormalEquations(sys.xtx, sys.xty, sys.yty, sys.n, p, 1e-8);
    const auto ref = ReferenceSolve(sys.xtx, sys.xty, sys.yty, sys.n, p, 1e-8);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    const std::string tag = "trial " + std::to_string(trial) + ", p " +
                            std::to_string(p);
    // Norm-wise relative error of beta; relative error of se(beta_1).
    double diff = 0.0;
    for (size_t i = 0; i < p; ++i) {
      diff = std::max(diff, std::abs(fit->beta[i] - ref->beta[i]));
    }
    EXPECT_LE(diff, 1e-10 * MaxAbs(ref->beta)) << tag;
    EXPECT_NEAR(fit->treatment_std_error, ref->treatment_std_error,
                1e-10 * ref->treatment_std_error)
        << tag;
    EXPECT_GT(fit->treatment_std_error, 0.0) << tag;
  }
}

TEST(SolveNormalEquationsTest, RidgeOnlyRankDeficientSystemsStayFinite) {
  Rng rng(7);
  for (size_t trial = 0; trial < 40; ++trial) {
    const size_t p = 4 + rng.NextBounded(30);
    const size_t n = 4 * p + 50;
    // An absent one-hot level (a zero row/column in X'X) and two identical
    // design columns: singular without the ridge, finite with it.
    for (const auto& [zero_col, dup_col] :
         {std::pair<size_t, size_t>{p - 1, SIZE_MAX},
          std::pair<size_t, size_t>{SIZE_MAX, 3},
          std::pair<size_t, size_t>{p - 1, 3}}) {
      const System sys = RandomSystem(p, n, &rng, zero_col, dup_col);
      const auto fit =
          SolveNormalEquations(sys.xtx, sys.xty, sys.yty, sys.n, p, 1e-8);
      ASSERT_TRUE(fit.ok()) << fit.status().ToString();
      for (const double b : fit->beta) EXPECT_TRUE(std::isfinite(b));
      EXPECT_TRUE(std::isfinite(fit->treatment_std_error));
      EXPECT_TRUE(std::isfinite(fit->sigma2));
      // The treatment column stays identified: its coefficient equals the
      // one of the full-rank system without the zero / duplicate column.
      std::vector<size_t> keep;
      keep.reserve(p);
      for (size_t j = 0; j < p; ++j) {
        if (j != zero_col && j != dup_col) keep.push_back(j);
      }
      const size_t q = keep.size();
      std::vector<double> xtx(q * q), xty(q);
      for (size_t i = 0; i < q; ++i) {
        for (size_t j = 0; j < q; ++j) {
          xtx[i * q + j] = sys.xtx[keep[i] * p + keep[j]];
        }
        xty[i] = sys.xty[keep[i]];
      }
      const auto reduced = ReferenceSolve(xtx, xty, sys.yty, sys.n, q, 0.0);
      ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
      EXPECT_NEAR(fit->beta[1], reduced->beta[1],
                  1e-8 * std::abs(reduced->beta[1]));
    }
  }
}

TEST(SolveSpdTest, SolvesKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 9] => x = [1.5, 2].
  const auto x = SolveSpd({4, 2, 2, 3}, 2, {10, 9});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.5, 1e-10);
  EXPECT_NEAR((*x)[1], 2.0, 1e-10);
}

TEST(SolveSpdTest, RejectsNonPositiveDefinite) {
  const auto x = SolveSpd({1, 2, 2, 1}, 2, {1, 1});
  EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolveSpdTest, RejectsDimensionMismatch) {
  EXPECT_EQ(SolveSpd({1, 0, 0, 1}, 2, {1}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(InvertSpdTest, InverseTimesMatrixIsIdentity) {
  const std::vector<double> a = {4, 1, 1, 3};
  const auto inv = InvertSpd(a, 2);
  ASSERT_TRUE(inv.ok());
  // A * A^-1 = I.
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < 2; ++k) {
        sum += a[i * 2 + k] * (*inv)[k * 2 + j];
      }
      EXPECT_NEAR(sum, i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(OlsTest, RecoversExactLinearModel) {
  // y = 3 + 2*x, no noise.
  OlsAccumulator acc(2);
  for (double x = 0; x < 10; x += 1) {
    const double row[2] = {1.0, x};
    acc.AddRow(row, 3.0 + 2.0 * x);
  }
  const auto fit = acc.Solve(0.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->beta[0], 3.0, 1e-8);
  EXPECT_NEAR(fit->beta[1], 2.0, 1e-8);
  EXPECT_NEAR(fit->sigma2, 0.0, 1e-8);
}

TEST(OlsTest, RecoversNoisyModelWithinTolerance) {
  Rng rng(77);
  OlsAccumulator acc(3);
  for (int i = 0; i < 20000; ++i) {
    const double x1 = rng.NextGaussian();
    const double x2 = rng.NextGaussian();
    const double row[3] = {1.0, x1, x2};
    acc.AddRow(row, 1.0 - 4.0 * x1 + 0.5 * x2 + rng.NextGaussian(0.0, 0.3));
  }
  const auto fit = acc.Solve();
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->beta[0], 1.0, 0.02);
  EXPECT_NEAR(fit->beta[1], -4.0, 0.02);
  EXPECT_NEAR(fit->beta[2], 0.5, 0.02);
  EXPECT_NEAR(fit->sigma2, 0.09, 0.01);
  // Standard errors ~ 0.3 / sqrt(n).
  EXPECT_NEAR(fit->treatment_std_error, 0.3 / std::sqrt(20000.0), 5e-4);
}

TEST(OlsTest, InterceptOnlyModelHasNoTreatmentStdError) {
  OlsAccumulator acc(1);
  for (const double y : {1.0, 2.0, 3.0}) {
    const double row[1] = {1.0};
    acc.AddRow(row, y);
  }
  const auto fit = acc.Solve(0.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->beta[0], 2.0, 1e-12);
  EXPECT_TRUE(std::isnan(fit->treatment_std_error));
}

TEST(OlsTest, UnderdeterminedRejected) {
  OlsAccumulator acc(3);
  const double row[3] = {1.0, 2.0, 3.0};
  acc.AddRow(row, 1.0);
  EXPECT_EQ(acc.Solve().status().code(), StatusCode::kFailedPrecondition);
}

TEST(OlsTest, CollinearFeaturesNeedRidge) {
  // Exactly singular SPD system (rank 1) is rejected without ridge; the
  // OLS accumulator's equivalent collinear design solves once ridged.
  EXPECT_FALSE(SolveSpd({1, 2, 2, 4}, 2, {1, 2}).ok());
  OlsAccumulator acc(2);
  for (int i = 0; i < 10; ++i) {
    const double row[2] = {1.0, 1.0};  // perfectly collinear with intercept
    acc.AddRow(row, 2.0);
  }
  const auto fit = acc.Solve(1e-6);
  ASSERT_TRUE(fit.ok());
  // beta0 + beta1 ~ 2 under the ridge-regularized solution.
  EXPECT_NEAR(fit->beta[0] + fit->beta[1], 2.0, 1e-3);
}

}  // namespace
}  // namespace faircap
