#include "sim/fit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/rng.hpp"

namespace pcm::sim {
namespace {

TEST(FitLine, RecoversExactLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double v : x) y.push_back(3.5 * v + 7.0);
  const auto f = fit_line(x, y);
  EXPECT_NEAR(f.slope, 3.5, 1e-9);
  EXPECT_NEAR(f.intercept, 7.0, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
}

TEST(FitLine, TwoPoints) {
  std::vector<double> x{0, 10};
  std::vector<double> y{5, 25};
  const auto f = fit_line(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-9);
  EXPECT_NEAR(f.intercept, 5.0, 1e-9);
}

TEST(FitLine, RobustToSymmetricNoise) {
  Rng rng(3);
  std::vector<double> x, y;
  for (int i = 1; i <= 200; ++i) {
    x.push_back(i);
    y.push_back(32.2 * i + 1400.0 + rng.next_gaussian(0.0, 20.0));
  }
  const auto f = fit_line(x, y);
  EXPECT_NEAR(f.slope, 32.2, 0.2);
  EXPECT_NEAR(f.intercept, 1400.0, 20.0);
  EXPECT_GT(f.r2, 0.99);
}

TEST(FitLine, EvaluatorMatchesCoefficients) {
  LineFit f{2.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(f(3.0), 7.0);
}

TEST(FitSqrtPoly, RecoversTheMasParTUnb) {
  // T_unb(P') = 0.84 P' + 11.8 sqrt(P') + 73.3 (paper Section 3.1).
  std::vector<double> p, t;
  for (int a = 1; a <= 1024; a *= 2) {
    p.push_back(a);
    t.push_back(0.84 * a + 11.8 * std::sqrt(static_cast<double>(a)) + 73.3);
  }
  const auto f = fit_sqrt_poly(p, t);
  EXPECT_NEAR(f.a, 0.84, 1e-6);
  EXPECT_NEAR(f.b, 11.8, 1e-5);
  EXPECT_NEAR(f.c, 73.3, 1e-4);
  EXPECT_NEAR(f(32.0), 0.84 * 32 + 11.8 * std::sqrt(32.0) + 73.3, 1e-6);
}

TEST(SolveDense, SolvesSmallSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = (1, 3).
  double a[4] = {2, 1, 1, 3};
  double b[2] = {5, 10};
  ASSERT_TRUE(solve_dense(a, b, 2));
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(SolveDense, DetectsSingular) {
  double a[4] = {1, 2, 2, 4};
  double b[2] = {1, 2};
  EXPECT_FALSE(solve_dense(a, b, 2));
}

TEST(SolveDense, PivotsWhenNeeded) {
  // Leading zero forces a row swap.
  double a[4] = {0, 1, 1, 0};
  double b[2] = {3, 4};
  ASSERT_TRUE(solve_dense(a, b, 2));
  EXPECT_NEAR(b[0], 4.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

// --- degenerate inputs: flagged failure, never NaN or garbage --------------

TEST(FitLine, SuccessIsFlagged) {
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{2, 4, 6};
  EXPECT_TRUE(fit_line(x, y).ok);
}

TEST(FitLine, ConstantYIsPerfectFitWithFiniteR2) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{5, 5, 5, 5};
  const auto f = fit_line(x, y);
  EXPECT_TRUE(f.ok);
  EXPECT_NEAR(f.slope, 0.0, 1e-12);
  EXPECT_NEAR(f.intercept, 5.0, 1e-12);
  // ss_tot == 0 and residuals at solver-rounding scale: explicitly r2 = 1,
  // not 0/0 and not a 0 verdict from a few ulps of normal-equation noise.
  EXPECT_DOUBLE_EQ(f.r2, 1.0);
  EXPECT_TRUE(std::isfinite(f.r2));
}

TEST(FitLine, DuplicateXIsFlaggedNotGarbage) {
  // All x equal: slope is undefined, the normal matrix is singular.
  std::vector<double> x{3, 3, 3, 3};
  std::vector<double> y{1, 2, 3, 4};
  const auto f = fit_line(x, y);
  EXPECT_FALSE(f.ok);
  EXPECT_DOUBLE_EQ(f.slope, 0.0);
  EXPECT_DOUBLE_EQ(f.intercept, 0.0);
  EXPECT_TRUE(std::isfinite(f.r2));
}

TEST(FitLine, UnderdeterminedIsFlagged) {
  std::vector<double> one_x{1.0};
  std::vector<double> one_y{2.0};
  EXPECT_FALSE(fit_line(one_x, one_y).ok);
  EXPECT_FALSE(fit_line({}, {}).ok);
  std::vector<double> x{1, 2, 3};
  std::vector<double> y{1, 2};
  EXPECT_FALSE(fit_line(x, y).ok);  // size mismatch
}

TEST(FitSqrtPoly, TwoDistinctAbscissaeIsFlagged) {
  // Four points but only two distinct p values: {p, sqrt(p), 1} cannot be
  // told apart on two abscissae.
  std::vector<double> p{4, 4, 16, 16};
  std::vector<double> t{10, 10, 20, 20};
  const auto f = fit_sqrt_poly(p, t);
  EXPECT_FALSE(f.ok);
  EXPECT_DOUBLE_EQ(f.a, 0.0);
  EXPECT_DOUBLE_EQ(f.b, 0.0);
  EXPECT_DOUBLE_EQ(f.c, 0.0);
}

}  // namespace
}  // namespace pcm::sim
