#pragma once

#include <span>

// Least-squares fitting, used exactly the way the paper uses it:
//   - a straight line fitted to 1-h relation / h-relation / block-permutation
//     timings yields (g, L) and (sigma, ell)   [Section 3, Table 1]
//   - a "second order polynomial fit" in sqrt(P') yields
//     T_unb(P') = a*P' + b*sqrt(P') + c        [Section 3.1, Fig 2]
//
// Degenerate inputs are flagged failures, never garbage: too few points,
// duplicate-x (singular normal matrix) or otherwise underdetermined systems
// return a zeroed fit with ok == false, and r² is always a finite number
// (exactly 1.0 for a perfect fit to constant y, 0.0 for a failed one).

namespace pcm::sim {

struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r2 = 0.0;  ///< Coefficient of determination; always finite.
  bool ok = false;  ///< False: degenerate input (too few / duplicate x).

  [[nodiscard]] double operator()(double x) const { return slope * x + intercept; }
};

/// Ordinary least squares y = slope*x + intercept. Needs >= 2 points with
/// at least two distinct x values; anything less returns ok == false.
LineFit fit_line(std::span<const double> x, std::span<const double> y);

struct SqrtPolyFit {
  // T(p) = a*p + b*sqrt(p) + c
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  bool ok = false;  ///< False: degenerate input (see fit_sqrt_poly).

  [[nodiscard]] double operator()(double p) const;
};

/// Least squares in the basis {p, sqrt(p), 1}. Needs >= 3 points with at
/// least three distinct p values; anything less returns ok == false.
SqrtPolyFit fit_sqrt_poly(std::span<const double> p, std::span<const double> t);

/// Solve the small dense symmetric positive system A*x=b in place
/// (Gaussian elimination with partial pivoting). n <= 8 expected.
/// `a` is row-major n x n; returns false if singular.
bool solve_dense(double* a, double* b, int n);

}  // namespace pcm::sim
