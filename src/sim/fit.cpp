#include "sim/fit.hpp"

#include <cmath>
#include <cstring>

namespace pcm::sim {

namespace {

// Accumulate normal equations for basis functions f_j evaluated at x_i:
//   (B^T B) c = B^T y
template <int K, typename Basis>
bool normal_solve(std::span<const double> x, std::span<const double> y,
                  Basis basis, double out[K]) {
  double ata[K * K] = {};
  double atb[K] = {};
  for (std::size_t i = 0; i < x.size(); ++i) {
    double row[K];
    basis(x[i], row);
    for (int r = 0; r < K; ++r) {
      atb[r] += row[r] * y[i];
      for (int c = 0; c < K; ++c) ata[r * K + c] += row[r] * row[c];
    }
  }
  if (!solve_dense(ata, atb, K)) return false;
  for (int r = 0; r < K; ++r) {
    if (!std::isfinite(atb[r])) return false;
  }
  std::memcpy(out, atb, sizeof(atb));
  return true;
}

/// Shared degenerate-input screen: matched sizes, at least `min_points` of
/// them, and at least `min_points` DISTINCT x values (K basis functions of
/// one variable cannot be told apart on fewer abscissae — the normal matrix
/// would be singular, so reject up front instead of relying on the pivot
/// threshold).
bool fittable(std::span<const double> x, std::span<const double> y,
              std::size_t min_points) {
  if (x.size() != y.size() || x.size() < min_points) return false;
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < x.size() && distinct < min_points; ++i) {
    bool seen = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (x[j] == x[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) ++distinct;
  }
  return distinct >= min_points;
}

/// R² with the degenerate cases pinned down: constant y (ss_tot == 0) is
/// exactly 1.0 when the model reproduces it and exactly 0.0 otherwise —
/// never the 0/0 NaN. "Reproduces" is judged relative to the data's own
/// magnitude: the normal-equation round trip leaves residuals of a few ulps
/// even on a perfectly constant series.
template <typename Model>
double r_squared(std::span<const double> x, std::span<const double> y,
                 const Model& f) {
  double mean_y = 0.0, ss_yy = 0.0;
  for (double v : y) {
    mean_y += v;
    ss_yy += v * v;
  }
  mean_y /= static_cast<double>(y.size());
  double ss_tot = 0.0, ss_res = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = y[i] - mean_y;
    ss_tot += d * d;
    const double e = y[i] - f(x[i]);
    ss_res += e * e;
  }
  if (ss_tot > 0.0) return 1.0 - ss_res / ss_tot;
  return ss_res <= ss_yy * 1e-24 ? 1.0 : 0.0;
}

}  // namespace

bool solve_dense(double* a, double* b, int n) {
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    }
    if (std::abs(a[pivot * n + col]) < 1e-300) return false;
    if (pivot != col) {
      for (int c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double inv = 1.0 / a[col * n + col];
    for (int r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] * inv;
      if (f == 0.0) continue;
      for (int c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    double acc = b[r];
    for (int c = r + 1; c < n; ++c) acc -= a[r * n + c] * b[c];
    b[r] = acc / a[r * n + r];
  }
  return true;
}

LineFit fit_line(std::span<const double> x, std::span<const double> y) {
  LineFit f;
  if (!fittable(x, y, 2)) return f;
  double coef[2] = {};
  if (!normal_solve<2>(
          x, y, [](double xi, double* row) { row[0] = xi; row[1] = 1.0; },
          coef)) {
    return f;
  }
  f.slope = coef[0];
  f.intercept = coef[1];
  f.r2 = r_squared(x, y, f);
  f.ok = true;
  return f;
}

double SqrtPolyFit::operator()(double p) const {
  return a * p + b * std::sqrt(p) + c;
}

SqrtPolyFit fit_sqrt_poly(std::span<const double> p, std::span<const double> t) {
  SqrtPolyFit f;
  if (!fittable(p, t, 3)) return f;
  double coef[3] = {};
  if (!normal_solve<3>(
          p, t,
          [](double pi, double* row) {
            row[0] = pi;
            row[1] = std::sqrt(pi);
            row[2] = 1.0;
          },
          coef)) {
    return f;
  }
  f.a = coef[0];
  f.b = coef[1];
  f.c = coef[2];
  f.ok = true;
  return f;
}

}  // namespace pcm::sim
