#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace pcm::sim {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;

  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  const std::size_t mid = sorted.size() / 2;
  s.median = (sorted.size() % 2 == 1)
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);

  double sum = 0.0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());

  if (xs.size() > 1) {
    double ss = 0.0;
    for (double x : xs) {
      const double d = x - s.mean;
      ss += d * d;
    }
    s.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  }
  return s;
}

// Measurement-side sample sink (calibration/report), not the router hot
// path — it only shares the simple name `add` with CommPattern::add.
void Accumulator::add(double x) {
  values_.push_back(x);  // pcm-lint:allow(hot-path-alloc)
}

Summary Accumulator::summary() const {
  return summarize(std::span<const double>(values_));
}

}  // namespace pcm::sim
