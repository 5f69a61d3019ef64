#pragma once

#include <span>
#include <vector>

// Summary statistics used by the calibration micro-benchmarks. The paper
// plots the average of 100 trials with min/max error bars (Fig 1); `Summary`
// carries exactly those plus the spread measures the analysis text quotes.

namespace pcm::sim {

struct Summary {
  std::size_t n = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< Sample standard deviation (n-1 denominator).
  double median = 0.0;
};

/// Summarise a set of observations. Empty input yields a zeroed Summary.
Summary summarize(std::span<const double> xs);

/// Online accumulator for streaming observations.
class Accumulator {
 public:
  void add(double x);
  [[nodiscard]] Summary summary() const;
  [[nodiscard]] std::span<const double> values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace pcm::sim
