#pragma once

#include <string>
#include <vector>

#include "sim/stats.hpp"

// The central data shape of the validation framework: a sweep of a workload
// parameter with a measured series (simulated machine time, with trial
// statistics) and any number of model-predicted series.

namespace pcm::core {

struct MeasuredPoint {
  double x = 0.0;         ///< Workload parameter (N, M, h, ...).
  sim::Summary measured;  ///< Over trials (mean is the headline value).
};

struct PredictedSeries {
  std::string model;       ///< e.g. "BSP", "MP-BSP", "MP-BPRAM", "E-BSP".
  std::vector<double> ys;  ///< Aligned with the measured points.
};

struct ValidationSeries {
  std::string experiment;   ///< e.g. "fig12-apsp-maspar".
  std::string x_label;
  std::string y_label;      ///< e.g. "time (ms)" or "time/key (µs)".
  std::vector<MeasuredPoint> points;
  std::vector<PredictedSeries> predictions;

  [[nodiscard]] std::vector<double> xs() const {
    std::vector<double> out;
    out.reserve(points.size());
    for (const auto& p : points) out.push_back(p.x);
    return out;
  }

  [[nodiscard]] std::vector<double> measured_means() const {
    std::vector<double> out;
    out.reserve(points.size());
    for (const auto& p : points) out.push_back(p.measured.mean);
    return out;
  }

  [[nodiscard]] const PredictedSeries* prediction(const std::string& model) const {
    for (const auto& s : predictions) {
      if (s.model == model) return &s;
    }
    return nullptr;
  }
};

}  // namespace pcm::core
