#pragma once

// Virtual time for the machine simulators.
//
// The paper reports all model parameters and measurements in microseconds
// (Table 1), so the whole library uses `Micros` — a double holding µs of
// simulated time.

namespace pcm::sim {

/// Simulated time / duration in microseconds.
using Micros = double;

}  // namespace pcm::sim
