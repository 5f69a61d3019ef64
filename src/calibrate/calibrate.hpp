#pragma once

#include "machines/machine.hpp"
#include "models/params.hpp"

// The full Section 3 calibration campaign for one machine: run the
// micro-benchmarks and fit the model parameters, i.e. regenerate Table 1
// from the simulator the same way the paper derived it from hardware.
//
// g and L come from *1-h relations* on the SIMD MasPar (every PE has at most
// one outstanding message, Fig 1) and from *full h-relations* on the MIMD
// machines (Sections 3.2/3.3); a machine whose name contains "MasPar" takes
// the former.

namespace pcm::calibrate {

struct CalibrationOptions {
  int trials = 20;            ///< Trials per data point (paper: 100 for Fig 1).
  bool fit_t_unb = true;      ///< Partial-permutation sweep (MasPar only in the paper).
  bool fit_mscat = true;      ///< Multinode-scatter sweep (GCel only in the paper;
                              ///< skipped on a single processor).
  int max_h = 64;             ///< Largest h in the h-relation sweeps.
  int max_block = 4096;       ///< Largest block size (bytes) in the block sweep.
};

/// Run the campaign and return fitted parameters.
models::MachineModelParams calibrate(machines::Machine& m,
                                     CalibrationOptions opts = {});

}  // namespace pcm::calibrate
