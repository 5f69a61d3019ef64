#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "machines/machine.hpp"

// The benchmark's four workloads. Each one is a figure sweep of the paper
// (machine, x grid, algorithm variant, instrumentation planes); NOTES.md
// records why each was chosen and which layer it stresses.
//
// A workload is instantiated for one input seed: the instance generates
// every cell's inputs up front, so the timed sweep receives only generated
// data. run() executes one cell on a machine and parks the output; check()
// later compares that output against the serial algos::ref oracle, outside
// any timed region.

namespace perfbench {

/// Instrumentation planes a sweep runs with (bit set).
enum Planes : unsigned {
  kNoPlanes = 0,
  kObs = 1u << 0,
  kAudit = 1u << 1,
  kRace = 1u << 2,
};

/// Switches the process-global obs/audit/race gates for one scope and
/// restores them to off on exit.
class PlaneScope {
 public:
  explicit PlaneScope(unsigned planes);
  ~PlaneScope();
  PlaneScope(const PlaneScope&) = delete;
  PlaneScope& operator=(const PlaneScope&) = delete;
  /// False when a requested plane would not switch on (compiled out).
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

class Instance {
 public:
  virtual ~Instance() = default;
  /// Run cell `xi` on `m` (which the algorithm resets first), keep its
  /// output for check(), and return the simulated µs.
  virtual double run(pcm::machines::Machine& m, std::size_t xi) = 0;
  /// Compare the output of the last run() of cell `xi` with the serial
  /// reference. Returns an empty string when correct, else a diagnostic.
  virtual std::string check(std::size_t xi) = 0;
};

struct Workload {
  std::string name;
  pcm::machines::MachineSpec machine;  ///< seed = the figure bench's seed.
  std::vector<double> xs;
  unsigned planes = kNoPlanes;
  /// Build the per-cell inputs for `seed`.
  std::unique_ptr<Instance> (*instantiate)(const Workload& w,
                                           std::uint64_t seed) = nullptr;
};

/// The workload called `name`, or nullptr.
const Workload* find_workload(std::string_view name);

/// All workload names, for the usage message.
std::string workload_names();

}  // namespace perfbench
