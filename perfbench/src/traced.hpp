#pragma once

#include <chrono>
#include <cstdint>
#include <memory>

#include "machines/machine.hpp"

// Outside-in layer spans for the traced run. The library has no host-time
// instrumentation of its own, so the benchmark rebuilds each platform
// machine from public parts — same name, LocalCompute, barrier cost and
// router seed recipe as machines::make_machine — with the real router
// wrapped in a timing decorator. The traced run checks that these machines
// reproduce the factory machines' simulated µs bit-for-bit, which guards the
// copied construction constants against drift.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host-time spans and counts summed over every traced machine of a sweep.
struct Ledger {
  double route_s = 0;        ///< Inside Router::route.
  double drain_s = 0;        ///< Inside Router::drain.
  double canon_s = 0;        ///< Forced CommPattern::messages() before route.
  double hash_s = 0;         ///< CommPattern::hash() before route.
  double build_s = 0;        ///< Constructing the cell machines.
  double cell_s = 0;         ///< Machine build + the algos::run_* call.
  std::uint64_t route_calls = 0;
  std::uint64_t route_msgs = 0;
  std::uint64_t route_bytes = 0;
  std::uint64_t distinct = 0;  ///< Distinct pattern hashes per router.
};

/// A machine equivalent to make_machine(spec) whose router reports into
/// `ledger`. The ledger must outlive the machine.
std::unique_ptr<pcm::machines::Machine> make_traced_machine(
    const pcm::machines::MachineSpec& spec, Ledger& ledger);

}  // namespace perfbench
