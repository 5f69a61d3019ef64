#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/plan.hpp"
#include "net/pattern.hpp"
#include "sim/rng.hpp"

// fault::Injector — turns a FaultPlan into concrete events for one machine.
//
// A Machine owns at most one Injector (created at construction when a plan
// is active) and drives it from its superstep hooks:
//
//   new_trial(t)            reset() — rewinds the event stream to
//                           Rng(plan.seed).split(machine_seed).split(t) and
//                           redraws the per-trial straggler multipliers and
//                           dead-channel mask;
//   apply_packet_faults     exchange() — decides how many copies of each
//                           message the network carries (drops, duplicates,
//                           dead channels); the machine routes the rewritten
//                           pattern and the runtime Exchange delivers each
//                           staged element that many times;
//   compute_multiplier      charge()/charge_all() — straggler slowdown;
//   barrier_stall           barrier() — transient stall in µs;
//   should_corrupt/corrupt  runtime Exchange delivery — payload bit flips.
//
// Every draw comes from the per-trial stream, and the simulators call the
// hooks in a schedule-independent order, so a plan's events are a pure
// function of (plan, machine seed, trial) — bit-identical at any --jobs.

namespace pcm::fault {

/// Cumulative event counts over the injector's lifetime (all trials).
struct FaultCounters {
  long dropped = 0;
  long duplicated = 0;
  long corrupted = 0;
  long stalls = 0;
};

class Injector {
 public:
  Injector(std::shared_ptr<const FaultPlan> plan, std::uint64_t machine_seed,
           int procs);

  [[nodiscard]] const FaultPlan& plan() const { return *plan_; }
  [[nodiscard]] const FaultCounters& counters() const { return counters_; }

  /// Start trial `t`: rewind the event stream and redraw per-trial state.
  void new_trial(long trial);

  /// Draw the packet faults for `pattern`: fills `copies` with one entry per
  /// message of pattern.messages(), in canonical order — 0 = dropped,
  /// 1 = delivered once, 2 = duplicated. Leaves `copies` empty, drawing
  /// nothing, when the plan rewrites no packets at this superstep.
  void apply_packet_faults(const net::CommPattern& pattern, long superstep,
                           std::vector<std::uint8_t>& copies);

  /// Straggler slowdown for processor p (1.0 when none applies).
  [[nodiscard]] double compute_multiplier(int p, long superstep) const;

  /// Extra stall charged to this barrier, in µs (0 when none applies).
  [[nodiscard]] double barrier_stall(long superstep);

  /// Detour factor for MasPar xnet shifts under a dead-channel plan
  /// (1.0 when none applies).
  [[nodiscard]] double xnet_multiplier(long superstep) const;

  /// Draw whether the next delivered parcel gets a payload bit flip.
  [[nodiscard]] bool should_corrupt(long superstep);
  /// Flip one uniformly random bit of `payload` (no-op when empty).
  void corrupt(std::span<unsigned char> payload);

 private:
  /// True when the plan's kind rewrites communication patterns (drop /
  /// duplicate / dead channel); timing-only and payload kinds leave every
  /// exchange's pattern alone.
  [[nodiscard]] bool packet_plane() const;

  std::shared_ptr<const FaultPlan> plan_;
  std::uint64_t machine_seed_;
  int procs_;
  sim::Rng stream_;
  std::vector<double> straggler_;  ///< Per-PE compute multiplier this trial.
  std::vector<char> dead_;         ///< Per-PE dead-channel mask this trial.
  bool any_dead_ = false;
  FaultCounters counters_;
};

}  // namespace pcm::fault
