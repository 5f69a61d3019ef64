#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "machines/machine.hpp"
#include "race/race.hpp"
#include "sim/check.hpp"

// Delivered data. An Exchange produces a Mailbox: per destination processor,
// the parcels it received in the order they were staged (so deterministic).
// Tags let an algorithm separate logical streams that travel in the same
// communication step.
//
// Race detection: Exchange::run() stamps the mailbox with the producing
// machine's (trial, superstep) epoch while the detector is enabled. Every
// consumption re-checks that the machine is still on the same trial — a
// parcel held across reset() belongs to a superstep whose closing barrier
// was torn down with the old timeline, so reading it is a stale read (it
// would mix a previous trial's data into the current measurement). The
// stamp holds a plain pointer; a stamped mailbox must not outlive its
// machine (every use in this library consumes the mailbox immediately).

namespace pcm::runtime {

template <typename T>
struct Parcel {
  int src = 0;
  int tag = 0;
  std::vector<T> data;
  /// Set by Exchange::run() when a fault plan flipped a bit of `data` in
  /// flight. Algorithms normally ignore it (a real machine would not know);
  /// fault-tolerance experiments and tests read it as ground truth.
  bool corrupted = false;
};

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(int procs) : by_proc_(static_cast<std::size_t>(procs)) {}

  [[nodiscard]] int procs() const { return static_cast<int>(by_proc_.size()); }

  void deliver(int dst, Parcel<T> parcel) {
    PCM_CHECK(dst >= 0 && dst < procs());
    by_proc_[static_cast<std::size_t>(dst)].push_back(std::move(parcel));
  }

  /// Stamp the delivery epoch (called by Exchange::run under --race).
  void race_stamp(const machines::Machine& m) {
    machine_ = &m;
    trial_ = m.trial();
    epoch_ = m.superstep();
  }

  /// All parcels received by processor p, in staging order.
  [[nodiscard]] std::span<const Parcel<T>> at(int p) const {
    PCM_CHECK(p >= 0 && p < procs());
    race_check_fresh(p);
    return by_proc_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] std::span<Parcel<T>> at(int p) {
    PCM_CHECK(p >= 0 && p < procs());
    race_check_fresh(p);
    return by_proc_[static_cast<std::size_t>(p)];
  }

 private:
  void race_check_fresh(int p) const {
    if (machine_ == nullptr || !race::enabled()) return;
    if (machine_->trial() != trial_) {
      race::fail("stale-mailbox-read", std::string(machine_->name()),
                 machine_->superstep(), p,
                 "parcels delivered at superstep " + std::to_string(epoch_) +
                     " of trial " + std::to_string(trial_) +
                     " consumed on trial " + std::to_string(machine_->trial()) +
                     "; their superstep's barrier was torn down by reset()");
    }
    race::count_check();
  }

  std::vector<std::vector<Parcel<T>>> by_proc_;
  const machines::Machine* machine_ = nullptr;  ///< Race stamp; may be null.
  long trial_ = -1;
  long epoch_ = -1;
};

}  // namespace pcm::runtime
