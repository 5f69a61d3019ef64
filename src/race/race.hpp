#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>

#include "sim/env_switch.hpp"

// pcm::race — superstep happens-before race detector for simulated BSP
// programs.
//
// The paper's methodology assumes every benchmarked algorithm is a *correct*
// BSP program: a value read in superstep s+1 was delivered by the barrier
// ending superstep s (Valiant's BSP contract). A violation does not crash
// the simulator — it silently times a buggy computation, which is worse.
// `pcm::race` is the program-level complement to `pcm::audit`: audit proves
// the *machine* moved packets and clocks correctly, race proves the
// *program* read only data of its own timeline.
//
// The epoch model: `machines::Machine` counts barriers crossed
// (`superstep()`) and trials started (`trial()`, advanced by reset()). The
// pair (trial, superstep) is a happens-before epoch. Each Mailbox records
// the epoch of its delivery (runtime/mailbox.hpp), and the detector flags
// one violation:
//
//   stale-mailbox-read  consuming a Mailbox parcel after the machine was
//                       reset(): the parcel belongs to a superstep of a
//                       torn-down trial, so its closing barrier will never
//                       be crossed on the new timeline.
//
// Violations raise RaceError annotated with machine, superstep and the
// consuming PE, mirroring audit::AuditError.
//
// Run-time gate (sim/env_switch.hpp): the hooks cost one predictable branch
// while detection is off; the `--race` flag of the bench harness and pcmtool
// (or PCM_RACE=1 in the environment, or race::set_enabled) turns the checks
// on.

namespace pcm::race {

/// A violated BSP ordering rule. `machine` and `superstep` locate the
/// violation on the simulated timeline; `pe` names the processor involved.
class RaceError final : public std::exception {
 public:
  RaceError(std::string violation, int pe, std::string detail)
      : violation_(std::move(violation)), pe_(pe), detail_(std::move(detail)) {
    rebuild();
  }

  [[nodiscard]] const std::string& violation() const { return violation_; }
  [[nodiscard]] int pe() const { return pe_; }
  [[nodiscard]] const std::string& detail() const { return detail_; }
  [[nodiscard]] const std::string& machine() const { return machine_; }
  [[nodiscard]] long superstep() const { return superstep_; }

  /// Annotate with the owning machine and superstep (keeps the rest).
  void set_context(std::string machine, long superstep) {
    machine_ = std::move(machine);
    superstep_ = superstep;
    rebuild();
  }

  [[nodiscard]] const char* what() const noexcept override {
    return message_.c_str();
  }

 private:
  void rebuild() {
    message_ = "race: '" + violation_ + "' violation";
    if (!machine_.empty()) message_ += " on machine '" + machine_ + "'";
    if (superstep_ >= 0) message_ += " at superstep " + std::to_string(superstep_);
    message_ += " (pe " + std::to_string(pe_) + ")";
    if (!detail_.empty()) message_ += ": " + detail_;
  }

  std::string violation_;
  int pe_;
  std::string detail_;
  std::string machine_;
  long superstep_ = -1;
  std::string message_;
};

namespace detail {

inline sim::EnvSwitch& gate() {
  static sim::EnvSwitch on("PCM_RACE");
  return on;
}

inline std::atomic<std::uint64_t>& check_counter() {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

}  // namespace detail

/// Is race detection active right now?
inline bool enabled() { return detail::gate().on(); }

/// Toggle detection. Always returns true (kept so existing callers can
/// check it).
inline bool set_enabled(bool on) { detail::gate().set_on(on); return true; }

/// Number of individual ordering checks that have passed so far (across all
/// threads). Tests use this to prove the instrumentation actually ran.
inline std::uint64_t checks_passed() {
  return detail::check_counter().load(std::memory_order_relaxed);
}

/// Record one passed check (called by the instrumentation hooks).
inline void count_check() {
  detail::check_counter().fetch_add(1, std::memory_order_relaxed);
}

/// Raise a fully-annotated RaceError.
[[noreturn]] inline void fail(std::string violation, std::string machine,
                              long superstep, int pe, std::string detail) {
  RaceError e(std::move(violation), pe, std::move(detail));
  e.set_context(std::move(machine), superstep);
  throw e;
}

}  // namespace pcm::race
