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
// BSP program: a value read in superstep s+1 was written before the barrier
// ending superstep s, and no two puts target the same cell within one
// superstep (Valiant's BSP contract; the Split-C split-phase semantics of
// the CM-5 codes make the same rules explicit per sync()). A violation does
// not crash the simulator — it silently times a buggy computation, which is
// worse. `pcm::race` is the program-level complement to `pcm::audit`: audit
// proves the *machine* moved packets and clocks correctly, race proves the
// *program* obeyed the superstep ordering contract.
//
// The epoch model: `machines::Machine` already counts barriers crossed
// (`superstep()`) and, new with this layer, trials started (`trial()`,
// advanced by reset()). The pair (trial, superstep) is a happens-before
// epoch: accesses in earlier epochs happen-before accesses in later ones;
// accesses inside one epoch are concurrent. Shadow state per GlobalArray
// slot (race/shadow.hpp) and a delivery stamp per Mailbox record the epoch
// of the last write/delivery, and the detector flags:
//
//   write-write         two split-phase puts/stores (or a put overlapping a
//                       local store) targeting the same global cell inside
//                       one un-synced batch — concurrent writes, value
//                       nondeterministic;
//   read-before-sync    a get() or local read of a slot with a pending put
//                       in the same batch — the read races the write that
//                       only commits at sync();
//   stale-mailbox-read  consuming a Mailbox parcel after the machine was
//                       reset(): the parcel belongs to a superstep of a
//                       torn-down trial, so its closing barrier will never
//                       be crossed on the new timeline;
//   bypass-write        a local-slice write by a PE that does not own the
//                       slot (declared via race::ScopedPe) — cross-PE data
//                       motion that bypassed the router and was never timed.
//
// Violations raise RaceError annotated with machine, superstep, the PEs
// involved and the global index, mirroring audit::AuditError.
//
// Run-time gate (sim/env_switch.hpp): the hooks cost one predictable branch
// while detection is off; the `--race` flag of the bench harness and pcmtool
// (or PCM_RACE=1 in the environment, or race::set_enabled) turns the checks
// on.

namespace pcm::race {

/// A violated BSP ordering rule. `machine` and `superstep` locate the
/// violation on the simulated timeline; `pe`/`other_pe` name the processors
/// involved (other_pe = -1 when only one side is known) and `index` the
/// global array element (-1 when the resource is not a cell).
class RaceError final : public std::exception {
 public:
  RaceError(std::string violation, int pe, int other_pe, long index,
            std::string detail)
      : violation_(std::move(violation)),
        pe_(pe),
        other_pe_(other_pe),
        index_(index),
        detail_(std::move(detail)) {
    rebuild();
  }

  [[nodiscard]] const std::string& violation() const { return violation_; }
  [[nodiscard]] int pe() const { return pe_; }
  [[nodiscard]] int other_pe() const { return other_pe_; }
  [[nodiscard]] long index() const { return index_; }
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
    message_ += " (pe " + std::to_string(pe_);
    if (other_pe_ >= 0) message_ += " vs pe " + std::to_string(other_pe_);
    if (index_ >= 0) message_ += ", global index " + std::to_string(index_);
    message_ += ")";
    if (!detail_.empty()) message_ += ": " + detail_;
  }

  std::string violation_;
  int pe_;
  int other_pe_;
  long index_;
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

/// The virtual PE the current thread is acting as (-1 = undeclared). The
/// SPMD loops of this library run every virtual PE on one host thread, so
/// ownership checks need the acting PE declared explicitly via ScopedPe.
inline int& current_pe_ref() {
  thread_local int pe = -1;
  return pe;
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

/// The virtual PE the calling thread currently acts as, or -1.
inline int current_pe() { return detail::current_pe_ref(); }

/// Declare which virtual PE the enclosed code acts as. Ownership-sensitive
/// checks (bypass-write) only fire while a PE is declared; undeclared code
/// keeps the pre-detector behaviour of trusting the caller.
class ScopedPe {
 public:
  explicit ScopedPe(int pe) : prev_(detail::current_pe_ref()) {
    detail::current_pe_ref() = pe;
  }
  ~ScopedPe() { detail::current_pe_ref() = prev_; }
  ScopedPe(const ScopedPe&) = delete;
  ScopedPe& operator=(const ScopedPe&) = delete;

 private:
  int prev_;
};

/// Raise a fully-annotated RaceError.
[[noreturn]] inline void fail(std::string violation, std::string machine,
                              long superstep, int pe, int other_pe, long index,
                              std::string detail = {}) {
  RaceError e(std::move(violation), pe, other_pe, index, std::move(detail));
  e.set_context(std::move(machine), superstep);
  throw e;
}

}  // namespace pcm::race
