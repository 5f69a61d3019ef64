#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>

#include "fault/injector.hpp"
#include "machines/local_compute.hpp"
#include "net/router.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/clockset.hpp"
#include "sim/rng.hpp"

// A simulated parallel machine: P processors with virtual clocks, a network
// router, a local-compute cost model and a barrier facility. Algorithms run
// SPMD over real data (held by the runtime layer) and account time through
// this interface:
//
//   charge(p, us)   - processor p spends `us` of local computation;
//   exchange(pat)   - one communication step: the router consumes the
//                     ordered per-sender message queues and advances the
//                     participating processors' clocks. No implicit global
//                     synchronisation on the MIMD machines;
//   barrier()       - synchronise all clocks at the makespan (plus the
//                     machine's barrier cost) and drain the network.
//
// The SIMD MasPar overrides exchange() semantics through its router (every
// step begins at the global maximum and ends in lock-step) and has a free
// barrier; the GCel and CM-5 are MIMD and genuinely drift between barriers.

namespace pcm::machines {

class Machine {
 public:
  Machine(std::string name, int procs, LocalCompute compute,
          std::unique_ptr<net::Router> router, sim::Micros barrier_cost,
          std::uint64_t seed);
  /// Virtual so instrumented wrappers (e.g. a tracing machine) may derive.
  virtual ~Machine() = default;

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  [[nodiscard]] std::string_view name() const { return name_; }
  [[nodiscard]] int procs() const { return clocks_.size(); }
  /// The machine's computational word size in bytes (the paper's w).
  [[nodiscard]] int word_bytes() const { return compute_.word_bytes; }
  [[nodiscard]] const LocalCompute& compute() const { return compute_; }
  [[nodiscard]] net::Router& router() { return *router_; }
  [[nodiscard]] const net::Router& router() const { return *router_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// The machine's observability state (pcm::obs). Off unless the plane was
  /// enabled at construction (obs::enabled()) or via set_observing().
  [[nodiscard]] obs::Metrics& metrics() { return metrics_; }
  [[nodiscard]] const obs::Metrics& metrics() const { return metrics_; }
  [[nodiscard]] const obs::SpanRecorder& spans() const { return spans_; }

  /// Turn metric and span collection on or off for this machine. The router
  /// shares the Metrics instance, so it follows the same switch.
  void set_observing(bool on) {
    metrics_.set_on(on);
    spans_.set_on(on);
  }

  /// Charge `us` microseconds of local work to processor p.
  void charge(int p, sim::Micros us);
  /// Charge the same local work to every processor (e.g. SIMD broadcast op).
  void charge_all(sim::Micros us);

  /// Execute one communication step.
  void exchange(const net::CommPattern& pattern);

  /// Barrier-synchronise all processors.
  void barrier();

  /// Makespan: the latest processor clock.
  [[nodiscard]] sim::Micros now() const { return clocks_.max(); }
  [[nodiscard]] sim::Micros now(int p) const { return clocks_.at(p); }
  [[nodiscard]] const sim::ClockSet& clocks() const { return clocks_; }

  /// Index of the current superstep (barriers completed since reset).
  /// The invariant auditor uses it to locate violations in a run.
  [[nodiscard]] long superstep() const { return superstep_; }

  /// Trials started on this machine (reset() calls since construction).
  /// (trial, superstep) is the happens-before epoch of the race detector:
  /// a reset() tears down the old trial's barrier chain, so data delivered
  /// under it is stale on the new timeline.
  [[nodiscard]] long trial() const { return trial_; }

  /// Start a fresh measurement: clocks to zero, network drained and
  /// re-randomised (per-trial biases redrawn). The RNG stream continues, so
  /// successive trials differ but the whole sequence is seed-deterministic.
  void reset();

  /// Reseed the machine's RNG (for fully independent experiment campaigns).
  void reseed(std::uint64_t seed);

  [[nodiscard]] sim::Micros barrier_cost() const { return barrier_cost_; }

  /// The fault injector, or nullptr when no fault plan was active at
  /// construction (fault::active_plan() is read once, in the constructor).
  /// The non-const overload is for the runtime Exchange, whose corruption
  /// draws advance the injector's event stream.
  [[nodiscard]] const fault::Injector* injector() const {
    return injector_.get();
  }
  [[nodiscard]] fault::Injector* injector() { return injector_.get(); }

  /// Packet faults injected into the most recent exchange(). The runtime
  /// Exchange reads this right after machine.exchange() returns to mirror
  /// drops/duplicates onto its staged payloads.
  [[nodiscard]] const fault::ExchangeFaults& last_exchange_faults() const {
    return last_faults_;
  }

  /// Register a cooperative cancellation flag (owned by the caller, may be
  /// nullptr to detach). When set, the next exchange() or barrier() throws
  /// fault::CancelledError — how the exec watchdog reclaims a hung cell.
  void set_cancel(const std::atomic<bool>* flag) { cancel_ = flag; }

 private:
  std::string name_;
  LocalCompute compute_;
  std::unique_ptr<net::Router> router_;
  sim::ClockSet clocks_;
  sim::Micros barrier_cost_;
  sim::Rng rng_;
  obs::Metrics metrics_;
  obs::SpanRecorder spans_;
  long superstep_ = 0;
  long trial_ = 0;
  std::vector<sim::Micros> audit_start_;  // audit-mode pre-route snapshot
  std::unique_ptr<fault::Injector> injector_;
  fault::ExchangeFaults last_faults_;
  const std::atomic<bool>* cancel_ = nullptr;

  /// Throw fault::CancelledError if the registered cancellation flag is set.
  void check_cancel() const;

  /// Throw an audit::AuditError annotated with this machine and the
  /// current superstep.
  [[noreturn]] void audit_fail(std::string invariant, std::string resource,
                               std::string detail) const;
  /// Rethrow a pending audit::AuditError (e.g. raised inside the router)
  /// after annotating it with this machine and the current superstep.
  [[noreturn]] void annotate_audit_error() const;
};

enum class Platform { MasPar, GCel, CM5, T800 };

[[nodiscard]] std::string_view to_string(Platform p);
/// Inverse of to_string(Platform). Throws std::invalid_argument.
[[nodiscard]] Platform parse_platform(std::string_view text);
/// The processor count the paper's Table 1 uses for the platform.
[[nodiscard]] int default_procs(Platform p);

/// A machine as a value: everything needed to (re)construct a simulator
/// instance. The experiment-execution engine builds one fresh Machine per
/// (x, trial) cell from a MachineSpec, so specs — not live Machine
/// references — are what sweep definitions carry around.
struct MachineSpec {
  Platform platform = Platform::CM5;
  int procs = 0;  ///< 0 = the platform's Table 1 default.
  std::uint64_t seed = 42;

  /// Processor count after resolving the platform default.
  [[nodiscard]] int resolved_procs() const {
    return procs > 0 ? procs : default_procs(platform);
  }

  friend bool operator==(const MachineSpec&, const MachineSpec&) = default;
};

/// Render as "platform:procs=P:seed=S" (round-trips via parse_machine_spec).
[[nodiscard]] std::string to_string(const MachineSpec& spec);
/// Parse "platform[:procs=P][:seed=S]". Throws std::invalid_argument on an
/// unknown platform, unknown field or malformed value.
[[nodiscard]] MachineSpec parse_machine_spec(std::string_view text);

/// THE factory: build a simulator instance from a spec.
std::unique_ptr<Machine> make_machine(const MachineSpec& spec);
std::unique_ptr<Machine> make_machine(Platform p, std::uint64_t seed = 42);

namespace detail {
std::unique_ptr<Machine> build_maspar(std::uint64_t seed, int procs);
std::unique_ptr<Machine> build_gcel(std::uint64_t seed, int procs);
std::unique_ptr<Machine> build_cm5(std::uint64_t seed, int procs);
std::unique_ptr<Machine> build_t800(std::uint64_t seed, int procs);
}  // namespace detail

}  // namespace pcm::machines
