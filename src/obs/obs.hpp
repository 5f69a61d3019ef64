#pragma once

#include "sim/env_switch.hpp"

// pcm::obs — the superstep-resolved observability plane.
//
// The paper's methodology is an attribution exercise: Section 5 explains
// each model's prediction error by splitting measured time into local
// computation, communication and synchronisation. The simulators must
// support the same decomposition *per superstep* — which superstep, which
// router wave, which channel was hot — both to reproduce that analysis and
// to give perf work on the engine hard numbers to cite. pcm::obs is that
// layer:
//
//   - a per-machine metrics registry (obs/metrics.hpp): counters, gauges
//     and log2-bucket histograms — packets, bytes, router waves per
//     exchange, circuit conflicts, ejection-port queue peaks, receive
//     backlogs, barrier skew — all in simulated quantities, deterministic
//     at any --jobs;
//   - a span recorder (obs/span.hpp): (machine, trial, superstep, phase)
//     spans in simulated time that tile [0, now()] exactly, so per-phase
//     durations sum to the total simulated time by construction; exported
//     as Chrome trace-event JSON (obs/trace_export.hpp, loadable in
//     Perfetto / chrome://tracing) and as CSV via report::csv;
//   - exec-level aggregation (exec/sweep.hpp): run_sweep snapshots each
//     cell's metrics and merges them in cell order into a SweepMetrics
//     summary that is bit-identical for every --jobs value.
//
// Run-time gate (sim/env_switch.hpp), like pcm::audit / pcm::race: the
// hooks cost one predictable branch while collection is off;
// `--metrics` / `--trace-out=<file>` on the bench harness and pcmtool (or
// PCM_OBS=1 in the environment, or obs::set_enabled) turn it on.

namespace pcm::obs {

namespace detail {

inline sim::EnvSwitch& gate() {
  static sim::EnvSwitch on("PCM_OBS");
  return on;
}

}  // namespace detail

/// Should newly constructed machines collect metrics and spans?
inline bool enabled() { return detail::gate().on(); }

/// Toggle collection for machines constructed afterwards. Always returns
/// true (kept so existing callers can check it).
inline bool set_enabled(bool on) { detail::gate().set_on(on); return true; }

}  // namespace pcm::obs
