#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "core/registry.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "race/race.hpp"
#include "core/series.hpp"
#include "core/validation.hpp"
#include "exec/sweep.hpp"
#include "machines/machine.hpp"
#include "report/table.hpp"
#include "shard/shard.hpp"
#include "sim/stats.hpp"

// Shared scaffolding for the figure/table reproduction binaries. Every bench
// prints: the experiment banner (with the paper's headline claim), a
// fixed-width table of measured (min/mean/max over trials) vs. each model's
// prediction with relative errors, an ASCII rendering of the figure, and —
// when PCM_RESULTS_DIR is set — a CSV dump.
//
// Flags: --quick (smaller sweeps), --trials=K, --jobs=N, --seed=S, --audit
// (run with the invariant auditor on), --race (run with the superstep race
// detector on), --fault=SPEC (deterministic fault injection, e.g.
// drop:rate=0.05:seed=7), --retries=K / --cell-timeout-ms=T (per-cell
// resilience policy), --checkpoint=DIR / --resume (crash-safe journal +
// resumption), --metrics (superstep-resolved metric summary),
// --trace-out=FILE (Chrome trace-event JSON of one representative cell) and
// --shard-workers=N (run the sweep across N supervised worker *processes*
// via pcm::shard — crash-tolerant, byte-identical output; the
// PCM_PROCESS_CHAOS environment variable injects a seeded worker kill/stall
// schedule for testing the supervisor). Sweeps run through the exec engine
// (exec/sweep.hpp): one fresh machine per (x, trial) cell, seeded per cell,
// so output is bit-identical at any --jobs value — and at any
// --shard-workers value, under any schedule of worker deaths.
//
// All numeric flag values are parsed strictly (std::from_chars): trailing
// garbage, signs where they make no sense, and out-of-range values are
// usage errors, never silent wraparound.

namespace pcm::bench {

// The sweep vocabulary lives in the engine; benches keep their old names.
// (run_sweep is wrapped below so --shard-workers can reroute it.)
using exec::Predictor;
using exec::SweepSpec;
using exec::TrialContext;

struct Env {
  bool quick = false;
  int trials = 0;         ///< 0 = use the bench's default.
  int jobs = 1;           ///< Sweep workers; 0 = one per hardware thread.
  std::uint64_t seed = 0; ///< 0 = use the bench's default seed.
  int procs = 0;          ///< 0 = the platform's Table 1 machine size.
  bool audit = false;     ///< Run with the invariant auditor enabled.
  bool race = false;      ///< Run with the superstep race detector enabled.
  std::string fault;        ///< The --fault spec as given (empty = none).
  int retries = 0;          ///< Extra attempts per failing cell.
  double cell_timeout_ms = 0.0;  ///< Wall-clock budget per attempt; 0 = off.
  std::string checkpoint;   ///< Journal directory (empty = no journal).
  bool resume = false;      ///< Resume from the checkpoint journal.
  bool metrics = false;     ///< Collect and print the metrics summary.
  std::string trace_out;    ///< Chrome trace-event JSON path (empty = none).
  int shard_workers = 0;    ///< Worker processes; <= 1 = in-process sweep.
};

[[noreturn]] inline void usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::cerr << argv0 << ": " << error << "\n";
  std::cerr << "usage: " << argv0
            << " [--quick] [--trials=K] [--jobs=N] [--seed=S] [--procs=P] [--audit]\n"
            << "       [--race] [--fault=SPEC] [--retries=K] [--cell-timeout-ms=T]\n"
            << "       [--checkpoint=DIR] [--resume] [--metrics] [--trace-out=FILE]\n"
            << "       [--shard-workers=N]\n"
            << "  --quick      run a smaller sweep\n"
            << "  --trials=K   trials per data point (K > 0)\n"
            << "  --jobs=N     parallel sweep workers; 0 = all hardware threads\n"
            << "  --seed=S     base seed for the deterministic per-cell streams\n"
            << "  --procs=P    simulated machine size (P > 0); default is the\n"
            << "               platform's Table 1 size (1024 MasPar, 64 others).\n"
            << "               Workload sizes scale with it where the figure's\n"
            << "               x-axis is per-processor\n"
            << "  --audit      check runtime invariants (packet conservation,\n"
            << "               occupancy leaks, clock monotonicity) as the\n"
            << "               sweep runs\n"
            << "  --race       check BSP superstep ordering (no mailbox parcel\n"
            << "               is read after a reset()) as the sweep runs\n"
            << "  --fault=SPEC inject deterministic faults; SPEC is\n"
            << "               kind[:rate=R][:severity=X][:seed=S][:from=A][:to=B]\n"
            << "               with kind one of drop, dup, dead-channel,\n"
            << "               corrupt, straggler, barrier-stall\n"
            << "  --retries=K  re-run a failing cell up to K more times\n"
            << "               (reseeded per attempt, deterministically)\n"
            << "  --cell-timeout-ms=T  cancel a cell stuck for T wall-clock ms\n"
            << "  --checkpoint=DIR     journal finished cells under DIR\n"
            << "  --resume     skip cells already in the checkpoint journal\n"
            << "  --metrics    collect superstep-resolved metrics (packets,\n"
            << "               waves, conflicts, queue peaks, barrier skew)\n"
            << "               and print the sweep summary\n"
            << "  --trace-out=FILE     write a Chrome trace-event JSON of one\n"
            << "               representative cell (largest x, trial 0);\n"
            << "               open in Perfetto or chrome://tracing\n"
            << "  --shard-workers=N    run the sweep across N supervised\n"
            << "               worker processes of --jobs threads each\n"
            << "               (crash-tolerant; output stays byte-identical\n"
            << "               to an in-process run). Workers that die are\n"
            << "               restarted with backoff and their unfinished\n"
            << "               cells reassigned; with --cell-timeout-ms=T a\n"
            << "               worker silent for (K+1)*T ms plus 1 s is killed\n"
            << "               as hung, without it none is. Set\n"
            << "               PCM_PROCESS_CHAOS=seed=S:kill=P[:stall=P]\n"
            << "               [:stall-ms=M][:max=K] to inject a seeded\n"
            << "               worker kill/stall schedule\n";
  std::exit(error.empty() ? 0 : 2);
}

namespace detail {

/// Strict whole-token numeric parse: no leading whitespace or '+', no
/// trailing garbage, range-checked by from_chars. Returns false on any of
/// those — the caller turns that into a usage error instead of accepting a
/// silently wrapped value.
template <typename T>
inline bool parse_number(std::string_view text, T* out) {
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

/// The --shard-workers value, stashed by apply_env so the run_sweep wrapper
/// below can reroute without every bench threading it through.
inline int& shard_workers() {
  static int workers = 0;
  return workers;
}

}  // namespace detail

/// Strict flag parser: unknown flags and malformed values are fatal.
inline Env parse_env(int argc, char** argv) {
  Env env;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      env.quick = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], "");
    } else if (arg.rfind("--trials=", 0) == 0) {
      if (!detail::parse_number(arg.substr(9), &env.trials) ||
          env.trials <= 0) {
        usage(argv[0], "--trials expects a positive integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!detail::parse_number(arg.substr(7), &env.jobs) || env.jobs < 0) {
        usage(argv[0], "--jobs expects a non-negative integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!detail::parse_number(arg.substr(7), &env.seed)) {
        usage(argv[0], "--seed expects an unsigned integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--procs=", 0) == 0) {
      if (!detail::parse_number(arg.substr(8), &env.procs) || env.procs <= 0) {
        usage(argv[0], "--procs expects a positive integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--fault=", 0) == 0) {
      env.fault = arg.substr(8);
      try {
        fault::set_plan(fault::parse_fault_plan(env.fault));
      } catch (const std::invalid_argument& e) {
        usage(argv[0], std::string("--fault: ") + e.what());
      }
    } else if (arg.rfind("--retries=", 0) == 0) {
      if (!detail::parse_number(arg.substr(10), &env.retries) ||
          env.retries < 0) {
        usage(argv[0],
              "--retries expects a non-negative integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--cell-timeout-ms=", 0) == 0) {
      if (!detail::parse_number(arg.substr(18), &env.cell_timeout_ms) ||
          env.cell_timeout_ms <= 0.0) {
        usage(argv[0],
              "--cell-timeout-ms expects a positive number, got '" + arg + "'");
      }
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      env.checkpoint = arg.substr(13);
      if (env.checkpoint.empty()) {
        usage(argv[0], "--checkpoint expects a directory path");
      }
    } else if (arg == "--resume") {
      env.resume = true;
    } else if (arg == "--metrics") {
      env.metrics = true;
      obs::set_enabled(true);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      env.trace_out = arg.substr(12);
      if (env.trace_out.empty()) {
        usage(argv[0], "--trace-out expects a file path");
      }
    } else if (arg.rfind("--shard-workers=", 0) == 0) {
      if (!detail::parse_number(arg.substr(16), &env.shard_workers) ||
          env.shard_workers < 0) {
        usage(argv[0],
              "--shard-workers expects a non-negative integer, got '" + arg +
                  "'");
      }
    } else if (arg == "--audit") {
      env.audit = true;
      audit::set_enabled(true);
    } else if (arg == "--race") {
      env.race = true;
      race::set_enabled(true);
    } else {
      usage(argv[0], "unknown flag '" + arg + "'");
    }
  }
  if (env.resume && env.checkpoint.empty()) {
    usage(argv[0], "--resume requires --checkpoint=DIR");
  }
  return env;
}

/// A bench's main-thread machine and the spec it was built from.
struct BenchMachine {
  machines::MachineSpec spec;
  std::unique_ptr<machines::Machine> machine;
};

/// Build the figure's machine: `platform` at --procs, seeded by --seed or
/// else the figure's own seed. A size the platform cannot wire (a MasPar
/// that is not 16 * 4^k PEs) is a usage error, exit 2.
inline BenchMachine make_machine(const char* argv0, const Env& env,
                                 machines::Platform platform,
                                 std::uint64_t figure_seed) {
  BenchMachine out{.spec = {.platform = platform,
                            .procs = env.procs,
                            .seed = env.seed != 0 ? env.seed : figure_seed},
                   .machine = nullptr};
  try {
    out.machine = machines::make_machine(out.spec);
  } catch (const std::invalid_argument& e) {
    usage(argv0, std::string("--procs: ") + e.what());
  }
  return out;
}

/// Fill the engine-facing fields of a SweepSpec from the parsed flags: the
/// per-cell machine recipe, worker count, base seed (seed also becomes the
/// calibration-machine seed, keeping the whole bench one seed family), and
/// the resilience policy (retries, attempt deadline, checkpoint journal).
inline void apply_env(SweepSpec& spec, const Env& env,
                      const machines::MachineSpec& machine) {
  spec.machine = machine;
  if (env.procs > 0) spec.machine.procs = env.procs;
  spec.jobs = env.jobs;
  spec.seed = machine.seed;
  if (env.trials > 0) spec.trials = env.trials;
  spec.max_attempts = env.retries + 1;
  spec.cell_timeout_ms = env.cell_timeout_ms;
  spec.checkpoint_dir = env.checkpoint;
  spec.resume = env.resume;
  spec.trace_out = env.trace_out;
  detail::shard_workers() = env.shard_workers;
}

/// The bench-facing sweep entry point: exec::run_sweep in-process, or the
/// supervised multi-process shard runner when --shard-workers=N (N > 1) was
/// given. Either way the result is byte-identical — that's the shard
/// layer's merge invariant — so benches call this unconditionally.
inline exec::SweepResult run_sweep(const SweepSpec& spec) {
  const int workers = detail::shard_workers();
  if (workers <= 1) return exec::run_sweep(spec);
  shard::ShardReport rep;
  exec::SweepResult result = shard::run_sharded_sweep(spec, workers, &rep);
  std::cerr << spec.experiment << ": sharded across " << rep.workers_requested
            << " workers — " << rep.workers_spawned << " spawned, "
            << rep.workers_restarted << " restarted, " << rep.workers_lost
            << " lost; " << rep.cells_reassigned << " cells reassigned, "
            << rep.cells_fallback << " run in-process\n";
  return result;
}

/// Print everything for one experiment. `scale` converts µs to the unit in
/// y_label (e.g. 1e-3 for ms).
inline void report(const core::ValidationSeries& s, double scale = 1.0,
                   bool log_x = false, bool log_y = false, int precision = 1) {
  const auto* exp = core::find_experiment(s.experiment);
  if (exp != nullptr) {
    report::banner(std::cout, exp->id + ": " + exp->title + " [" + exp->platform + "]",
                   "paper: " + exp->headline);
  } else {
    report::banner(std::cout, s.experiment);
  }
  core::print_series(std::cout, s, scale, precision);
  core::plot_series(std::cout, s, log_x, log_y);
  core::csv_series(s);
}

/// Report a full sweep result: the series as above, then the failure ledger
/// (cell-index order — deterministic across --jobs like everything else).
inline void report(const exec::SweepResult& r, double scale = 1.0,
                   bool log_x = false, bool log_y = false, int precision = 1) {
  report(r.series, scale, log_x, log_y, precision);
  if (!r.metrics.empty()) {
    obs::print_metrics(std::cout, r.metrics);
  }
  if (r.cells_resumed > 0) {
    std::cerr << r.series.experiment << ": resumed " << r.cells_resumed << "/"
              << r.cells_total << " cells from the checkpoint journal\n";
  }
  if (!r.failures.empty()) {
    std::cout << "cell failures (" << r.failures.size() << " of "
              << r.cells_total << " cells):\n";
    for (const auto& f : r.failures) {
      std::cout << "  cell " << f.cell << "  x=" << f.x << " trial=" << f.trial
                << " attempts=" << f.attempts << " [" << f.kind << "] "
                << f.message << "\n";
    }
  }
}

}  // namespace pcm::bench
