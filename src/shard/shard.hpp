#pragma once

#include <cstddef>
#include <limits>

#include "exec/sweep.hpp"
#include "obs/metrics.hpp"

// pcm::shard — crash-tolerant multi-process sharded sweep execution.
//
// run_sharded_sweep() is a drop-in for exec::run_sweep() that partitions
// the sweep's pending cells across worker *processes* instead of threads: a
// supervisor forks one worker per shard, each worker runs its cells through
// the exact same detail::run_cell attempt loop the threaded engine uses and
// appends them to its own shard journal (`<base>.journal.shard-K`), and the
// supervisor merges the shard journals in cell order through the same
// detail::assemble. Because every stage funnels through shared engine code
// and assembly is serial in cell order, the output is byte-identical to a
// single-process `--jobs=1` run — under any worker count and any schedule
// of worker deaths. That is the merge invariant the chaos CI job asserts
// with cmp.
//
// Workers are fork()ed without exec: the measure() callback is a closure
// and cannot be rebuilt from argv in a fresh image, but it crosses fork()
// for free. The cost is the usual fork discipline — the supervisor never
// starts a thread (its fallback runs cells serially), children exit via
// _exit() so no inherited destructor runs twice, and stdio is flushed
// before each fork so buffered output is not duplicated.
//
// Supervision: each worker owns a pipe and writes one `hb <cell>` line per
// finished cell (plus a greeting at startup). The supervisor poll()s all
// pipes; a worker whose heartbeat gap exceeds the liveness deadline is
// SIGKILLed, and any death — crash, kill, nonzero exit — triggers a
// restart with exponential backoff. A restarted incarnation resumes its
// shard journal, so it skips cells its predecessors journalled: progress is
// monotone as long as each incarnation finishes at least one cell, which is
// also the guarantee the process-chaos plan preserves (a chaos-killed
// worker dies only *after* its first append). When a shard exhausts its
// restart budget — or the run exhausts its total spawn budget — the
// supervisor abandons it and runs the leftover cells in-process: graceful
// degradation down to exactly the single-process engine.
//
// Crash-tolerance composes with --resume: a killed *supervisor* leaves the
// base journal plus shard siblings behind, and the next resumed run merges
// both before assigning work, so no journalled cell ever re-runs.
//
// Requires a POSIX host (fork/poll/waitpid). Elsewhere — or with
// workers <= 1, or an empty grid — it degrades to plain run_sweep().

namespace pcm::shard {

/// Supervision policy. Defaults are production-shaped; tests shrink the
/// timeouts and budgets to provoke every path quickly.
struct ShardOptions {
  static constexpr int kNoLimit = std::numeric_limits<int>::max();

  int workers = 2;      ///< Worker processes; <= 1 degrades to run_sweep.
  int worker_jobs = 1;  ///< Threads inside each worker (the two compose).

  /// A worker silent for longer than this is presumed hung and SIGKILLed.
  /// Must comfortably exceed the worst-case cell duration (with a cell
  /// timeout configured: ~ max_attempts * cell_timeout_ms plus slack).
  double heartbeat_timeout_ms = 10000.0;

  int max_restarts_per_shard = 3;   ///< Restart budget per shard.
  double backoff_initial_ms = 50.0; ///< First restart delay; doubles per
  double backoff_max_ms = 1000.0;   ///< restart, capped here.
  int max_spawn_failures = 3;       ///< fork() failures tolerated per shard.
  int max_total_spawns = kNoLimit;  ///< Hard cap on forks for the whole run;
                                    ///< reaching it abandons remaining
                                    ///< shards to the in-process fallback.
};

/// What supervision observed — the degradation ledger of one sharded run.
/// Everything here is about *host* processes and wall-clock liveness, so it
/// is intentionally separate from SweepResult::metrics (which stays a
/// deterministic function of the sweep definition).
struct ShardReport {
  int workers_requested = 0;  ///< Shards after clamping to pending cells.
  int workers_spawned = 0;    ///< fork()s that succeeded, incl. restarts.
  int workers_restarted = 0;  ///< Spawns replacing a dead incarnation.
  int workers_lost = 0;       ///< Incarnations that died before finishing.
  std::size_t cells_reassigned = 0;  ///< Cells handed to a replacement.
  std::size_t cells_fallback = 0;    ///< Cells run in-process after their
                                     ///< shard was abandoned.
  /// Supervisor-side metrics: shard.workers_* counters mirroring the fields
  /// above plus the shard.heartbeat_gap_ms histogram.
  obs::MetricsSnapshot metrics;

  /// True when any worker was lost or any cell fell back in-process — the
  /// run completed, but not on the happy path.
  [[nodiscard]] bool degraded() const {
    return workers_lost > 0 || cells_fallback > 0;
  }
};

/// Run `spec` across `opts.workers` supervised worker processes. The
/// returned SweepResult is byte-identical to exec::run_sweep(spec) with
/// jobs=1. `report` (nullable) receives the supervision ledger.
[[nodiscard]] exec::SweepResult run_sharded_sweep(const exec::SweepSpec& spec,
                                                  const ShardOptions& opts,
                                                  ShardReport* report = nullptr);

}  // namespace pcm::shard
