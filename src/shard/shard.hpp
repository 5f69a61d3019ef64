#pragma once

#include <cstddef>
#include <optional>

#include "exec/sweep.hpp"

// pcm::shard — crash-tolerant multi-process sharded sweep execution.
//
// run_sharded_sweep() is a drop-in for exec::run_sweep() that partitions
// the sweep's pending cells across worker *processes* instead of threads: a
// supervisor forks one worker per shard, each worker runs its cells through
// the exact same detail::run_cell attempt loop the threaded engine uses and
// appends them to its own shard journal (`<base>.journal.shard-K`), and the
// supervisor merges the shard journals into the cell state and hands the
// rest to detail::finish, the tail run_sweep itself ends with. Because
// every stage funnels through shared engine code and assembly is serial in
// cell order, the output is byte-identical to a single-process `--jobs=1`
// run — under any worker count and any schedule of worker deaths. That is
// the merge invariant the chaos CI job asserts with cmp.
//
// Workers are fork()ed without exec: the measure() callback is a closure
// and cannot be rebuilt from argv in a fresh image, but it crosses fork()
// for free. The cost is the usual fork discipline — the supervisor starts
// no thread before its last fork (only the fallback, which follows it, runs
// spec.jobs threads), children exit via _exit() so no inherited destructor
// runs twice, and stdio is flushed before each fork so buffered output is
// not duplicated.
//
// Supervision: each worker owns a pipe and writes one `hb <cell>` line per
// finished cell (plus a greeting at startup). The supervisor poll()s all
// pipes; with a cell timeout configured, a worker whose heartbeat gap
// exceeds liveness_deadline_ms() is SIGKILLed. Without one nothing bounds a
// healthy cell, so no worker is killed for being slow, just as run_sweep
// never abandons a slow cell. Any death — crash, kill, nonzero exit —
// triggers a restart with exponential backoff. A restarted incarnation
// resumes its shard journal, so it skips cells its predecessors journalled:
// progress is monotone as long as each incarnation finishes at least one
// cell, which is also the guarantee the process-chaos plan preserves (a
// chaos-killed worker dies only *after* its first append). When a shard
// exhausts its restart or spawn-failure budget the supervisor abandons it,
// and detail::finish runs its leftover cells in-process: graceful
// degradation down to exactly the single-process engine.
//
// Crash-tolerance composes with --resume: a killed *supervisor* leaves the
// base journal plus shard siblings behind, and the next resumed run folds
// both into the base journal before assigning work, so no journalled cell
// ever re-runs.
//
// Requires a POSIX host (fork/poll/waitpid). Elsewhere — or with
// workers <= 1, or an empty grid — it degrades to plain run_sweep().

namespace pcm::shard {

/// Slack on top of a worker's worst-case cell time before it is presumed
/// hung: process start, journal I/O and machine construction, none of which
/// the per-attempt deadline covers.
inline constexpr double kLivenessGraceMs = 1000.0;
/// Restarts a shard gets before its leftover cells run in-process.
inline constexpr int kMaxRestartsPerShard = 3;

/// The longest a healthy worker can go between heartbeats:
/// max_attempts × cell_timeout_ms + kLivenessGraceMs. Empty without a cell
/// timeout — a cell may then legitimately run for any time.
[[nodiscard]] std::optional<double> liveness_deadline_ms(
    const exec::SweepSpec& spec);

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

  /// True when any worker was lost or any cell fell back in-process — the
  /// run completed, but not on the happy path.
  [[nodiscard]] bool degraded() const {
    return workers_lost > 0 || cells_fallback > 0;
  }
};

/// Run `spec` across `workers` supervised worker processes, each running
/// its cells on spec.jobs threads. The returned SweepResult is
/// byte-identical to exec::run_sweep(spec). `report` (nullable) receives
/// the supervision ledger.
[[nodiscard]] exec::SweepResult run_sharded_sweep(const exec::SweepSpec& spec,
                                                  int workers,
                                                  ShardReport* report = nullptr);

}  // namespace pcm::shard
