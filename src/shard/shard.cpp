#include "shard/shard.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PCM_SHARD_POSIX 1
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "exec/checkpoint.hpp"
#include "exec/parallel_for.hpp"
#include "exec/progress.hpp"
#include "fault/process_chaos.hpp"
#include "obs/trace_export.hpp"

#ifdef PCM_SHARD_POSIX
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace pcm::shard {

namespace {

/// Supervisor-side metric ids (registered here, in a .cpp, per the
/// metric-in-header rule).
struct ShardMetricIds {
  obs::MetricId spawned;
  obs::MetricId restarted;
  obs::MetricId lost;
  obs::MetricId reassigned;
  obs::MetricId fallback;
  obs::MetricId heartbeat_gap_ms;
};

const ShardMetricIds& shard_metric_ids() {
  static const ShardMetricIds ids = [] {
    ShardMetricIds m;
    m.spawned =
        obs::register_metric("shard.workers_spawned", obs::MetricKind::Counter);
    m.restarted = obs::register_metric("shard.workers_restarted",
                                       obs::MetricKind::Counter);
    m.lost =
        obs::register_metric("shard.workers_lost", obs::MetricKind::Counter);
    m.reassigned = obs::register_metric("shard.cells_reassigned",
                                        obs::MetricKind::Counter);
    m.fallback = obs::register_metric("shard.cells_fallback",
                                      obs::MetricKind::Counter);
    m.heartbeat_gap_ms = obs::register_metric("shard.heartbeat_gap_ms",
                                              obs::MetricKind::Histogram);
    return m;
  }();
  return ids;
}

using exec::detail::CellState;

/// The single-process path: no sharding possible or requested. Still fills
/// the report so callers can print one unconditionally.
exec::SweepResult degrade_to_run_sweep(const exec::SweepSpec& spec,
                                       ShardReport* report) {
  if (report != nullptr) *report = ShardReport{};
  return exec::run_sweep(spec);
}

#ifdef PCM_SHARD_POSIX

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Everything a worker incarnation needs; built by the supervisor before
/// fork() and consumed on the child side. Lives on the supervisor stack —
/// fork() snapshots it.
struct WorkerJob {
  const exec::SweepSpec* spec = nullptr;
  std::string dir;     ///< Journal directory (real or temporary).
  std::string header;  ///< Sweep identity header.
  int shard = 0;
  int worker_jobs = 1;
  std::vector<std::size_t> cells;  ///< This shard's full assignment.
  int hb_fd = -1;                  ///< Write end of the heartbeat pipe.
  fault::ChaosDecision chaos;     ///< This incarnation's injected fate.
};

/// The child side. Never returns; exits via _exit() (a crash-chaos child
/// via SIGKILL) so inherited destructors — the supervisor's streams,
/// journals — never run in the child.
[[noreturn]] void worker_main(const WorkerJob& job) {
  try {
    // Resuming the shard journal is what makes restarts monotone: cells a
    // previous incarnation journalled are skipped, not re-run.
    exec::CheckpointJournal journal(job.dir, job.spec->experiment, job.header,
                                    /*resume=*/true,
                                    ".shard-" + std::to_string(job.shard));
    std::vector<std::size_t> todo;
    todo.reserve(job.cells.size());
    for (const std::size_t c : job.cells) {
      if (journal.loaded().find(c) == journal.loaded().end()) {
        todo.push_back(c);
      }
    }

    // Greet, so the supervisor's liveness clock starts from a real beat.
    (void)!::write(job.hb_fd, "hi\n", 3);
    if (job.chaos.stall) {
      // Injected stall: go silent long enough to trip the supervisor's
      // heartbeat deadline (or not — that's the plan's choice).
      ::usleep(static_cast<useconds_t>(job.chaos.stall_ms * 1000.0));
    }

    const sim::Rng root = exec::detail::seed_root(*job.spec);
    std::atomic<bool> die_after_next{job.chaos.kill};
    (void)exec::parallel_for(job.worker_jobs, todo.size(), [&](std::size_t i) {
      const std::size_t c = todo[i];
      CellState st;
      exec::detail::run_cell(*job.spec, root, c, /*tracing=*/false,
                             /*trace_cell=*/0, nullptr, st);
      journal.append(exec::detail::journal_entry_of(c, st));
      char line[64];
      const int n = std::snprintf(line, sizeof line, "hb %zu\n", c);
      // A write() under PIPE_BUF is atomic, so hb lines from worker threads
      // never interleave. EPIPE (supervisor gone) just kills us — orphaned
      // workers must not outlive their supervisor.
      (void)!::write(job.hb_fd, line, static_cast<std::size_t>(n));
      if (die_after_next.exchange(false)) {
        // Injected crash — strictly after one journalled cell, so every
        // incarnation advances the sweep and chaos runs terminate.
        ::kill(::getpid(), SIGKILL);
      }
    });
    // Cells whose engine plumbing threw (journal I/O, bad_alloc) are simply
    // missing from the journal; the supervisor's restart or fallback picks
    // them up. Exit code 0 still means "my journal says what I did".
  } catch (...) {  // pcm-lint:allow(bare-catch)
    // Journal open failed or similar: nothing to report in-process — the
    // nonzero exit code IS the report, and the supervisor restarts us.
    _exit(3);
  }
  _exit(0);
}

enum class ShardPhase { NeedsSpawn, Running, Finished, Abandoned };

struct ShardSlot {
  std::vector<std::size_t> cells;  ///< Full assignment (never shrinks).
  ShardPhase phase = ShardPhase::NeedsSpawn;
  pid_t pid = -1;
  int pipe_fd = -1;          ///< Supervisor's read end; -1 when closed.
  std::string buf;           ///< Partial heartbeat line.
  Clock::time_point last_beat;
  Clock::time_point next_spawn;    ///< Backoff deadline for NeedsSpawn.
  int restarts = 0;
  int spawn_failures = 0;
  std::size_t beats = 0;     ///< Cells heartbeated across incarnations.
  bool stall_killed = false; ///< We SIGKILLed it for a heartbeat gap.
};

/// Merge one read-only journal file into the state vector (only cells not
/// already settled; journals never disagree on a cell because assignments
/// are disjoint and run_cell is a pure function of (spec, cell)).
void merge_journal_file(const std::string& path, const std::string& header,
                        std::vector<CellState>& state, std::size_t* merged) {
  const exec::JournalLoad load = exec::read_journal(path, header);
  if (!load.header_matches) return;
  exec::detail::warn_corrupt_lines(path, load.corrupt_lines);
  for (const auto& [cell, e] : load.entries) {
    if (cell >= state.size() || state[cell].done) continue;
    state[cell] = exec::detail::state_from_entry(e);
    if (merged != nullptr) ++*merged;
  }
}

/// All `.shard-K` siblings of the base journal, in any K order.
std::vector<std::filesystem::path> shard_siblings(const std::string& base) {
  std::vector<std::filesystem::path> out;
  const std::filesystem::path basep(base);
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(basep.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(basep.filename().string() + ".shard-", 0) == 0) {
      out.push_back(entry.path());
    }
  }
  return out;
}

exec::SweepResult run_sharded_posix(const exec::SweepSpec& spec,
                                    const ShardOptions& opts,
                                    ShardReport* report_out) {
  ShardReport report;
  obs::Metrics sup_metrics;
  sup_metrics.set_on(true);
  const ShardMetricIds& ids = shard_metric_ids();

  exec::SweepResult out;
  out.series.experiment = spec.experiment;
  out.series.x_label = spec.x_label;
  out.series.y_label = spec.y_label;

  const std::size_t trials = spec.resolved_trials();
  const std::size_t cells = spec.cell_count();
  out.cells_total = cells;
  const std::string header = exec::detail::journal_header(spec);

  // Journals are the coordination substrate, so sharding always has a
  // directory: the configured one, or a throwaway when checkpointing is
  // off (removed after the merge — no persistence was asked for).
  std::string dir = spec.checkpoint_dir;
  bool temp_dir = false;
  if (dir.empty()) {
    char tmpl[] = "/tmp/pcm-shard-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    if (made == nullptr) return degrade_to_run_sweep(spec, report_out);
    dir = made;
    temp_dir = true;
  }
  const std::string base = exec::journal_path(dir, spec.experiment, header);

  std::vector<CellState> state(cells);

  // Resume: merge the base journal AND any shard siblings a killed
  // supervisor left behind — their cells are done, whatever the previous
  // run's worker count was. Without resume, stale siblings are just
  // deleted so this run starts clean.
  if (spec.resume) {
    std::size_t resumed = 0;
    merge_journal_file(base, header, state, &resumed);
    for (const auto& sib : shard_siblings(base)) {
      merge_journal_file(sib.string(), header, state, &resumed);
    }
    out.cells_resumed = resumed;
  }
  for (const auto& sib : shard_siblings(base)) {
    std::error_code ec;
    std::filesystem::remove(sib, ec);
  }

  // The trace cell is reserved for the supervisor: it must run with
  // observability forced on and its spans captured, which only makes sense
  // in the process that writes the trace file.
  const bool tracing = !spec.trace_out.empty() && !spec.xs.empty();
  const std::size_t trace_cell = tracing ? (spec.xs.size() - 1) * trials : 0;

  std::vector<std::size_t> pending;
  pending.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    if (!state[c].done && !(tracing && c == trace_cell)) pending.push_back(c);
  }

  const int workers = std::max(
      1, std::min<int>(opts.workers,
                       static_cast<int>(std::max<std::size_t>(
                           pending.size(), 1))));
  report.workers_requested = workers;

  // Round-robin assignment: shard k owns pending[i] with i % workers == k.
  // Interleaving keeps shards balanced when cell cost grows with x.
  std::vector<ShardSlot> shards(static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < pending.size(); ++i) {
    shards[i % static_cast<std::size_t>(workers)].cells.push_back(pending[i]);
  }
  for (ShardSlot& s : shards) {
    if (s.cells.empty()) s.phase = ShardPhase::Finished;
    s.next_spawn = Clock::now();
  }

  const auto chaos = fault::active_process_chaos();
  int spawn_ordinal = 0;
  int total_spawns = 0;

  exec::ProgressReporter progress(std::cerr, spec.experiment, pending.size());

  const auto abandon = [&](ShardSlot& s) {
    s.phase = ShardPhase::Abandoned;
    const std::size_t left = s.cells.size() - std::min(s.beats, s.cells.size());
    report.cells_fallback += left;  // refined after the journal merge
  };

  const auto spawn = [&](ShardSlot& s, int shard_index) {
    if (total_spawns >= opts.max_total_spawns) {
      abandon(s);
      return;
    }
    int fds[2];
    if (::pipe(fds) != 0) {
      if (++s.spawn_failures > opts.max_spawn_failures) abandon(s);
      return;
    }
    // Non-blocking read end: drain_pipe slurps until EAGAIN, so a beat
    // burst that lands on a buffer boundary can never wedge the supervisor.
    ::fcntl(fds[0], F_SETFL,
            ::fcntl(fds[0], F_GETFL, 0) | O_NONBLOCK);
    WorkerJob job;
    job.spec = &spec;
    job.dir = dir;
    job.header = header;
    job.shard = shard_index;
    job.worker_jobs = opts.worker_jobs;
    job.cells = s.cells;
    job.hb_fd = fds[1];
    job.chaos = chaos ? chaos->decide(spawn_ordinal) : fault::ChaosDecision{};

    // Flush stdio so the child doesn't replay buffered supervisor output.
    std::cout.flush();
    std::cerr.flush();
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      if (++s.spawn_failures > opts.max_spawn_failures) abandon(s);
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      worker_main(job);  // never returns
    }
    ::close(fds[1]);
    ++spawn_ordinal;
    ++total_spawns;
    ++report.workers_spawned;
    sup_metrics.add(ids.spawned);
    const bool is_restart = s.restarts > 0 || s.stall_killed;
    if (is_restart) {
      ++report.workers_restarted;
      sup_metrics.add(ids.restarted);
      const std::size_t left =
          s.cells.size() - std::min(s.beats, s.cells.size());
      report.cells_reassigned += left;
      sup_metrics.add(ids.reassigned, left);
    }
    s.pid = pid;
    s.pipe_fd = fds[0];
    s.buf.clear();
    s.last_beat = Clock::now();
    s.stall_killed = false;
    s.phase = ShardPhase::Running;
  };

  const auto on_death = [&](ShardSlot& s, bool clean_exit) {
    if (s.pipe_fd >= 0) {
      ::close(s.pipe_fd);
      s.pipe_fd = -1;
    }
    s.pid = -1;
    if (clean_exit) {
      s.phase = ShardPhase::Finished;
      return;
    }
    ++report.workers_lost;
    sup_metrics.add(ids.lost);
    if (++s.restarts > opts.max_restarts_per_shard ||
        total_spawns >= opts.max_total_spawns) {
      abandon(s);
      return;
    }
    const double backoff =
        std::min(opts.backoff_initial_ms * static_cast<double>(1 << std::min(
                                               s.restarts - 1, 20)),
                 opts.backoff_max_ms);
    s.phase = ShardPhase::NeedsSpawn;
    s.next_spawn = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          backoff));
  };

  const auto drain_pipe = [&](ShardSlot& s) {
    char buf[4096];
    while (true) {
      const ssize_t n = ::read(s.pipe_fd, buf, sizeof buf);
      if (n <= 0) break;  // EOF or EAGAIN — drained
      const Clock::time_point now = Clock::now();
      sup_metrics.observe(
          ids.heartbeat_gap_ms,
          static_cast<std::uint64_t>(ms_between(s.last_beat, now)));
      s.last_beat = now;
      s.buf.append(buf, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = s.buf.find('\n')) != std::string::npos) {
        const std::string line = s.buf.substr(0, nl);
        s.buf.erase(0, nl + 1);
        std::size_t cell = 0;
        if (std::sscanf(line.c_str(), "hb %zu", &cell) == 1 && cell < cells) {
          ++s.beats;
          progress.cell_done(spec.xs[cell / trials],
                             static_cast<int>(cell % trials));
        }
      }
      if (static_cast<std::size_t>(n) < sizeof buf) break;
    }
  };

  // ---- the supervision loop ------------------------------------------------
  while (true) {
    bool all_settled = true;
    const Clock::time_point now = Clock::now();
    for (std::size_t k = 0; k < shards.size(); ++k) {
      ShardSlot& s = shards[k];
      if (s.phase == ShardPhase::NeedsSpawn && now >= s.next_spawn) {
        spawn(s, static_cast<int>(k));
      }
      if (s.phase == ShardPhase::NeedsSpawn || s.phase == ShardPhase::Running) {
        all_settled = false;
      }
    }
    if (all_settled) break;

    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_shard;
    for (std::size_t k = 0; k < shards.size(); ++k) {
      if (shards[k].phase == ShardPhase::Running && shards[k].pipe_fd >= 0) {
        fds.push_back(pollfd{shards[k].pipe_fd, POLLIN, 0});
        fd_shard.push_back(k);
      }
    }
    // Wake often enough to notice heartbeat deadlines and backoff expiries
    // without busy-spinning.
    const int timeout_ms = static_cast<int>(std::clamp(
        opts.heartbeat_timeout_ms / 4.0, 5.0, 100.0));
    if (!fds.empty()) {
      (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
          drain_pipe(shards[fd_shard[i]]);
        }
      }
    } else {
      ::usleep(static_cast<useconds_t>(timeout_ms) * 1000);
    }

    // Reap every child that has exited.
    while (true) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid <= 0) break;
      for (ShardSlot& s : shards) {
        if (s.pid != pid) continue;
        if (s.pipe_fd >= 0) drain_pipe(s);  // final beats before EOF
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                           !s.stall_killed;
        on_death(s, clean);
        break;
      }
    }

    // Liveness: SIGKILL any worker whose heartbeat gap blew the deadline.
    // The kill surfaces through waitpid on the next iteration.
    const Clock::time_point after = Clock::now();
    for (ShardSlot& s : shards) {
      if (s.phase != ShardPhase::Running || s.stall_killed) continue;
      if (ms_between(s.last_beat, after) > opts.heartbeat_timeout_ms) {
        s.stall_killed = true;
        ::kill(s.pid, SIGKILL);
      }
    }
  }

  // ---- merge ---------------------------------------------------------------
  // Shard journals are the ground truth of what workers completed; beats
  // are only a live approximation (a cell journalled at the instant of a
  // kill may never have heartbeated).
  for (std::size_t k = 0; k < shards.size(); ++k) {
    merge_journal_file(base + ".shard-" + std::to_string(k), header, state,
                       nullptr);
  }

  // ---- in-process fallback (plus the reserved trace cell) ------------------
  std::optional<exec::detail::TraceCapture> capture;
  {
    std::vector<std::size_t> leftovers;
    for (std::size_t c = 0; c < cells; ++c) {
      if (!state[c].done) leftovers.push_back(c);
    }
    report.cells_fallback = leftovers.size();
    if (tracing) {
      report.cells_fallback -= state[trace_cell].done ? 0 : 1;
    }
    if (!leftovers.empty()) {
      const sim::Rng root = exec::detail::seed_root(spec);
      for (const std::size_t c : leftovers) {
        exec::detail::run_cell(spec, root, c, tracing, trace_cell, &capture,
                               state[c]);
        progress.cell_done(spec.xs[c / trials], static_cast<int>(c % trials));
      }
    }
    sup_metrics.add(ids.fallback, report.cells_fallback);
  }

  // ---- persist & clean up --------------------------------------------------
  if (!temp_dir) {
    // Fold everything into the base journal so a later --resume (or a
    // plain run_sweep) sees one authoritative file.
    exec::CheckpointJournal journal(dir, spec.experiment, header, spec.resume);
    for (std::size_t c = 0; c < cells; ++c) {
      if (state[c].done &&
          journal.loaded().find(c) == journal.loaded().end()) {
        journal.append(exec::detail::journal_entry_of(c, state[c]));
      }
    }
  }
  for (const auto& sib : shard_siblings(base)) {
    std::error_code ec;
    std::filesystem::remove(sib, ec);
  }
  if (temp_dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  exec::detail::assemble(spec, state, &out);
  if (capture) {
    obs::write_chrome_trace(spec.trace_out, capture->machine_name,
                            capture->spans);
  }

  report.metrics = sup_metrics.snapshot();
  if (report_out != nullptr) *report_out = report;
  return out;
}

#endif  // PCM_SHARD_POSIX

}  // namespace

exec::SweepResult run_sharded_sweep(const exec::SweepSpec& spec,
                                    const ShardOptions& opts,
                                    ShardReport* report) {
#ifdef PCM_SHARD_POSIX
  if (opts.workers <= 1 || spec.cell_count() == 0) {
    return degrade_to_run_sweep(spec, report);
  }
  return run_sharded_posix(spec, opts, report);
#else
  return degrade_to_run_sweep(spec, report);
#endif
}

}  // namespace pcm::shard
