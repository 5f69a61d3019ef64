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

#ifdef PCM_SHARD_POSIX
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace pcm::shard {

std::optional<double> liveness_deadline_ms(const exec::SweepSpec& spec) {
  if (spec.cell_timeout_ms <= 0.0) return std::nullopt;
  return std::max(spec.max_attempts, 1) * spec.cell_timeout_ms +
         kLivenessGraceMs;
}

namespace {

using exec::detail::CellState;

#ifdef PCM_SHARD_POSIX

using Clock = std::chrono::steady_clock;

/// How often the supervisor wakes without a heartbeat to check liveness
/// deadlines and backoff expiries.
constexpr int kPollMs = 100;
constexpr double kBackoffInitialMs = 50.0;  ///< First restart delay;
constexpr double kBackoffMaxMs = 1000.0;    ///< doubles, capped here.
constexpr int kMaxSpawnFailures = 3;  ///< pipe()/fork() failures per shard.

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
    (void)exec::parallel_for(job.spec->jobs, todo.size(), [&](std::size_t i) {
      const std::size_t c = todo[i];
      CellState st;
      exec::detail::run_cell(*job.spec, root, c, nullptr, st);
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
/// are disjoint and run_cell is a pure function of (spec, cell)), appending
/// each merged cell to the base `journal` (nullable). Returns the cells
/// merged.
std::size_t merge_journal_file(const std::string& path,
                               const std::string& header,
                               std::vector<CellState>& state,
                               exec::CheckpointJournal* journal) {
  const exec::JournalLoad load = exec::read_journal(path, header);
  if (!load.header_matches) return 0;
  exec::detail::warn_corrupt_lines(path, load.corrupt_lines);
  std::size_t merged = 0;
  for (const auto& [cell, e] : load.entries) {
    if (cell >= state.size() || state[cell].done) continue;
    state[cell] = exec::detail::state_from_entry(e);
    if (journal != nullptr) journal->append(e);
    ++merged;
  }
  return merged;
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

void remove_shard_siblings(const std::string& base) {
  for (const auto& sib : shard_siblings(base)) {
    std::error_code ec;
    std::filesystem::remove(sib, ec);
  }
}

exec::SweepResult run_sharded_posix(const exec::SweepSpec& spec,
                                    int workers_wanted, ShardReport& report) {
  exec::SweepResult out = exec::detail::empty_result(spec);
  const std::size_t trials = spec.resolved_trials();
  const std::size_t cells = out.cells_total;
  const std::string header = exec::detail::journal_header(spec);

  // Journals are the coordination substrate, so sharding always has a
  // directory: the configured one, or a throwaway when checkpointing is
  // off (removed after the merge — no persistence was asked for).
  std::string dir = spec.checkpoint_dir;
  bool temp_dir = false;
  if (dir.empty()) {
    char tmpl[] = "/tmp/pcm-shard-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    if (made == nullptr) return exec::run_sweep(spec);
    dir = made;
    temp_dir = true;
  }
  const std::string base = exec::journal_path(dir, spec.experiment, header);

  // The base journal opens exactly as in run_sweep. A resume also folds in
  // the shard siblings a killed supervisor left behind — appended to the
  // base journal first, so deleting them loses nothing. Without resume,
  // stale siblings are just deleted so this run starts clean.
  std::vector<CellState> state(cells);
  std::optional<exec::CheckpointJournal> journal;
  out.cells_resumed = exec::detail::open_journal(spec, journal, state);
  exec::CheckpointJournal* const base_journal = journal ? &*journal : nullptr;
  if (spec.resume) {
    for (const auto& sib : shard_siblings(base)) {
      out.cells_resumed +=
          merge_journal_file(sib.string(), header, state, base_journal);
    }
  }
  remove_shard_siblings(base);

  // The trace cell is left to detail::finish: it must run with
  // observability forced on and its spans captured, which only makes sense
  // in the process that writes the trace file.
  const std::optional<std::size_t> traced = exec::detail::trace_cell(spec);
  std::vector<std::size_t> pending;
  for (std::size_t c = 0; c < cells; ++c) {
    if (!state[c].done && c != traced) pending.push_back(c);
  }

  const std::size_t workers =
      std::min(static_cast<std::size_t>(workers_wanted), pending.size());
  report.workers_requested = static_cast<int>(workers);

  // Round-robin assignment: shard k owns pending[i] with i % workers == k.
  // Interleaving keeps shards balanced when cell cost grows with x.
  std::vector<ShardSlot> shards(workers);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    shards[i % workers].cells.push_back(pending[i]);
  }
  for (ShardSlot& s : shards) s.next_spawn = Clock::now();

  const std::optional<double> deadline_ms = liveness_deadline_ms(spec);
  const auto chaos = fault::active_process_chaos();
  int spawn_ordinal = 0;

  exec::ProgressReporter progress(std::cerr, spec.experiment, pending.size());

  const auto spawn = [&](ShardSlot& s, int shard_index) {
    int fds[2];
    if (::pipe(fds) != 0) {
      if (++s.spawn_failures > kMaxSpawnFailures) {
        s.phase = ShardPhase::Abandoned;
      }
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
      if (++s.spawn_failures > kMaxSpawnFailures) {
        s.phase = ShardPhase::Abandoned;
      }
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      worker_main(job);  // never returns
    }
    ::close(fds[1]);
    ++spawn_ordinal;
    ++report.workers_spawned;
    if (s.restarts > 0 || s.stall_killed) {
      ++report.workers_restarted;
      report.cells_reassigned +=
          s.cells.size() - std::min(s.beats, s.cells.size());
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
    if (++s.restarts > kMaxRestartsPerShard) {
      s.phase = ShardPhase::Abandoned;
      return;
    }
    const double backoff = std::min(
        kBackoffInitialMs * static_cast<double>(1 << (s.restarts - 1)),
        kBackoffMaxMs);
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
      s.last_beat = Clock::now();
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
    if (!fds.empty()) {
      (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollMs);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP)) != 0) {
          drain_pipe(shards[fd_shard[i]]);
        }
      }
    } else {
      ::usleep(static_cast<useconds_t>(kPollMs) * 1000);
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
    if (!deadline_ms) continue;
    const Clock::time_point after = Clock::now();
    for (ShardSlot& s : shards) {
      if (s.phase != ShardPhase::Running || s.stall_killed) continue;
      if (ms_between(s.last_beat, after) > *deadline_ms) {
        s.stall_killed = true;
        ::kill(s.pid, SIGKILL);
      }
    }
  }

  // ---- merge ---------------------------------------------------------------
  // Shard journals are the ground truth of what workers completed; beats
  // are only a live approximation (a cell journalled at the instant of a
  // kill may never have heartbeated). Once folded into the base journal
  // the shard journals are redundant.
  for (std::size_t k = 0; k < shards.size(); ++k) {
    (void)merge_journal_file(base + ".shard-" + std::to_string(k), header,
                             state, base_journal);
  }
  if (temp_dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  } else {
    remove_shard_siblings(base);
  }
  for (std::size_t c = 0; c < cells; ++c) {
    if (!state[c].done && c != traced) ++report.cells_fallback;
  }

  // ---- the one cell path: fallback cells, the trace cell, assembly ---------
  exec::detail::finish(spec, state, base_journal, &out);
  return out;
}

#endif  // PCM_SHARD_POSIX

}  // namespace

exec::SweepResult run_sharded_sweep(const exec::SweepSpec& spec, int workers,
                                    ShardReport* report) {
  ShardReport local;
  ShardReport& rep = report != nullptr ? *report : local;
  rep = ShardReport{};
#ifdef PCM_SHARD_POSIX
  if (workers > 1 && spec.cell_count() > 0) {
    return run_sharded_posix(spec, workers, rep);
  }
#endif
  return exec::run_sweep(spec);
}

}  // namespace pcm::shard
