#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "exec/checkpoint.hpp"
#include "exec/sweep.hpp"
#include "fault/process_chaos.hpp"
#include "obs/obs.hpp"
#include "shard/shard.hpp"

// The shard layer's merge invariant: run_sharded_sweep(spec) is
// byte-identical to exec::run_sweep(spec) — same series, same failure
// ledger, same metrics — at any worker count, under any seeded schedule of
// worker kills and stalls, and across supervisor resumption. These tests
// drive every supervision path (clean run, chaos kills, heartbeat-stall
// detection past the deadline the cell timeout implies, restart-budget
// exhaustion into the in-process fallback, a slow cell with no deadline)
// through the spec and the chaos plan alone, and assert the invariant each
// time.

namespace pcm {
namespace {

void expect_bit_identical(const core::ValidationSeries& a,
                          const core::ValidationSeries& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].x, b.points[i].x);
    EXPECT_EQ(a.points[i].measured.n, b.points[i].measured.n);
    EXPECT_EQ(a.points[i].measured.min, b.points[i].measured.min);
    EXPECT_EQ(a.points[i].measured.max, b.points[i].measured.max);
    EXPECT_EQ(a.points[i].measured.mean, b.points[i].measured.mean);
    EXPECT_EQ(a.points[i].measured.stddev, b.points[i].measured.stddev);
    EXPECT_EQ(a.points[i].measured.median, b.points[i].measured.median);
  }
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i].model, b.predictions[i].model);
    EXPECT_EQ(a.predictions[i].ys, b.predictions[i].ys);
  }
}

void expect_same_result(const exec::SweepResult& ref,
                        const exec::SweepResult& got) {
  expect_bit_identical(ref.series, got.series);
  ASSERT_EQ(ref.failures.size(), got.failures.size());
  for (std::size_t i = 0; i < ref.failures.size(); ++i) {
    EXPECT_EQ(ref.failures[i].cell, got.failures[i].cell);
    EXPECT_EQ(ref.failures[i].x, got.failures[i].x);
    EXPECT_EQ(ref.failures[i].trial, got.failures[i].trial);
    EXPECT_EQ(ref.failures[i].attempts, got.failures[i].attempts);
    EXPECT_EQ(ref.failures[i].kind, got.failures[i].kind);
    EXPECT_EQ(ref.failures[i].message, got.failures[i].message);
  }
  EXPECT_EQ(ref.metrics, got.metrics);
}

/// A cheap 12-cell grid with one deterministically poisoned cell, so every
/// comparison covers the failure ledger too. Runs real machine supersteps
/// (a barrier) so metric snapshots are non-trivial when obs is on.
exec::SweepSpec grid_spec() {
  exec::SweepSpec spec;
  spec.experiment = "shard-test-grid";
  spec.x_label = "x";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 4,
                  .seed = 99};
  spec.xs = {1, 2, 3, 4};
  spec.trials = 3;
  spec.jobs = 1;
  spec.measure = [](exec::TrialContext& ctx) {
    ctx.machine.barrier();
    if (ctx.x == 2.0 && ctx.trial == 1) {
      throw std::runtime_error("poisoned cell");
    }
    return ctx.x * 10.0 + ctx.trial;
  };
  return spec;
}

struct ChaosGuard {
  ~ChaosGuard() { fault::set_process_chaos(std::nullopt); }
};

TEST(ShardedSweep, ByteIdenticalAcrossWorkerCounts) {
  ChaosGuard off;  // make sure no ambient PCM_PROCESS_CHAOS leaks in
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());
  for (const int workers : {1, 2, 4}) {
    shard::ShardReport report;
    const auto sharded =
        shard::run_sharded_sweep(grid_spec(), workers, &report);
    expect_same_result(ref, sharded);
    if (workers > 1) {
      EXPECT_EQ(report.workers_spawned, report.workers_requested);
      EXPECT_EQ(report.workers_lost, 0);
      EXPECT_EQ(report.cells_fallback, 0u);
      EXPECT_FALSE(report.degraded());
    }
  }
}

TEST(ShardedSweep, ByteIdenticalUnderSeededKillSchedule) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());

  // The first three spawns are certain kills: each incarnation journals
  // exactly one cell, then dies mid-run. Completion must come from
  // restarts picking up where the dead worker's journal left off.
  fault::ProcessChaos chaos;
  chaos.seed = 7;
  chaos.kill_rate = 1.0;
  chaos.max_events = 3;
  fault::set_process_chaos(chaos);

  shard::ShardReport report;
  const auto sharded = shard::run_sharded_sweep(grid_spec(), 2, &report);
  expect_same_result(ref, sharded);
  EXPECT_GE(report.workers_lost, 3);
  EXPECT_GE(report.workers_restarted, 3);
  EXPECT_GE(report.cells_reassigned, 1u);
  EXPECT_EQ(report.cells_fallback, 0u);
  EXPECT_TRUE(report.degraded());
}

TEST(ShardedSweep, StalledWorkerIsKilledAndReplaced) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  // A cell timeout bounds every healthy cell, so it also bounds the
  // heartbeat gap of a healthy worker.
  auto spec = grid_spec();
  spec.cell_timeout_ms = 200.0;
  const auto deadline = shard::liveness_deadline_ms(spec);
  ASSERT_TRUE(deadline.has_value());
  EXPECT_EQ(*deadline, 200.0 + shard::kLivenessGraceMs);
  const auto ref = exec::run_sweep(spec);

  // The first spawn goes silent well past that deadline; the supervisor
  // must SIGKILL it and finish through the replacement.
  fault::ProcessChaos chaos;
  chaos.seed = 3;
  chaos.stall_rate = 1.0;
  chaos.stall_ms = *deadline + 1000.0;
  chaos.max_events = 1;
  fault::set_process_chaos(chaos);

  shard::ShardReport report;
  const auto sharded = shard::run_sharded_sweep(spec, 2, &report);
  expect_same_result(ref, sharded);
  EXPECT_GE(report.workers_lost, 1);
  EXPECT_GE(report.workers_restarted, 1);
}

TEST(ShardedSweep, SpawnBudgetExhaustionFallsBackInProcess) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());

  // Every spawn dies right after journalling its first cell, so a shard
  // finishes one cell per incarnation. Each of the two shards owns six
  // cells but may spawn only 1 + kMaxRestartsPerShard times; the cells its
  // incarnations never reach must run in-process.
  fault::ProcessChaos chaos;
  chaos.seed = 5;
  chaos.kill_rate = 1.0;
  fault::set_process_chaos(chaos);

  shard::ShardReport report;
  const auto sharded = shard::run_sharded_sweep(grid_spec(), 2, &report);
  expect_same_result(ref, sharded);
  EXPECT_EQ(report.workers_spawned, 2 * (1 + shard::kMaxRestartsPerShard));
  EXPECT_EQ(report.workers_lost, report.workers_spawned);
  EXPECT_GT(report.cells_fallback, 0u);
  EXPECT_EQ(report.cells_fallback +
                static_cast<std::size_t>(report.workers_spawned),
            grid_spec().cell_count());
  EXPECT_TRUE(report.degraded());
}

TEST(ShardedSweep, SlowCellWithoutTimeoutIsNotKilled) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const auto ref = exec::run_sweep(grid_spec());

  // No cell timeout, so no liveness deadline: a cell that runs past the
  // grace is slow, not hung, and must finish in its worker.
  auto spec = grid_spec();
  ASSERT_FALSE(shard::liveness_deadline_ms(spec).has_value());
  const auto measure = spec.measure;
  spec.measure = [measure](exec::TrialContext& ctx) {
    if (ctx.x == 4.0 && ctx.trial == 0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          shard::kLivenessGraceMs + 500.0));
    }
    return measure(ctx);
  };
  shard::ShardReport report;
  const auto sharded = shard::run_sharded_sweep(spec, 2, &report);
  expect_same_result(ref, sharded);
  EXPECT_EQ(report.workers_lost, 0);
  EXPECT_EQ(report.cells_fallback, 0u);
  EXPECT_FALSE(report.degraded());
}

TEST(ShardedSweep, MergedJournalIsResumableByBothEngines) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const std::string dir = testing::TempDir() + "pcm-shard-test-journal";

  auto spec = grid_spec();
  spec.checkpoint_dir = dir;
  const auto first = shard::run_sharded_sweep(spec, 2, nullptr);

  // The supervisor folded all shard journals into the base journal, so a
  // plain in-process --resume (and a sharded one) must skip every cell and
  // reassemble identical output without recomputing anything.
  spec.resume = true;
  spec.measure = [](exec::TrialContext&) -> double {
    throw std::logic_error("resume should not re-run any cell");
  };
  const auto resumed_inproc = exec::run_sweep(spec);
  EXPECT_EQ(resumed_inproc.cells_resumed, spec.cell_count());
  expect_same_result(first, resumed_inproc);

  const auto resumed_sharded = shard::run_sharded_sweep(spec, 2, nullptr);
  EXPECT_EQ(resumed_sharded.cells_resumed, spec.cell_count());
  expect_same_result(first, resumed_sharded);
  std::filesystem::remove_all(dir);
}

TEST(ShardedSweep, ResumeFoldsLeftoverShardJournals) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  const std::string dir = testing::TempDir() + "pcm-shard-test-siblings";
  std::filesystem::remove_all(dir);

  // A killed supervisor leaves the base journal with its header only and
  // the workers' shard journals beside it. Stage that: cells 0..5 (x = 1
  // and 2, including the poisoned cell) sit in a shard sibling.
  auto spec = grid_spec();
  spec.checkpoint_dir = dir;
  const auto ref = exec::run_sweep(spec);
  const std::string header = exec::detail::journal_header(spec);
  const auto full = exec::read_journal(
      exec::journal_path(dir, spec.experiment, header), header);
  ASSERT_EQ(full.entries.size(), spec.cell_count());
  {
    exec::CheckpointJournal base(dir, spec.experiment, header, false);
    exec::CheckpointJournal sibling(dir, spec.experiment, header, false,
                                    ".shard-1");
    for (std::size_t c = 0; c < 6; ++c) sibling.append(full.entries.at(c));
  }

  spec.resume = true;
  const auto measure = spec.measure;
  spec.measure = [measure](exec::TrialContext& ctx) {
    if (ctx.x <= 2.0) throw std::logic_error("re-ran a journalled cell");
    return measure(ctx);
  };
  const auto resumed = shard::run_sharded_sweep(spec, 2, nullptr);
  EXPECT_EQ(resumed.cells_resumed, 6u);
  expect_same_result(ref, resumed);

  // The sibling's cells now live in the base journal and the sibling is
  // gone, so a plain resume finds every cell.
  EXPECT_FALSE(std::filesystem::exists(
      exec::journal_path(dir, spec.experiment, header) + ".shard-1"));
  spec.measure = [](exec::TrialContext&) -> double {
    throw std::logic_error("resume should not re-run any cell");
  };
  const auto again = exec::run_sweep(spec);
  EXPECT_EQ(again.cells_resumed, spec.cell_count());
  expect_same_result(ref, again);
  std::filesystem::remove_all(dir);
}

TEST(ShardedSweep, MetricsSurviveTheProcessBoundary) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  obs::set_enabled(true);
  const auto ref = exec::run_sweep(grid_spec());
  const auto sharded = shard::run_sharded_sweep(grid_spec(), 4, nullptr);
  obs::set_enabled(false);
  ASSERT_FALSE(ref.metrics.empty());
  // Snapshots crossed the worker->supervisor boundary encoded in the shard
  // journals; the merged totals must still compare exactly.
  EXPECT_EQ(ref.metrics, sharded.metrics);
}

TEST(ShardedSweep, TimesOutAHungCellInAWorker) {
  ChaosGuard off;
  fault::set_process_chaos(std::nullopt);
  // One cell loops on barrier() forever; only the per-attempt deadline,
  // polled inside the worker process, gets it out.
  auto spec = grid_spec();
  spec.cell_timeout_ms = 25.0;
  spec.measure = [](exec::TrialContext& ctx) -> double {
    if (ctx.x == 3.0 && ctx.trial == 2) {
      while (true) ctx.machine.barrier();
    }
    ctx.machine.barrier();
    return ctx.x * 10.0 + ctx.trial;
  };
  const auto ref = exec::run_sweep(spec);
  shard::ShardReport report;
  const auto sharded = shard::run_sharded_sweep(spec, 2, &report);
  EXPECT_EQ(report.cells_fallback, 0u);

  ASSERT_EQ(sharded.failures.size(), 1u);
  EXPECT_EQ(sharded.failures[0].kind, "timeout");
  EXPECT_NE(sharded.failures[0].message.find("cancelled"), std::string::npos);
  // The message names the superstep the deadline struck at, which is
  // wall-clock dependent; everything else must match the threaded engine.
  expect_bit_identical(ref.series, sharded.series);
  ASSERT_EQ(ref.failures.size(), sharded.failures.size());
  for (std::size_t i = 0; i < ref.failures.size(); ++i) {
    EXPECT_EQ(ref.failures[i].cell, sharded.failures[i].cell);
    EXPECT_EQ(ref.failures[i].kind, sharded.failures[i].kind);
    EXPECT_EQ(ref.failures[i].attempts, sharded.failures[i].attempts);
  }
}

TEST(ProcessChaos, RoundTripsAndDecidesDeterministically) {
  const auto chaos = fault::parse_process_chaos(
      "seed=7:kill=0.5:stall=0.25:stall-ms=300:max=4");
  EXPECT_EQ(chaos.seed, 7u);
  EXPECT_EQ(chaos.kill_rate, 0.5);
  EXPECT_EQ(chaos.stall_rate, 0.25);
  EXPECT_EQ(chaos.stall_ms, 300.0);
  EXPECT_EQ(chaos.max_events, 4);
  EXPECT_EQ(fault::parse_process_chaos(fault::to_string(chaos)), chaos);

  // Decisions are a pure function of (plan, spawn ordinal).
  for (int ord = 0; ord < 16; ++ord) {
    const auto a = chaos.decide(ord);
    const auto b = chaos.decide(ord);
    EXPECT_EQ(a.kill, b.kill) << ord;
    EXPECT_EQ(a.stall, b.stall) << ord;
  }
  // Ordinals at or past max are always quiet.
  EXPECT_TRUE(chaos.decide(4).quiet());
  EXPECT_TRUE(chaos.decide(100).quiet());

  // kill=1 means every eligible ordinal is a kill, never a stall.
  fault::ProcessChaos certain;
  certain.kill_rate = 1.0;
  for (int ord = 0; ord < 8; ++ord) {
    EXPECT_TRUE(certain.decide(ord).kill);
    EXPECT_FALSE(certain.decide(ord).stall);
  }
}

TEST(ProcessChaos, RejectsMalformedSpecs) {
  const char* bad[] = {"seed=", "kill=1.5", "stall=-1", "frobs=3",
                       "kill=0.8:stall=0.9", "seed"};
  for (const char* text : bad) {
    EXPECT_THROW((void)fault::parse_process_chaos(text), std::invalid_argument)
        << text;
  }
}

}  // namespace
}  // namespace pcm
