#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "algos/bitonic.hpp"
#include "calibrate/microbench.hpp"
#include "exec/parallel_runner.hpp"
#include "exec/sweep.hpp"
#include "exec/thread_pool.hpp"
#include "test_util.hpp"

// The engine's determinism contract: run_sweep(spec) is bit-identical for
// every --jobs value, because each (x, trial) cell gets its own machine
// seeded by a pure per-cell stream split. These tests pin that contract on
// the two workload families the paper sweeps most (h-relations, bitonic
// sort), plus the engine primitives themselves.

namespace pcm {
namespace {

// ---------------------------------------------------------------- Rng::split

TEST(RngSplit, IsPureFunctionOfStateAndKey) {
  const sim::Rng parent(1234);
  auto a = parent.split(7);
  auto b = parent.split(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngSplit, DoesNotAdvanceParent) {
  sim::Rng with_splits(99);
  sim::Rng without(99);
  (void)with_splits.split(1);
  (void)with_splits.split(2);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(with_splits.next_u64(), without.next_u64());
  }
}

TEST(RngSplit, DistinctKeysYieldDistinctStreams) {
  const sim::Rng parent(5);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t key = 0; key < 256; ++key) {
    firsts.insert(parent.split(key).next_u64());
  }
  EXPECT_EQ(firsts.size(), 256u);
}

TEST(RngSplit, OrderAndCountOfOtherSplitsIrrelevant) {
  const sim::Rng parent(77);
  const auto direct = parent.split(42).next_u64();
  sim::Rng same(77);
  (void)same.split(0);
  (void)same.split(1000);
  EXPECT_EQ(same.split(42).next_u64(), direct);
}

// ------------------------------------------------------------- MachineSpec

TEST(MachineSpec, RoundTripsThroughString) {
  const machines::MachineSpec specs[] = {
      {.platform = machines::Platform::MasPar, .procs = 256, .seed = 11},
      {.platform = machines::Platform::GCel, .seed = 7},
      {.platform = machines::Platform::CM5, .procs = 16, .seed = 0},
      {.platform = machines::Platform::T800, .procs = 64, .seed = 12345},
  };
  for (const auto& spec : specs) {
    const auto text = machines::to_string(spec);
    const auto parsed = machines::parse_machine_spec(text);
    EXPECT_EQ(parsed.platform, spec.platform) << text;
    EXPECT_EQ(parsed.procs, spec.resolved_procs()) << text;
    EXPECT_EQ(parsed.seed, spec.seed) << text;
    EXPECT_EQ(machines::to_string(parsed), text);
  }
}

TEST(MachineSpec, ParsePlainPlatformUsesDefaults) {
  const auto spec = machines::parse_machine_spec("maspar");
  EXPECT_EQ(spec.platform, machines::Platform::MasPar);
  EXPECT_EQ(spec.resolved_procs(), 1024);
  EXPECT_EQ(spec.seed, 42u);
}

TEST(MachineSpec, ParseRejectsGarbage) {
  const char* bad[] = {"cray",         "cm5:frobs=3", "cm5:procs=-4",
                       "cm5:procs=12x", "cm5:seed=",   "cm5:procs"};
  for (const char* text : bad) {
    EXPECT_THROW((void)machines::parse_machine_spec(text),
                 std::invalid_argument)
        << text;
  }
}

TEST(MachineSpec, FactoryHonoursSpec) {
  const machines::MachineSpec spec{.platform = machines::Platform::GCel,
                                   .procs = 16, .seed = 3};
  auto m = machines::make_machine(spec);
  EXPECT_EQ(m->name(), "Parsytec GCel");
  EXPECT_EQ(m->procs(), 16);
  // Re-parsing the spec's string form round-trips to the same machine.
  auto again = machines::make_machine(
      machines::parse_machine_spec(machines::to_string(spec)));
  EXPECT_EQ(again->name(), m->name());
  EXPECT_EQ(again->procs(), m->procs());
}

// ------------------------------------------------------------ pool / runner

TEST(WorkStealingPool, RunsEverySubmittedTaskOnce) {
  exec::WorkStealingPool pool(4);
  constexpr int kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&hits, i] { hits[static_cast<std::size_t>(i)]++; });
  }
  pool.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkStealingPool, NestedSubmissionFromWorkers) {
  exec::WorkStealingPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.submit([&] {
      count++;
      for (int j = 0; j < 5; ++j) pool.submit([&] { count++; });
    });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 20 * 6);
}

TEST(ParallelRunner, CoversIndexSpaceAtAnyJobCount) {
  for (const int jobs : {1, 2, 8}) {
    exec::ParallelRunner runner(jobs);
    std::vector<std::atomic<int>> hits(137);
    runner.for_each(hits.size(), [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelRunner, PropagatesExceptions) {
  exec::ParallelRunner runner(4);
  EXPECT_THROW(runner.for_each(64,
                               [](std::size_t i) {
                                 if (i == 33) throw std::runtime_error("cell 33");
                               }),
               std::runtime_error);
}

TEST(ParallelRunner, ZeroJobsMeansHardware) {
  exec::ParallelRunner runner(0);
  EXPECT_GE(runner.jobs(), 1);
}

// ------------------------------------------------------------- determinism

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

exec::SweepSpec maspar_h_relation_spec(int jobs) {
  exec::SweepSpec spec;
  spec.experiment = "exec-test-h-relations";
  spec.x_label = "h";
  spec.machine = {.platform = machines::Platform::MasPar, .procs = 256,
                  .seed = 2024};
  spec.xs = {1, 2, 4, 8};
  spec.trials = 3;
  spec.jobs = jobs;
  spec.measure = [](exec::TrialContext& ctx) {
    auto& m = ctx.machine;
    return calibrate::time_pattern(
        m, calibrate::one_h_relation(m.rng(), m.procs(), static_cast<int>(ctx.x), 4),
        /*with_barrier=*/true);
  };
  return spec;
}

exec::SweepSpec gcel_bitonic_spec(int jobs) {
  exec::SweepSpec spec;
  spec.experiment = "exec-test-bitonic";
  spec.x_label = "keys per node (M)";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 16,
                  .seed = 4242};
  spec.xs = {16, 32};
  spec.trials = 2;
  spec.jobs = jobs;
  spec.measure = [](exec::TrialContext& ctx) {
    const auto keys = test::random_keys(
        static_cast<std::size_t>(ctx.x) * 16, ctx.cell_seed);
    return algos::run_bitonic(ctx.machine, keys, algos::BitonicVariant::Bpram)
        .time_per_key;
  };
  return spec;
}

TEST(RunSweep, MasParHRelationsBitIdenticalAcrossJobs) {
  const auto serial = exec::run_sweep(maspar_h_relation_spec(1));
  const auto parallel = exec::run_sweep(maspar_h_relation_spec(8));
  expect_bit_identical(serial.series, parallel.series);
  EXPECT_TRUE(serial.ok());
  // Sanity: the sweep measured something.
  for (const auto& p : serial.series.points) EXPECT_GT(p.measured.mean, 0.0);
}

TEST(RunSweep, GCelBitonicBitIdenticalAcrossJobs) {
  const auto serial = exec::run_sweep(gcel_bitonic_spec(1));
  const auto parallel = exec::run_sweep(gcel_bitonic_spec(8));
  expect_bit_identical(serial.series, parallel.series);
  for (const auto& p : serial.series.points) EXPECT_GT(p.measured.mean, 0.0);
}

TEST(RunSweep, TrialsDifferButAreSeedStable) {
  // Distinct cells get distinct seeds, so trials genuinely vary...
  const auto s = exec::run_sweep(gcel_bitonic_spec(2));
  bool any_spread = false;
  for (const auto& p : s.series.points) {
    any_spread |= p.measured.max > p.measured.min;
  }
  EXPECT_TRUE(any_spread);
  // ...while a rerun with the same spec reproduces everything exactly.
  const auto again = exec::run_sweep(gcel_bitonic_spec(4));
  expect_bit_identical(s.series, again.series);
}

// -------------------------------------------------------------- resilience

/// A tiny sweep where measure() throws on chosen cells: trial 1 of x = 2
/// always fails, everything else returns a pure function of the cell.
exec::SweepSpec poisoned_spec(int jobs) {
  exec::SweepSpec spec;
  spec.experiment = "exec-test-poisoned";
  spec.x_label = "x";
  spec.machine = {.platform = machines::Platform::GCel, .procs = 4,
                  .seed = 99};
  spec.xs = {1, 2, 3};
  spec.trials = 2;
  spec.jobs = jobs;
  spec.measure = [](exec::TrialContext& ctx) {
    if (ctx.x == 2.0 && ctx.trial == 1) {
      throw std::runtime_error("poisoned cell");
    }
    return ctx.x * 10.0 + ctx.trial;
  };
  return spec;
}

TEST(RunSweep, PoisonedCellDoesNotKillTheSweep) {
  const auto r = exec::run_sweep(poisoned_spec(4));
  EXPECT_FALSE(r.ok());
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].x, 2.0);
  EXPECT_EQ(r.failures[0].trial, 1);
  EXPECT_EQ(r.failures[0].kind, "exception");
  EXPECT_EQ(r.failures[0].message, "poisoned cell");
  // Surviving cells are all present: x=2 keeps its healthy trial, the other
  // x values keep both.
  ASSERT_EQ(r.series.points.size(), 3u);
  EXPECT_EQ(r.series.points[0].measured.n, 2u);
  EXPECT_EQ(r.series.points[1].measured.n, 1u);
  EXPECT_EQ(r.series.points[1].measured.mean, 20.0);
  EXPECT_EQ(r.series.points[2].measured.n, 2u);
}

TEST(RunSweep, FailureLedgerIsBitIdenticalAcrossJobs) {
  const auto serial = exec::run_sweep(poisoned_spec(1));
  const auto parallel = exec::run_sweep(poisoned_spec(8));
  expect_bit_identical(serial.series, parallel.series);
  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (std::size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].cell, parallel.failures[i].cell);
    EXPECT_EQ(serial.failures[i].kind, parallel.failures[i].kind);
    EXPECT_EQ(serial.failures[i].message, parallel.failures[i].message);
    EXPECT_EQ(serial.failures[i].attempts, parallel.failures[i].attempts);
  }
}

TEST(RunSweep, RetriesAreBoundedAndCounted) {
  auto spec = poisoned_spec(2);
  spec.max_attempts = 3;
  const auto r = exec::run_sweep(spec);
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures[0].attempts, 3);
}

TEST(RunSweep, RetrySucceedsWhenFailureIsTransient) {
  exec::SweepSpec spec = poisoned_spec(2);
  spec.max_attempts = 2;
  // Fail only on the first attempt of every cell; the retry (attempt 1)
  // succeeds, so the sweep ends clean with attempts recorded per cell.
  spec.measure = [](exec::TrialContext& ctx) {
    if (ctx.attempt == 0) throw std::runtime_error("transient");
    return ctx.x;
  };
  const auto r = exec::run_sweep(spec);
  EXPECT_TRUE(r.ok()) << (r.failures.empty() ? "" : r.failures[0].message);
  for (const auto& p : r.series.points) EXPECT_EQ(p.measured.n, 2u);
}

TEST(ParallelRunner, CollectIsolatesAndIndexesExceptions) {
  exec::ParallelRunner runner(4);
  const auto errors = runner.for_each_collect(64, [](std::size_t i) {
    if (i % 13 == 0) throw std::runtime_error("bad " + std::to_string(i));
  });
  ASSERT_EQ(errors.size(), 64u);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(errors[i]), i % 13 == 0) << i;
  }
}

}  // namespace
}  // namespace pcm
