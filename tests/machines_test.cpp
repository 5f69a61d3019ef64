#include "machines/machine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "exec/sweep.hpp"
#include "net/pattern.hpp"
#include "sim/rng.hpp"
#include "test_util.hpp"

namespace pcm::machines {
namespace {

TEST(Machines, FactoriesMatchTable1Configurations) {
  auto mp = make_machine({.platform = Platform::MasPar});
  EXPECT_EQ(mp->procs(), 1024);
  EXPECT_EQ(mp->word_bytes(), 4);
  EXPECT_EQ(mp->name(), "MasPar MP-1");

  auto gc = make_machine({.platform = Platform::GCel});
  EXPECT_EQ(gc->procs(), 64);
  EXPECT_EQ(gc->word_bytes(), 4);

  auto cm = make_machine({.platform = Platform::CM5});
  EXPECT_EQ(cm->procs(), 64);
  EXPECT_EQ(cm->word_bytes(), 8);
}

TEST(Machines, MakeMachineByPlatform) {
  EXPECT_EQ(make_machine(Platform::MasPar)->name(), "MasPar MP-1");
  EXPECT_EQ(make_machine(Platform::GCel)->name(), "Parsytec GCel");
  EXPECT_EQ(make_machine(Platform::CM5)->name(), "TMC CM-5");
  EXPECT_EQ(to_string(Platform::GCel), "gcel");
}

TEST(Machines, MasParRejectsSizesTheDeltaNetworkCannotWire) {
  // 16-PE clusters under a radix-4 delta network: P = 16 * 4^k only.
  for (const int procs : {8, 32, 48, 2048}) {
    EXPECT_THROW((void)make_machine({.platform = Platform::MasPar, .procs = procs}),
                 std::invalid_argument)
        << procs;
  }
  for (const int procs : {16, 64, 1024, 4096}) {
    EXPECT_EQ(make_machine({.platform = Platform::MasPar, .procs = procs})->procs(),
              procs);
  }
}

TEST(Machines, ChargeAdvancesOneClock) {
  auto m = test::small_cm5();
  m->charge(3, 10.0);
  EXPECT_DOUBLE_EQ(m->now(3), 10.0);
  EXPECT_DOUBLE_EQ(m->now(0), 0.0);
  EXPECT_DOUBLE_EQ(m->now(), 10.0);
}

TEST(Machines, ChargeAllAdvancesEveryClock) {
  auto m = test::small_gcel();
  m->charge_all(5.0);
  for (int p = 0; p < m->procs(); ++p) EXPECT_DOUBLE_EQ(m->now(p), 5.0);
}

TEST(Machines, BarrierSynchronisesWithCost) {
  auto m = test::small_gcel();
  m->charge(0, 100.0);
  m->barrier();
  for (int p = 0; p < m->procs(); ++p) {
    EXPECT_DOUBLE_EQ(m->now(p), 100.0 + m->barrier_cost());
  }
}

TEST(Machines, MasParBarrierIsFree) {
  auto m = test::small_maspar();
  EXPECT_DOUBLE_EQ(m->barrier_cost(), 0.0);
}

TEST(Machines, ExchangeAdvancesParticipants) {
  auto m = test::small_cm5();
  net::CommPattern pat(m->procs());
  pat.add(0, 1, 8);
  m->exchange(pat);
  EXPECT_GT(m->now(1), 0.0);
  EXPECT_GT(m->now(0), 0.0);
  EXPECT_DOUBLE_EQ(m->now(5), 0.0);
}

TEST(Machines, MasParExchangeIsLockStep) {
  auto m = test::small_maspar();
  net::CommPattern pat(m->procs());
  pat.add(0, 17, 4);
  m->exchange(pat);
  const double t = m->now();
  for (int p = 0; p < m->procs(); ++p) EXPECT_DOUBLE_EQ(m->now(p), t);
}

TEST(Machines, ResetClearsClocks) {
  auto m = test::small_cm5();
  m->charge_all(50.0);
  m->reset();
  EXPECT_DOUBLE_EQ(m->now(), 0.0);
}

TEST(Machines, ResetKeepsRngStreamMoving) {
  auto m = test::small_gcel();
  const auto v1 = m->rng().next_u64();
  m->reset();
  const auto v2 = m->rng().next_u64();
  EXPECT_NE(v1, v2);
}

TEST(Machines, ReseedReproducesRuns) {
  auto m = test::small_gcel(77);
  net::CommPattern pat(m->procs());
  for (int p = 0; p < m->procs(); ++p) pat.add(p, (p + 1) % m->procs(), 4);
  m->reseed(1234);
  m->exchange(pat);
  const double t1 = m->now();
  m->reseed(1234);
  m->exchange(pat);
  EXPECT_DOUBLE_EQ(m->now(), t1);
}

TEST(Machines, TraceRecordsPhases) {
  auto m = test::small_cm5();
  m->set_observing(true);
  m->charge(0, 3.0);
  net::CommPattern pat(m->procs());
  pat.add(0, 1, 8);
  pat.add(0, 2, 8);
  m->exchange(pat);
  m->barrier();
  const auto spans = m->spans().tiled(m->now(), m->superstep());
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::Compute);
  EXPECT_DOUBLE_EQ(spans[0].duration, 3.0);
  EXPECT_EQ(spans[1].kind, obs::SpanKind::Communicate);
  EXPECT_EQ(spans[1].messages, 2u);
  EXPECT_EQ(spans[1].bytes, 16u);
  EXPECT_GT(spans[1].duration, 0.0);
  EXPECT_EQ(spans[2].kind, obs::SpanKind::Barrier);
}

TEST(Machines, EmptyExchangeIsFree) {
  auto m = test::small_cm5();
  net::CommPattern pat(m->procs());
  m->exchange(pat);
  EXPECT_DOUBLE_EQ(m->now(), 0.0);
}

TEST(Machines, SixtyFourKProcsSparseSuperstep) {
  // A 64K-PE machine whose superstep touches two processors must be usable
  // interactively: the hot loop is O(active messages), not O(P).
  const int procs = 1 << 16;
  auto m = make_machine({.platform = Platform::CM5, .procs = procs, .seed = 7});
  net::CommPattern pat(procs);
  pat.add(0, procs / 2, 8);
  pat.add(procs / 2, 0, 8);
  for (int step = 0; step < 4; ++step) {
    m->charge(0, 5.0);
    m->exchange(pat);
    m->barrier();
  }
  EXPECT_GT(m->now(), 0.0);
  EXPECT_EQ(m->superstep(), 4);
  // Non-participants sit exactly at the barrier chain's makespan.
  EXPECT_DOUBLE_EQ(m->now(procs - 1), m->now());
}

TEST(Machines, SweepAt64KProcsIsScheduleIndependent) {
  // The determinism contract at scale: a sweep over a 64K-PE machine is
  // bit-identical for every jobs value.
  auto run = [](int jobs) {
    exec::SweepSpec spec;
    spec.experiment = "scale-identity";
    spec.machine = {.platform = machines::Platform::CM5,
                    .procs = 1 << 16,
                    .seed = 2024};
    spec.xs = {1.0, 2.0};
    spec.trials = 2;
    spec.jobs = jobs;
    spec.measure = [](exec::TrialContext& ctx) {
      const int procs = ctx.machine.procs();
      sim::Rng rng(ctx.cell_seed);
      net::CommPattern pat(procs);
      const int fan = static_cast<int>(ctx.x) * 8;
      for (int i = 0; i < fan; ++i) {
        pat.add(static_cast<int>(rng.next_u64() % procs),
                static_cast<int>(rng.next_u64() % procs), 8);
      }
      for (int step = 0; step < 3; ++step) {
        ctx.machine.exchange(pat);
        ctx.machine.barrier();
      }
      return ctx.machine.now();
    };
    return exec::run_sweep(spec);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial.series.points.size(), parallel.series.points.size());
  for (std::size_t i = 0; i < serial.series.points.size(); ++i) {
    EXPECT_EQ(serial.series.points[i].measured.mean,
              parallel.series.points[i].measured.mean);
    EXPECT_EQ(serial.series.points[i].measured.stddev,
              parallel.series.points[i].measured.stddev);
  }
}

TEST(LocalComputeModels, Cm5MatmulMflopsAnchors) {
  const auto lc = cm5_compute();
  auto mflops = [&](long k, long cols) { return 2.0 * lc.matmul_rate(k, cols); };
  // 6.5 - 7.5 Mflops for square 32..256 (paper Section 4.1.1).
  for (long n : {32L, 64L, 128L, 256L}) {
    EXPECT_GE(mflops(n, n), 6.3) << n;
    EXPECT_LE(mflops(n, n), 7.9) << n;
  }
  // Drops to ~5.2 at N = 512.
  EXPECT_NEAR(mflops(512, 512), 5.2, 0.7);
  // Never exceeds the ~9 Mflops peak.
  EXPECT_LT(mflops(4096, 64), 9.0);
}

TEST(LocalComputeModels, AlphaMatchesPaper) {
  EXPECT_NEAR(cm5_compute().alpha, 0.29, 0.01);
  EXPECT_GT(maspar_compute().alpha, 25.0);  // slow 4-bit PEs
  EXPECT_LT(gcel_compute().alpha, 5.0);
}

TEST(LocalComputeModels, RadixSortFormula) {
  const auto lc = cm5_compute();
  // (b/r) * (beta*2^r + gamma*n) with b=32, r=8 -> 4 passes.
  const double expect = 4.0 * (lc.radix_beta * 256.0 + lc.radix_gamma * 1000.0);
  EXPECT_DOUBLE_EQ(lc.radix_sort_time(1000), expect);
}

TEST(LocalComputeModels, MatmulTimeMatchesRate) {
  const auto lc = gcel_compute();  // no cache model
  EXPECT_NEAR(lc.matmul_time(10, 20, 30), 10.0 * 20.0 * 30.0 * lc.alpha, 1e-6);
}

TEST(LocalComputeModels, SmallKernelPenalty) {
  const auto lc = cm5_compute();
  EXPECT_LT(lc.matmul_rate(8, 8), lc.matmul_rate(128, 128));
}

}  // namespace
}  // namespace pcm::machines
