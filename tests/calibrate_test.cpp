#include "calibrate/calibrate.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "calibrate/microbench.hpp"
#include "predict/apsp_predict.hpp"
#include "test_util.hpp"

namespace pcm::calibrate {
namespace {

TEST(Patterns, FullHRelationIsBalanced) {
  sim::Rng rng(1);
  const auto pat = full_h_relation(rng, 64, 5, 4);
  EXPECT_EQ(pat.max_sent(), 5);
  EXPECT_EQ(pat.max_received(), 5);
  EXPECT_EQ(pat.size(), 320u);
}

TEST(Patterns, RandomDestinationRelationUnbalanced) {
  sim::Rng rng(2);
  const auto pat = random_destination_relation(rng, 64, 8, 4);
  EXPECT_EQ(pat.max_sent(), 8);
  EXPECT_GE(pat.max_received(), 8);  // typically strictly greater
  EXPECT_EQ(pat.size(), 512u);
}

TEST(Patterns, OneHRelationLoads) {
  sim::Rng rng(3);
  const auto pat = one_h_relation(rng, 1024, 16, 4);
  EXPECT_EQ(pat.size(), 1024u);
  EXPECT_EQ(pat.max_sent(), 1);
  EXPECT_EQ(pat.max_received(), 16);
}

TEST(Patterns, PartialPermutationActiveCount) {
  sim::Rng rng(4);
  const auto pat = partial_permutation(rng, 256, 32, 4);
  EXPECT_EQ(pat.size(), 32u);
  EXPECT_TRUE(pat.is_partial_permutation());
  EXPECT_LE(pat.active_processors(), 64);
  EXPECT_GE(pat.active_processors(), 33);  // senders+receivers, some overlap
}

TEST(Patterns, MultinodeScatterShape) {
  const auto pat = multinode_scatter(64, 56, 4);
  EXPECT_EQ(pat.size(), 8u * 56u);
  EXPECT_EQ(pat.max_sent(), 56);
  // Balanced across the 56 non-senders: ceil(8*56/56) = 8 each.
  EXPECT_EQ(pat.max_received(), 8);
}

TEST(Patterns, MultinodeScatterNeedsTwoPEs) {
  EXPECT_THROW((void)multinode_scatter(1, 8, 4), std::invalid_argument);
  EXPECT_EQ(multinode_scatter(2, 8, 4).size(), 8u);
}

TEST(Sweeps, OneHRelationsGrowWithH) {
  auto m = test::small_maspar();
  std::vector<int> hs{1, 4, 16};
  const auto sweep = measure(*m, hs, 5, [&](int h) {
    return one_h_relation(m->rng(), m->procs(), h, 4);
  });
  ASSERT_EQ(sweep.points.size(), 3u);
  EXPECT_LT(sweep.points[0].measured.mean, sweep.points[2].measured.mean);
  EXPECT_LE(sweep.points[0].measured.min, sweep.points[0].measured.mean);
  EXPECT_LE(sweep.points[0].measured.mean, sweep.points[0].measured.max);
}

TEST(Sweeps, PartialPermutationsGrowWithActive) {
  auto m = test::small_maspar();
  std::vector<int> actives{16, 64, 256};
  const auto sweep = measure(*m, actives, 5, [&](int a) {
    return partial_permutation(m->rng(), m->procs(), a, 4);
  });
  EXPECT_LT(sweep.points[0].measured.mean, sweep.points[2].measured.mean);
  const auto t = fit_t_unb(sweep);
  EXPECT_GT(t(256), t(16));
}

TEST(Sweeps, BlockPermutationsLinearInBytes) {
  auto m = test::small_gcel();
  std::vector<int> sizes{64, 256, 1024, 4096};
  const auto sweep = measure(*m, sizes, 3, [&](int b) {
    return block_permutation(m->rng(), m->procs(), b);
  });
  const auto fit = fit_line(sweep);
  EXPECT_GT(fit.slope, 0.0);
  EXPECT_GT(fit.intercept, 0.0);
  EXPECT_GT(fit.r2, 0.98);
}

TEST(Sweeps, HhPermutationsDriftWithoutBarriers) {
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 31});
  std::vector<int> hs{64, 1000};
  const auto unsync = run_hh_permutations(*m, hs, 4, /*barrier_every=*/0);
  const auto sync = run_hh_permutations(*m, hs, 4, /*barrier_every=*/256);
  // Per-step time must elevate without barriers and stay flat with them.
  const double unsync_rate0 = unsync.points[0].measured.mean / 64.0;
  const double unsync_rate1 = unsync.points[1].measured.mean / 1000.0;
  EXPECT_GT(unsync_rate1, 1.2 * unsync_rate0);
  const double sync_rate0 = sync.points[0].measured.mean / 64.0;
  const double sync_rate1 = sync.points[1].measured.mean / 1000.0;
  EXPECT_NEAR(sync_rate1 / sync_rate0, 1.0, 0.15);
}

TEST(Sweeps, ScatterCheaperThanFullRelationPerMessage) {
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 32});
  std::vector<int> hs{64, 256};
  const auto sc = measure(*m, hs, 3, [&](int h) {
    return multinode_scatter(m->procs(), h, 4);
  });
  const auto fr = measure(*m, hs, 3, [&](int h) {
    return full_h_relation(m->rng(), m->procs(), h, 4);
  });
  const double g_mscat = fit_line(sc).slope;
  const double g = fit_line(fr).slope;
  EXPECT_GT(g / g_mscat, 3.0);  // paper: up to 9.1
  EXPECT_LT(g / g_mscat, 12.0);
}

TEST(Calibrate, RecoversTable1ShapeOnGcel) {
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 33});
  CalibrationOptions opts;
  opts.trials = 3;
  opts.fit_t_unb = false;
  opts.max_h = 32;
  const auto params = calibrate(*m, opts);
  const auto table = models::table1::gcel();
  EXPECT_NEAR(params.bsp.g, table.bsp.g, 0.25 * table.bsp.g);
  EXPECT_NEAR(params.bpram.sigma, table.bpram.sigma, 0.35 * table.bpram.sigma);
  EXPECT_GT(params.bpram.ell, 1000.0);
  EXPECT_GT(params.ebsp.g_mscat, 0.0);
  EXPECT_LT(params.ebsp.g_mscat, params.bsp.g / 3.0);
}

TEST(Calibrate, RecoversTable1ShapeOnCm5) {
  auto m = machines::make_machine({.platform = machines::Platform::CM5, .seed = 34});
  CalibrationOptions opts;
  opts.trials = 3;
  opts.fit_t_unb = false;
  opts.fit_mscat = false;
  opts.max_h = 64;
  const auto params = calibrate(*m, opts);
  const auto table = models::table1::cm5();
  EXPECT_NEAR(params.bsp.g, table.bsp.g, 0.25 * table.bsp.g);
  EXPECT_NEAR(params.bpram.sigma, table.bpram.sigma, 0.35 * table.bpram.sigma);
}

TEST(Calibrate, OnePeMachinesSkipTheScatterSweep) {
  for (const auto platform : {machines::Platform::GCel, machines::Platform::CM5}) {
    auto m = machines::make_machine({.platform = platform, .procs = 1, .seed = 36});
    CalibrationOptions opts;
    opts.trials = 2;
    opts.max_h = 4;
    opts.max_block = 64;
    const auto params = calibrate(*m, opts);
    EXPECT_EQ(params.bsp.P, 1);
    EXPECT_EQ(params.ebsp.g_mscat, 0.0) << params.machine;
  }
}

TEST(Calibrate, MasParTUnbShape) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 35});
  std::vector<int> actives{8, 32, 128, 512, 1024};
  const auto sweep = measure(*m, actives, 5, [&](int a) {
    return partial_permutation(m->rng(), m->procs(), a, 4);
  });
  const auto t = fit_t_unb(sweep);
  // Paper anchor: 32 active PEs take ~13% of a full permutation.
  EXPECT_NEAR(t(32) / t(1024), 0.13, 0.06);
}

TEST(LocalPermutation, StaysWithinBlocks) {
  sim::Rng rng(1);
  const int locality = 32;
  const auto pat = local_permutation(rng, 1024, 512, locality, 4);
  EXPECT_EQ(pat.size(), 512u);
  EXPECT_TRUE(pat.is_partial_permutation());
  for (int p = 0; p < 1024; ++p) {
    for (const auto& m : pat.sends_of(p)) {
      EXPECT_EQ(m.src / locality, m.dst / locality);
    }
  }
}

TEST(LocalPermutation, FullyActiveCoversEveryone) {
  sim::Rng rng(2);
  const auto pat = local_permutation(rng, 1024, 1024, 32, 4);
  EXPECT_EQ(pat.size(), 1024u);
  EXPECT_EQ(pat.max_sent(), 1);
  EXPECT_EQ(pat.max_received(), 1);
}

TEST(LocalPermutation, CheaperThanGlobalOnTheMasPar) {
  // The locality effect the delta network rewards: a row-local full
  // permutation routes conflict-free, a global one does not.
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 3});
  std::vector<int> actives{1024};
  const auto local = measure(*m, actives, 6, [&](int a) {
    return local_permutation(m->rng(), m->procs(), a, 32, 4);
  });
  const auto global = measure(*m, actives, 6, [&](int a) {
    return partial_permutation(m->rng(), m->procs(), a, 4);
  });
  EXPECT_LT(local.points[0].measured.mean, 0.75 * global.points[0].measured.mean);
}

TEST(LocalPermutation, FitGrowsWithActivity) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 4});
  std::vector<int> actives{64, 256, 1024};
  const auto sweep = measure(*m, actives, 4, [&](int a) {
    return local_permutation(m->rng(), m->procs(), a, 32, 4);
  });
  const auto fit = fit_t_unb(sweep);
  EXPECT_GT(fit(1024), fit(64));
}

TEST(Calibrate, FitsLocalityCurveOnTheMasPar) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 5});
  CalibrationOptions opts;
  opts.trials = 3;
  opts.fit_mscat = false;
  opts.max_h = 16;
  opts.max_block = 512;
  const auto p = calibrate(*m, opts);
  EXPECT_EQ(p.ebsp.locality, 32);
  // Locality curve sits below the random-pattern curve at full activity.
  EXPECT_LT(p.ebsp.t_unb_local(1024), p.ebsp.t_unb(1024));
}

TEST(ApspEbspLocal, TightensTheFig12Prediction) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 6});
  CalibrationOptions opts;
  opts.trials = 4;
  opts.fit_mscat = false;
  const auto p = calibrate(*m, opts);
  const long n = 256;
  const auto& lc = m->compute();
  const double mp_bsp = predict::apsp_mp_bsp(p.bsp, lc, n);
  const double ebsp = predict::apsp_ebsp(p.ebsp, lc, n);
  const double local = predict::apsp_ebsp_local(p.ebsp, lc, n);
  EXPECT_LT(local, ebsp);
  EXPECT_LT(ebsp, mp_bsp);
}

// Bit-exact pins of the whole campaign: every fitted MachineModelParams
// field for the three paths through calibrate() (MasPar 1-h relations with
// T_unb and T_unb_local; GCel and CM-5 full h-relations with g_mscat), plus
// one mean of each sweep calibrate() does not run. Any change to a pattern
// generator, the RNG draw order or a fit shows up here as a hexfloat diff.
struct PinnedParams {
  const char* machine;
  int procs;
  int word_bytes;
  double g, L, sigma, ell, g_mscat;
  models::UnbalancedCost t_unb, t_unb_local;
  int locality;
};

void expect_pinned(machines::Platform platform, std::uint64_t seed,
                   const PinnedParams& want) {
  auto m = machines::make_machine(
      {.platform = platform, .procs = want.procs, .seed = seed});
  CalibrationOptions opts;
  opts.trials = 2;
  opts.max_h = 16;
  opts.max_block = 512;
  const auto p = calibrate(*m, opts);
  EXPECT_EQ(p.machine, want.machine);
  for (const auto* bsp : {&p.bsp, &p.ebsp.bsp}) {
    EXPECT_EQ(bsp->P, want.procs);
    EXPECT_EQ(bsp->g, want.g);
    EXPECT_EQ(bsp->L, want.L);
    EXPECT_EQ(bsp->word_bytes, want.word_bytes);
  }
  EXPECT_EQ(p.bpram.P, want.procs);
  EXPECT_EQ(p.bpram.sigma, want.sigma);
  EXPECT_EQ(p.bpram.ell, want.ell);
  EXPECT_EQ(p.ebsp.t_unb.a, want.t_unb.a);
  EXPECT_EQ(p.ebsp.t_unb.b, want.t_unb.b);
  EXPECT_EQ(p.ebsp.t_unb.c, want.t_unb.c);
  EXPECT_EQ(p.ebsp.g_mscat, want.g_mscat);
  EXPECT_EQ(p.ebsp.t_unb_local.a, want.t_unb_local.a);
  EXPECT_EQ(p.ebsp.t_unb_local.b, want.t_unb_local.b);
  EXPECT_EQ(p.ebsp.t_unb_local.c, want.t_unb_local.c);
  EXPECT_EQ(p.ebsp.locality, want.locality);
}

TEST(CalibratePinned, MasPar256OneHPath) {
  expect_pinned(machines::Platform::MasPar, 1301,
                {.machine = "MasPar MP-1",
                 .procs = 256,
                 .word_bytes = 4,
                 .g = 0x1.c6171f6171f4cp+4,
                 .L = 0x1.1de6666666665p+10,
                 .sigma = 0x1.776bdbc18e3f6p+6,
                 .ell = 0x1.574092b8ee6b5p+9,
                 .g_mscat = 0x1.d1390d7883889p+5,
                 .t_unb = {0x1.0a9c323d969f4p+1, 0x1.e894968c8805p+4,
                           0x1.1b4793efa216p+6},
                 .t_unb_local = {0x1.15cb11fd5ea55p+1, -0x1.059b25d3efc1ep+2,
                                 0x1.7372afbf46768p+6},
                 .locality = 16});
}

TEST(CalibratePinned, GCel16FullHPath) {
  // Two active-PE points (8, 16) are too few for the sqrt-polynomial fits,
  // so both T_unb curves stay zero.
  expect_pinned(machines::Platform::GCel, 1302,
                {.machine = "Parsytec GCel",
                 .procs = 16,
                 .word_bytes = 4,
                 .g = 0x1.17c1a843eca83p+12,
                 .L = 0x1.f5aa9317ce8d1p+11,
                 .sigma = 0x1.c5a3fb3a4333fp+2,
                 .ell = 0x1.0c1872472159cp+13,
                 .g_mscat = 0x1.5472877f009ccp+10,
                 .t_unb = {0.0, 0.0, 0.0},
                 .t_unb_local = {0.0, 0.0, 0.0},
                 .locality = 4});
}

TEST(CalibratePinned, Cm564FullHPath) {
  expect_pinned(machines::Platform::CM5, 1303,
                {.machine = "TMC CM-5",
                 .procs = 64,
                 .word_bytes = 8,
                 .g = 0x1.1f87ecc7dc00bp+3,
                 .L = 0x1.84b7c26407756p+5,
                 .sigma = 0x1.60a77b62f7aap-2,
                 .ell = 0x1.684771ec76fep+6,
                 .g_mscat = 0x1.1cf3435d5a05fp+3,
                 .t_unb = {0x1.a0ab7abbb2363p-8, -0x1.453cfe9b60b62p-5,
                           0x1.cb1cd805fde1bp+5},
                 .t_unb_local = {-0x1.77b70e78a25a6p-7, 0x1.4e2d783765db2p-3,
                                 0x1.c73dd20a1f7b5p+5},
                 .locality = 8});
}

TEST(CalibratePinned, HhAndRandomRelationMeans) {
  auto m = test::small_gcel(1304);
  const std::vector<int> hh_h{16};
  const auto hh = run_hh_permutations(*m, hh_h, 2, /*barrier_every=*/0);
  EXPECT_EQ(hh.points[0].measured.mean, 0x1.30387467782c4p+16);
  const std::vector<int> rnd_h{4};
  const auto rnd = measure(*m, rnd_h, 2, [&](int h) {
    return random_destination_relation(m->rng(), m->procs(), h, 4);
  });
  EXPECT_EQ(rnd.points[0].measured.mean, 0x1.173a875a720dcp+15);
}

}  // namespace
}  // namespace pcm::calibrate
