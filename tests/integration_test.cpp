// End-to-end reproduction checks: the paper's headline claims, verified at
// reduced scale so the whole suite stays fast. The full-scale versions live
// in bench/ (one binary per table/figure).

#include <gtest/gtest.h>

#include "algos/apsp.hpp"
#include "algos/bitonic.hpp"
#include "algos/matmul.hpp"
#include "algos/reference.hpp"
#include "calibrate/calibrate.hpp"
#include "predict/apsp_predict.hpp"
#include "predict/bitonic_predict.hpp"
#include "predict/matmul_predict.hpp"
#include "test_util.hpp"
#include "vendor/cmssl.hpp"
#include "vendor/maspar_matmul.hpp"

namespace pcm {
namespace {

// Section 5.1 / Fig 3: the MP-BSP matmul prediction lands within ~20% on the
// MasPar (the residual being the 1-1 relation overcharge).
TEST(Reproduction, MasParMatmulPredictionWithinBand) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 51});
  const int q = algos::matmul_q(*m);
  const int n = 200;
  const auto a = test::random_matrix<float>(n, 1);
  const auto b = test::random_matrix<float>(n, 2);
  const auto r = algos::run_matmul<float>(*m, a, b, n, algos::MatmulVariant::MpBsp);
  const auto pred =
      predict::matmul_mp_bsp(models::table1::maspar().bsp, m->compute(), n, q);
  const double rel = (pred - r.time) / r.time;
  EXPECT_GT(rel, 0.0);   // the model overestimates ...
  EXPECT_LT(rel, 0.25);  // ... but only mildly (paper: < 14%)
}

// Section 5.2 / Fig 8: the MP-BPRAM matmul prediction is tight.
TEST(Reproduction, MasParBpramMatmulPredictionTight) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 52});
  const int q = algos::matmul_q(*m);
  const int n = 200;
  const auto a = test::random_matrix<float>(n, 3);
  const auto b = test::random_matrix<float>(n, 4);
  const auto r = algos::run_matmul<float>(*m, a, b, n, algos::MatmulVariant::Bpram);
  const auto pred = predict::matmul_bpram(models::table1::maspar().bpram,
                                          m->compute(), n, q, 4);
  EXPECT_LT(std::abs(pred - r.time) / r.time, 0.12);  // paper: < 3%
}

// Section 5.1 / Fig 4: unstaggered BSP matmul is measurably slower than
// staggered on the CM-5, and staggered is near the prediction.
TEST(Reproduction, Cm5StaggeringEffect) {
  auto m = machines::make_machine({.platform = machines::Platform::CM5, .seed = 53});
  const int n = 256;
  const auto a = test::random_matrix<double>(n, 5);
  const auto b = test::random_matrix<double>(n, 6);
  const auto unstag =
      algos::run_matmul<double>(*m, a, b, n, algos::MatmulVariant::BspUnstaggered);
  const auto stag =
      algos::run_matmul<double>(*m, a, b, n, algos::MatmulVariant::BspStaggered);
  EXPECT_GT(unstag.time / stag.time, 1.08);  // paper: ~1.21 total
  const auto pred =
      predict::matmul_bsp(models::table1::cm5().bsp, m->compute(), n, 4);
  EXPECT_LT(std::abs(pred - stag.time) / stag.time, 0.20);
  EXPECT_GT((unstag.time - pred) / pred, 0.05);  // unstaggered above prediction
}

// Section 5.1 / Fig 5: on the MasPar the bitonic exchange pattern routes
// conflict-free, so the MP-BSP model overestimates by roughly 2x.
TEST(Reproduction, MasParBitonicModelOverestimates) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 54});
  auto keys = test::random_keys(1024 * 16, 54);
  const auto r = algos::run_bitonic(*m, keys, algos::BitonicVariant::MpBsp);
  const auto pred =
      predict::bitonic_mp_bsp(models::table1::maspar().bsp, m->compute(), 16);
  const double factor = pred / r.time;
  EXPECT_GT(factor, 1.6);
  EXPECT_LT(factor, 3.2);
}

// Section 5.1 / Fig 6: the synchronized GCel bitonic matches the BSP
// prediction closely.
TEST(Reproduction, GcelSynchronizedBitonicMatchesBsp) {
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 55});
  auto keys = test::random_keys(64 * 256, 55);
  const auto r =
      algos::run_bitonic(*m, keys, algos::BitonicVariant::BspSynchronized);
  const auto pred =
      predict::bitonic_bsp(models::table1::gcel().bsp, m->compute(), 256);
  EXPECT_LT(std::abs(pred - r.time) / r.time, 0.15);
}

// Section 5.2 / Fig 11: the MP-BPRAM bitonic prediction on the GCel nearly
// coincides with the measurement when the prediction uses parameters
// calibrated on the same machine (as the paper's did).
TEST(Reproduction, GcelBpramBitonicPredictionTight) {
  auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 56});
  calibrate::CalibrationOptions opts;
  opts.trials = 3;
  opts.fit_t_unb = false;
  opts.fit_mscat = false;
  const auto params = calibrate::calibrate(*m, opts);
  auto keys = test::random_keys(64 * 1024, 56);
  const auto r = algos::run_bitonic(*m, keys, algos::BitonicVariant::Bpram);
  const auto pred =
      predict::bitonic_bpram(params.bpram, m->compute(), 1024, 4, 64);
  EXPECT_LT(std::abs(pred - r.time) / r.time, 0.25);
}

// Section 5.3 / Figs 12-13: plain (MP-)BSP grossly overestimates APSP while
// the E-BSP refinements land close.
TEST(Reproduction, ApspUnbalancedCommunication) {
  {
    auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 57});
    const int n = 256;  // M = 8 < 32
    const auto d0 = algos::ref::random_digraph(n, 0.05, 57);
    const auto r = algos::run_apsp(*m, d0, n, algos::ApspVariant::MpBsp);
    const auto t = models::table1::maspar();
    const double mp_bsp = predict::apsp_mp_bsp(t.bsp, m->compute(), n);
    const double ebsp = predict::apsp_ebsp(t.ebsp, m->compute(), n);
    EXPECT_GT((mp_bsp - r.time) / r.time, 0.5);  // paper: +78% at N=512
    EXPECT_LT(std::abs(ebsp - r.time) / r.time,
              0.8 * std::abs(mp_bsp - r.time) / r.time);
  }
  {
    auto m = machines::make_machine({.platform = machines::Platform::GCel, .seed = 58});
    const int n = 128;
    const auto d0 = algos::ref::random_digraph(n, 0.05, 58);
    const auto r = algos::run_apsp(*m, d0, n, algos::ApspVariant::Bsp);
    const auto t = models::table1::gcel();
    const double bsp = predict::apsp_bsp(t.bsp, m->compute(), n);
    const double mscat = predict::apsp_mscat(t.ebsp, m->compute(), n);
    EXPECT_GT((bsp - r.time) / r.time, 0.3);
    EXPECT_LT(std::abs(mscat - r.time) / r.time, 0.25);
  }
}

// Section 5.3 / Fig 15: on the CM-5 the plain BSP APSP prediction is fine.
TEST(Reproduction, Cm5ApspBspAccurate) {
  auto m = machines::make_machine({.platform = machines::Platform::CM5, .seed = 59});
  const int n = 128;
  const auto d0 = algos::ref::random_digraph(n, 0.05, 59);
  const auto r = algos::run_apsp(*m, d0, n, algos::ApspVariant::Bsp);
  const double bsp =
      predict::apsp_bsp(models::table1::cm5().bsp, m->compute(), n);
  EXPECT_LT(std::abs(bsp - r.time) / r.time, 0.30);
}

// Section 7 / Fig 19: the vendor intrinsic beats the model-derived matmul on
// the MasPar, by an acceptable margin.
TEST(Reproduction, MasParVendorComparison) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 60});
  const int n = 300;
  const auto a = test::random_matrix<float>(n, 7);
  const auto b = test::random_matrix<float>(n, 8);
  const auto model = algos::run_matmul<float>(*m, a, b, n, algos::MatmulVariant::Bpram);
  const double vendor = 2.0 * n * n * n / vendor::maspar_matmul_mflops(n);
  EXPECT_LT(vendor, model.time);          // intrinsic wins
  EXPECT_LT(model.time, 2.2 * vendor);    // penalty acceptable (~35% at 700)
}

// Section 7 / Fig 20: the model-derived matmul crushes CMSSL on the CM-5.
TEST(Reproduction, Cm5VendorComparison) {
  auto m = machines::make_machine({.platform = machines::Platform::CM5, .seed = 61});
  const int n = 256;
  const auto a = test::random_matrix<double>(n, 9);
  const auto b = test::random_matrix<double>(n, 10);
  const auto model = algos::run_matmul<double>(*m, a, b, n, algos::MatmulVariant::Bpram);
  const double vendor = 2.0 * n * n * n / vendor::cmssl_mflops(n);
  EXPECT_LT(model.time, vendor);
  EXPECT_GT(model.mflops, 151.0);  // above CMSSL's ceiling
}

// Table 1 shape recovery end to end on the MasPar (g, L band).
TEST(Reproduction, MasParCalibrationBand) {
  auto m = machines::make_machine({.platform = machines::Platform::MasPar, .seed = 62});
  calibrate::CalibrationOptions opts;
  opts.trials = 3;
  opts.fit_mscat = false;
  opts.max_h = 32;
  opts.max_block = 1024;
  const auto p = calibrate::calibrate(*m, opts);
  const auto t = models::table1::maspar();
  EXPECT_NEAR(p.bsp.g, t.bsp.g, 0.5 * t.bsp.g);
  EXPECT_NEAR(p.bsp.L, t.bsp.L, 0.5 * t.bsp.L);
  EXPECT_NEAR(p.bpram.sigma, t.bpram.sigma, 0.4 * t.bpram.sigma);
}

}  // namespace
}  // namespace pcm
