#include "machines/builder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "calibrate/calibrate.hpp"
#include "net/pattern.hpp"

namespace pcm::machines {
namespace {

TEST(MachineBuilder, RequiresANetwork) {
  EXPECT_THROW((void)MachineBuilder("x").build(), std::logic_error);
}

TEST(MachineBuilder, BuildsAMesh) {
  auto m = MachineBuilder("meshy").mesh(4, 4).barrier(10.0).build(1);
  EXPECT_EQ(m->procs(), 16);
  EXPECT_EQ(m->name(), "meshy");
  EXPECT_DOUBLE_EQ(m->barrier_cost(), 10.0);
  net::CommPattern pat(16);
  pat.add(0, 5, 4);
  m->exchange(pat);
  EXPECT_GT(m->now(), 0.0);
}

TEST(MachineBuilder, BuildsAFatTree) {
  auto m = MachineBuilder("treeish").fat_tree(32).build(2);
  EXPECT_EQ(m->procs(), 32);
}

TEST(MachineBuilder, BuildsADelta) {
  auto m = MachineBuilder("deltaish").delta(256, 16).build(3);
  EXPECT_EQ(m->procs(), 256);
  // SIMD semantics: exchange lock-steps all clocks.
  net::CommPattern pat(256);
  pat.add(0, 100, 4);
  m->exchange(pat);
  const double t = m->now();
  for (int p = 0; p < 256; ++p) EXPECT_DOUBLE_EQ(m->now(p), t);
}

TEST(MachineBuilder, DeltaRejectsAnUnwirableSize) {
  EXPECT_THROW((void)MachineBuilder("bad").delta(32).build(), std::invalid_argument);
}

TEST(MachineBuilder, ProcsReshapesAMeshToTheSquarestFactorisation) {
  for (const auto& [n, width, height] :
       {std::tuple{64, 8, 8}, std::tuple{32, 8, 4}, std::tuple{7, 7, 1}}) {
    auto m = MachineBuilder("reshaped").mesh(2, 2).procs(n).build();
    const auto& mesh = dynamic_cast<const net::MeshRouter&>(m->router());
    EXPECT_EQ(m->procs(), n);
    EXPECT_EQ(mesh.params().width, width) << n;
    EXPECT_EQ(mesh.params().height, height) << n;
  }
}

TEST(MachineBuilder, OverheadsShapeTheCalibration) {
  auto cheap = MachineBuilder("cheap")
                   .mesh(4, 4)
                   .message_overheads(5.0, 10.0)
                   .per_byte(0.01, 0.01)
                   .barrier(5.0)
                   .build(4);
  auto pricey = MachineBuilder("pricey")
                    .mesh(4, 4)
                    .message_overheads(500.0, 1500.0)
                    .per_byte(1.0, 1.0)
                    .barrier(500.0)
                    .build(4);
  calibrate::CalibrationOptions opts;
  opts.trials = 3;
  opts.fit_t_unb = false;
  opts.fit_mscat = false;
  opts.max_h = 16;
  opts.max_block = 512;
  const auto a = calibrate::calibrate(*cheap, opts);
  const auto b = calibrate::calibrate(*pricey, opts);
  EXPECT_LT(a.bsp.g, b.bsp.g / 10.0);
  EXPECT_LT(a.bpram.ell, b.bpram.ell);
}

TEST(MachineBuilder, ComputeModelIsInstalled) {
  auto m = MachineBuilder("slowcpu")
               .mesh(4, 4)
               .compute(maspar_compute())
               .build(5);
  EXPECT_DOUBLE_EQ(m->compute().alpha, maspar_compute().alpha);
  EXPECT_EQ(m->word_bytes(), 4);
}

}  // namespace
}  // namespace pcm::machines
