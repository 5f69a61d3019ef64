#include "calibrate/calibrate.hpp"

#include <string>
#include <vector>

#include "calibrate/microbench.hpp"

namespace pcm::calibrate {

models::MachineModelParams calibrate(machines::Machine& m,
                                     CalibrationOptions opts) {
  models::MachineModelParams out;
  out.machine = std::string(m.name());
  const int procs = m.procs();
  const int w = m.word_bytes();

  // (MP-)BSP parameters: 1-h relations on the SIMD MasPar (Fig 1), full
  // h-relations on the MIMD machines (Sections 3.2/3.3).
  const bool one_h = m.name().find("MasPar") != std::string_view::npos;
  std::vector<int> hs;
  for (int h = 1; h <= opts.max_h; h *= 2) hs.push_back(h);
  const auto hsweep = measure(m, hs, opts.trials, [&](int h) {
    return one_h ? one_h_relation(m.rng(), procs, h, w)
                 : full_h_relation(m.rng(), procs, h, w);
  });
  const auto gl = fit_line(hsweep);
  out.bsp = models::BspParams{procs, gl.slope, gl.intercept, w};

  // MP-BPRAM parameters from block permutations.
  std::vector<int> blocks;
  for (int b = w * 4; b <= opts.max_block; b *= 2) blocks.push_back(b);
  const auto bsweep = measure(m, blocks, opts.trials, [&](int b) {
    return block_permutation(m.rng(), procs, b);
  });
  const auto se = fit_line(bsweep);
  out.bpram = models::BpramParams{procs, se.slope, se.intercept};

  out.ebsp.bsp = out.bsp;

  if (opts.fit_t_unb) {
    std::vector<int> actives;
    for (int a = 8; a <= procs; a *= 2) actives.push_back(a);
    const auto psweep = measure(m, actives, opts.trials, [&](int a) {
      return partial_permutation(m.rng(), procs, a, w);
    });
    out.ebsp.t_unb = fit_t_unb(psweep);

    // Extension: the locality half of E-BSP — same sweep but with every
    // message confined to a block of sqrt(P) consecutive PEs (a processor
    // grid row).
    int side = 1;
    while ((side + 1) * (side + 1) <= procs) ++side;
    if (procs % side == 0) {
      const auto lsweep = measure(m, actives, opts.trials, [&](int a) {
        return local_permutation(m.rng(), procs, a, side, w);
      });
      out.ebsp.t_unb_local = fit_t_unb(lsweep);
      out.ebsp.locality = side;
    }
  }

  if (opts.fit_mscat && procs >= 2) {
    std::vector<int> ms;
    for (int h = 8; h <= 512; h *= 2) ms.push_back(h);
    const auto msweep = measure(m, ms, opts.trials, [&](int h) {
      return multinode_scatter(procs, h, w);
    });
    out.ebsp.g_mscat = fit_line(msweep).slope;
  }

  return out;
}

}  // namespace pcm::calibrate
