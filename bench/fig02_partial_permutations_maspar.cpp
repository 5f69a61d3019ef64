// Fig 2: time taken by partial permutations as a function of the number of
// active processors on the MasPar, and the second-order fit T_unb.

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/microbench.hpp"
#include "machines/machine.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv);
  auto m = machines::make_machine({.platform = machines::Platform::MasPar,
                                   .procs = env.procs,
                                   .seed = env.seed != 0 ? env.seed : 1102});
  const int trials = env.trials > 0 ? env.trials : (env.quick ? 10 : 50);

  std::vector<int> actives{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 768, 1024};
  auto s = calibrate::measure(*m, actives, trials, [&](int a) {
    return calibrate::partial_permutation(m->rng(), m->procs(), a, 4);
  });
  const auto t_unb = calibrate::fit_t_unb(s);
  const auto paper = models::table1::maspar().ebsp.t_unb;

  s.experiment = "fig02";
  s.x_label = "active PEs";
  s.y_label = "time (µs)";
  core::PredictedSeries fitline{"T_unb fit", {}};
  core::PredictedSeries paperline{"paper T_unb", {}};
  for (const auto& p : s.points) {
    fitline.ys.push_back(t_unb(p.x));
    paperline.ys.push_back(paper(p.x));
  }
  s.predictions.push_back(std::move(fitline));
  s.predictions.push_back(std::move(paperline));

  bench::report(s, 1.0, true, false, 0);
  std::cout << "\nT_unb fit: " << report::Table::num(t_unb.a, 2) << "*P' + "
            << report::Table::num(t_unb.b, 1) << "*sqrt(P') + "
            << report::Table::num(t_unb.c, 1)
            << "   (paper: 0.84*P' + 11.8*sqrt(P') + 73.3)\n";
  std::cout << "32 active PEs take "
            << report::Table::num(100.0 * t_unb(32) / t_unb(1024), 1)
            << "% of a full permutation (paper ~13%)\n";
  return 0;
}
