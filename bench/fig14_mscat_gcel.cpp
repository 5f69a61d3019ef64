// Fig 14: comparison of the total times taken by full h-relations and by
// multinode scatter operations on the GCel — the scatter is up to ~9x
// cheaper per message (g_mscat vs g).

#include <iostream>

#include "bench_common.hpp"
#include "calibrate/microbench.hpp"
#include "machines/machine.hpp"
#include "report/ascii_plot.hpp"

int main(int argc, char** argv) {
  using namespace pcm;
  const auto env = bench::parse_env(argc, argv);
  auto m = machines::make_machine({.platform = machines::Platform::GCel,
                                   .procs = env.procs,
                                   .seed = env.seed != 0 ? env.seed : 1114});
  if (m->procs() < 2) {
    bench::usage(argv[0], "--procs: a multinode scatter needs at least 2 PEs");
  }
  const int trials = env.trials > 0 ? env.trials : (env.quick ? 3 : 10);

  const std::vector<int> hs = env.quick
                                  ? std::vector<int>{32, 128, 512}
                                  : std::vector<int>{16, 32, 64, 128, 256, 512, 1024};

  std::cerr << "full h-relations...\n";
  const auto full = calibrate::measure(*m, hs, trials, [&](int h) {
    return calibrate::full_h_relation(m->rng(), m->procs(), h, 4);
  });
  std::cerr << "multinode scatter...\n";
  const auto sc = calibrate::measure(*m, hs, trials, [&](int h) {
    return calibrate::multinode_scatter(m->procs(), h, 4);
  });

  const auto g_fit = calibrate::fit_line(full);
  const auto mscat_fit = calibrate::fit_line(sc);

  report::banner(std::cout, "fig14: full h-relations vs multinode scatter [gcel]",
                 "paper: g ~ 4480 µs, g_mscat ~ 492 µs (factor up to 9.1)");
  report::Table table({"h", "full h-relation (µs)", "multinode scatter (µs)",
                       "ratio"});
  for (std::size_t i = 0; i < hs.size(); ++i) {
    table.add_row({report::Table::num(hs[i], 0),
                   report::Table::num(full.points[i].measured.mean, 0),
                   report::Table::num(sc.points[i].measured.mean, 0),
                   report::Table::num(full.points[i].measured.mean /
                                          sc.points[i].measured.mean,
                                      2)});
  }
  table.print(std::cout);
  std::cout << "fitted g = " << report::Table::num(g_fit.slope, 0)
            << " µs (paper 4480), g_mscat = "
            << report::Table::num(mscat_fit.slope, 0)
            << " µs (paper 492), factor = "
            << report::Table::num(g_fit.slope / mscat_fit.slope, 1)
            << " (paper up to 9.1)\n";

  std::vector<report::PlotSeries> ps(2);
  ps[0] = {"full h-relations", '*', full.xs(), full.measured_means()};
  ps[1] = {"multinode scatter", 'o', sc.xs(), sc.measured_means()};
  report::PlotOptions opts;
  opts.x_label = "h";
  opts.y_label = "total time (µs)";
  report::ascii_plot(std::cout, ps, opts);
  return 0;
}
