#include "calibrate/microbench.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace pcm::calibrate {

sim::Micros time_pattern(machines::Machine& m, const net::CommPattern& pat,
                         bool with_barrier) {
  m.reset();
  m.exchange(pat);
  if (with_barrier) m.barrier();
  return m.now();
}

core::ValidationSeries measure(std::span<const int> xs, int trials,
                               const std::function<sim::Micros(int)>& trial) {
  core::ValidationSeries sweep;
  for (const int x : xs) {
    sim::Accumulator acc;
    for (int t = 0; t < trials; ++t) acc.add(trial(x));
    sweep.points.push_back({static_cast<double>(x), acc.summary()});
  }
  return sweep;
}

core::ValidationSeries run_hh_permutations(machines::Machine& m,
                                           std::span<const int> hs, int trials,
                                           int barrier_every, int bytes) {
  return measure(hs, trials, [&](int h) {
    m.reset();
    const auto perm = m.rng().permutation(m.procs());
    const auto pat = net::patterns::from_permutation(perm, bytes);
    for (int i = 0; i < h; ++i) {
      m.exchange(pat);
      if (barrier_every > 0 && (i + 1) % barrier_every == 0) m.barrier();
    }
    m.barrier();
    return m.now();
  });
}

sim::LineFit fit_line(const core::ValidationSeries& sweep) {
  return sim::fit_line(sweep.xs(), sweep.measured_means());
}

models::UnbalancedCost fit_t_unb(const core::ValidationSeries& sweep) {
  const auto fit = sim::fit_sqrt_poly(sweep.xs(), sweep.measured_means());
  return models::UnbalancedCost{fit.a, fit.b, fit.c};
}

net::CommPattern full_h_relation(sim::Rng& rng, int procs, int h, int bytes) {
  net::CommPattern pat(procs);
  std::vector<std::vector<int>> dests(static_cast<std::size_t>(procs));
  for (int i = 0; i < h; ++i) {
    const auto perm = rng.permutation(procs);
    for (int p = 0; p < procs; ++p) {
      dests[static_cast<std::size_t>(p)].push_back(perm[static_cast<std::size_t>(p)]);
    }
  }
  for (int p = 0; p < procs; ++p) {
    for (const int d : dests[static_cast<std::size_t>(p)]) pat.add(p, d, bytes);
  }
  return pat;
}

net::CommPattern random_destination_relation(sim::Rng& rng, int procs, int h,
                                             int bytes) {
  net::CommPattern pat(procs);
  for (int i = 0; i < h; ++i) {
    for (int p = 0; p < procs; ++p) {
      pat.add(p, static_cast<int>(rng.next_below(static_cast<std::uint64_t>(procs))),
              bytes);
    }
  }
  return pat;
}

net::CommPattern one_h_relation(sim::Rng& rng, int procs, int h, int bytes) {
  assert(h >= 1);
  const int ndst = (procs + h - 1) / h;
  const auto dsts = rng.sample_without_replacement(procs, ndst);
  // Shuffle the senders so destination loads are h (the last one fewer).
  auto senders = rng.permutation(procs);
  net::CommPattern pat(procs);
  for (int i = 0; i < procs; ++i) {
    pat.add(senders[static_cast<std::size_t>(i)],
            dsts[static_cast<std::size_t>(i / h)], bytes);
  }
  return pat;
}

net::CommPattern partial_permutation(sim::Rng& rng, int procs, int active,
                                     int bytes) {
  const auto snd = rng.sample_without_replacement(procs, active);
  const auto rcv = rng.sample_without_replacement(procs, active);
  net::CommPattern pat(procs);
  for (int i = 0; i < active; ++i) {
    pat.add(snd[static_cast<std::size_t>(i)], rcv[static_cast<std::size_t>(i)], bytes);
  }
  return pat;
}

net::CommPattern local_permutation(sim::Rng& rng, int procs, int active,
                                   int locality, int bytes) {
  assert(locality > 0 && procs % locality == 0);
  assert(active <= procs);
  net::CommPattern pat(procs);
  // Spread the active processors evenly over the blocks, then permute
  // within each block.
  const int blocks = procs / locality;
  const int per_block = (active + blocks - 1) / blocks;
  int remaining = active;
  for (int b = 0; b < blocks && remaining > 0; ++b) {
    const int k = std::min(per_block, remaining);
    remaining -= k;
    const auto members = rng.sample_without_replacement(locality, k);
    auto targets = members;
    rng.shuffle(std::span<int>(targets));
    for (int i = 0; i < k; ++i) {
      pat.add(b * locality + members[static_cast<std::size_t>(i)],
              b * locality + targets[static_cast<std::size_t>(i)], bytes);
    }
  }
  return pat;
}

net::CommPattern block_permutation(sim::Rng& rng, int procs, int m_bytes) {
  const auto perm = rng.permutation(procs);
  return net::patterns::from_permutation(perm, m_bytes);
}

net::CommPattern multinode_scatter(int procs, int h, int bytes) {
  if (procs < 2) {
    throw std::invalid_argument(
        "multinode_scatter: needs at least 2 processors, got " +
        std::to_string(procs));
  }
  int s = 1;
  while ((s + 1) * (s + 1) <= procs) ++s;
  net::CommPattern pat(procs);
  std::vector<int> receivers;
  std::vector<char> is_sender(static_cast<std::size_t>(procs), 0);
  for (int i = 0; i < s; ++i) is_sender[static_cast<std::size_t>(i * s)] = 1;
  for (int p = 0; p < procs; ++p) {
    if (!is_sender[static_cast<std::size_t>(p)]) receivers.push_back(p);
  }
  long r = 0;
  for (int i = 0; i < s; ++i) {
    for (int k = 0; k < h; ++k) {
      pat.add(i * s, receivers[static_cast<std::size_t>(r % receivers.size())], bytes);
      ++r;
    }
  }
  return pat;
}

}  // namespace pcm::calibrate
