#pragma once

#include <functional>
#include <span>

#include "core/series.hpp"
#include "machines/machine.hpp"
#include "models/params.hpp"
#include "net/pattern.hpp"
#include "sim/fit.hpp"

// The Section 3 calibration micro-benchmarks: the random communication
// pattern generators, the one sweep loop that times a pattern family over a
// parameter (h, active PEs or block bytes) for K trials per point — the
// paper's min/mean/max error-bar plots — and the two fits Table 1 is read
// from. Sweeps fill only the `points` of a core::ValidationSeries.

namespace pcm::calibrate {

/// Time one communication step on a freshly reset machine (pattern time plus
/// a closing barrier when `with_barrier`).
sim::Micros time_pattern(machines::Machine& m, const net::CommPattern& pat,
                         bool with_barrier);

/// The sweep loop: for every x, `trials` timings of trial(x) summarised as
/// one measured point.
core::ValidationSeries measure(std::span<const int> xs, int trials,
                               const std::function<sim::Micros(int)>& trial);

/// Sweep single communication steps: every trial draws a fresh pattern
/// gen(x) (before time_pattern's reset, which itself draws from m.rng())
/// and times it with a closing barrier.
template <typename Gen>
core::ValidationSeries measure(machines::Machine& m, std::span<const int> xs,
                               int trials, Gen gen) {
  return measure(xs, trials, [&](int x) {
    return time_pattern(m, gen(x), /*with_barrier=*/true);
  });
}

/// Fig 7: total time for h chained steps of one random permutation.
/// Without barriers the MIMD processors drift out of sync and the per-step
/// time keeps elevating; a barrier every `barrier_every` steps (the paper
/// uses 256; 0 disables) restores the straight line.
core::ValidationSeries run_hh_permutations(machines::Machine& m,
                                           std::span<const int> hs, int trials,
                                           int barrier_every, int bytes = 4);

/// Straight line through the sweep's means: (g, L) from h-relations,
/// (sigma, ell) from block permutations, g_mscat from multinode scatters.
sim::LineFit fit_line(const core::ValidationSeries& sweep);

/// T(P') = a*P' + b*sqrt(P') + c through the sweep's means: T_unb from
/// partial permutations, T_unb_local from block-local ones.
models::UnbalancedCost fit_t_unb(const core::ValidationSeries& sweep);

// ---- pattern generators (paper Section 3) ---------------------------------

/// A full h-relation: h superimposed random permutations (every processor
/// sends and receives exactly h messages).
net::CommPattern full_h_relation(sim::Rng& rng, int procs, int h, int bytes);

/// A random-destination relation: every processor sends h messages to
/// uniformly random destinations (receive load is only h in expectation) —
/// the pattern Fig 7 contrasts with h-h permutations.
net::CommPattern random_destination_relation(sim::Rng& rng, int procs, int h,
                                             int bytes);

/// The MasPar 1-h relation experiment (Fig 1): ceil(P/h) random
/// destinations, every processor sends one message, destination d receives
/// ~h of them.
net::CommPattern one_h_relation(sim::Rng& rng, int procs, int h, int bytes);

/// A partial permutation with `active` random senders and receivers (Fig 2).
net::CommPattern partial_permutation(sim::Rng& rng, int procs, int active,
                                     int bytes);

/// EXTENSION (E-BSP's "general locality", the second half of [17]'s title):
/// a random partial permutation of `active` of the P processors in which
/// every message stays within its block of `locality` consecutive
/// processors. The delta network routes these through far fewer resources
/// than global ones; the fitted T_unb_local drives the improved Fig 12 APSP
/// prediction.
net::CommPattern local_permutation(sim::Rng& rng, int procs, int active,
                                   int locality, int bytes);

/// A full random block permutation with m-byte messages (MP-BPRAM sigma, ell).
net::CommPattern block_permutation(sim::Rng& rng, int procs, int m_bytes);

/// A multinode scatter (Fig 14): sqrt(P) senders scatter h messages each
/// across the remaining processors, balanced so each receives at most
/// ceil(h*sqrt(P)/(P-sqrt(P))) messages. Throws std::invalid_argument for
/// P < 2, which leaves no receivers.
net::CommPattern multinode_scatter(int procs, int h, int bytes);

}  // namespace pcm::calibrate
