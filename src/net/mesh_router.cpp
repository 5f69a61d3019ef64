#include "net/mesh_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "audit/audit.hpp"

namespace pcm::net {

namespace {

double clipped_jitter(sim::Rng& rng, double sigma) {
  const double g = std::clamp(rng.next_gaussian(), -3.0, 3.0);
  return std::max(0.5, 1.0 + sigma * g);
}

}  // namespace

MeshRouterParams squarest_mesh(int procs) {
  MeshRouterParams p;
  int w = 1;
  while (w * w < procs) ++w;
  while (procs % w != 0) ++w;
  p.width = w;
  p.height = procs / w;
  return p;
}

MeshRouter::MeshRouter(int procs, MeshRouterParams params, std::uint64_t seed)
    : Router(procs),
      params_(params),
      cpu_free_(static_cast<std::size_t>(procs), 0.0),
      link_free_(static_cast<std::size_t>(procs) * 4, 0.0),
      link_stamp_(static_cast<std::size_t>(procs) * 4, 0),
      bias_(static_cast<std::size_t>(procs), 1.0) {
  assert(params_.width * params_.height == procs);
  sim::Rng r(seed);
  redraw_biases(r);
}

int MeshRouter::hops(int a, int b) const {
  const int ax = a % params_.width, ay = a / params_.width;
  const int bx = b % params_.width, by = b / params_.width;
  return std::abs(ax - bx) + std::abs(ay - by);
}

int MeshRouter::link_index(int x, int y, int dir) const {
  return ((y * params_.width) + x) * 4 + dir;
}

void MeshRouter::redraw_biases(sim::Rng& rng) {
  for (auto& b : bias_) {
    b = std::max(0.8, 1.0 + params_.node_bias *
                           std::clamp(rng.next_gaussian(), -2.5, 2.5));
  }
}

void MeshRouter::claim_link(std::size_t li, sim::Micros busy_until) {
  if (link_stamp_[li] != link_epoch_) {
    link_stamp_[li] = link_epoch_;
    touched_links_.push_back(li);
  }
  link_free_[li] = busy_until;
}

void MeshRouter::route(const CommPattern& pattern, sim::ClockSet& clocks,
                       sim::Rng& rng) {
  assert(clocks.size() == procs());
  if (pattern.empty()) return;

  const auto senders = pattern.senders();
  const auto receivers = pattern.receivers();
  // Each message claims at least one link; after the first superstep the
  // capacity persists and claim_link() appends without allocating.
  touched_links_.reserve(pattern.size());

  // Desynchronisation spread among the processors that take part in this
  // step. Excess over what PVM's buffering tolerates surcharges every
  // receive below (see header comment).
  sim::Micros lo = 0.0, hi = 0.0;
  bool any = false;
  auto widen = [&](int p) {
    const sim::Micros t = clocks.at(p);
    if (!any) {
      lo = hi = t;
      any = true;
    } else {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  };
  for (const int p : senders) widen(p);
  for (const int p : receivers) widen(p);
  const sim::Micros excess = std::max(0.0, (hi - lo) - params_.desync_tolerance);
  const sim::Micros surcharge =
      std::min(params_.desync_penalty * excess, params_.max_desync_surcharge);

  // Phase 1: senders issue their messages in queue order (one CPU per node).
  // senders() is ascending, so the jitter draws come out in the same order
  // as the historical all-P scan.
  struct InFlight {
    sim::Micros departure;
    Message m;
  };
  arena_.reset();
  auto flight = arena_.alloc<InFlight>(pattern.size());
  std::size_t nf = 0;
  for (const int p : senders) {
    sim::Micros cpu = std::max(cpu_avail(p), clocks.at(p));
    const double bias = bias_[static_cast<std::size_t>(p)];
    for (const auto& m : pattern.sends_of(p)) {
      const sim::Micros cost =
          (params_.o_send + params_.copy_send * m.bytes) * bias *
          clipped_jitter(rng, params_.jitter);
      cpu += cost;
      flight[nf++] = InFlight{cpu, m};
    }
    cpu_free_[static_cast<std::size_t>(p)] = cpu;
  }
  assert(nf == pattern.size());

  // Phase 2: store-and-forward XY transit, messages claim links in global
  // departure order.
  std::stable_sort(flight.begin(), flight.end(),
                   [](const InFlight& a, const InFlight& b) {
                     return a.departure < b.departure;
                   });
  arrivals_.clear();
  arrivals_.reserve(flight.size());
  for (const auto& f : flight) {
    sim::Micros t = f.departure;
    int x = f.m.src % params_.width;
    int y = f.m.src / params_.width;
    const int dx = f.m.dst % params_.width;
    const int dy = f.m.dst / params_.width;
    const sim::Micros hop_cost =
        params_.t_hop_lat + params_.t_link_byte * f.m.bytes;
    while (x != dx) {
      const int dir = (dx > x) ? 0 : 1;  // 0=E, 1=W
      const auto li = static_cast<std::size_t>(link_index(x, y, dir));
      t = std::max(link_free_[li], t) + hop_cost;
      claim_link(li, t);
      x += (dx > x) ? 1 : -1;
    }
    while (y != dy) {
      const int dir = (dy > y) ? 2 : 3;  // 2=S, 3=N
      const auto li = static_cast<std::size_t>(link_index(x, y, dir));
      t = std::max(link_free_[li], t) + hop_cost;
      claim_link(li, t);
      y += (dy > y) ? 1 : -1;
    }
    arrivals_.push_back(Arrival{t, f.m.dst, f.m.bytes});
  }
  if (audit::enabled() && arrivals_.size() != pattern.size()) {
    // Transit conservation: every injected message must arrive at its
    // destination node exactly once (the XY walk cannot drop or duplicate).
    audit::fail("packet-conservation", "mesh",
                "transited " + std::to_string(arrivals_.size()) + " of " +
                    std::to_string(pattern.size()) + " injected messages");
  }

  // Phase 3: receivers process deliveries in arrival order on the same CPU
  // that issued their sends.
  recv_order_.resize(arrivals_.size());
  for (std::size_t i = 0; i < arrivals_.size(); ++i)
    recv_order_[i] = static_cast<int>(i);
  std::stable_sort(recv_order_.begin(), recv_order_.end(), [this](int a, int b) {
    const auto& aa = arrivals_[static_cast<std::size_t>(a)];
    const auto& ab = arrivals_[static_cast<std::size_t>(b)];
    if (aa.dst != ab.dst) return aa.dst < ab.dst;
    return aa.t < ab.t;
  });
  if (audit::enabled()) {
    // Per-node conservation: each receiver's run in the (dst, arrival)-sorted
    // order must match its expected receive count (O(messages), no dense
    // arrays materialised).
    for (std::size_t i = 0; i < recv_order_.size();) {
      const int dst = arrivals_[static_cast<std::size_t>(recv_order_[i])].dst;
      std::size_t j = i;
      while (j < recv_order_.size() &&
             arrivals_[static_cast<std::size_t>(recv_order_[j])].dst == dst) {
        ++j;
      }
      if (static_cast<int>(j - i) != pattern.receive_count(dst)) {
        audit::fail("packet-conservation", "node " + std::to_string(dst),
                    "expected " + std::to_string(pattern.receive_count(dst)) +
                        " arrivals, saw " + std::to_string(j - i));
      }
      i = j;
    }
    audit::count_check();
  }
  // Walk each receiver's arrivals in order; `done` counts processed
  // messages of the current receiver, `ahead` the arrivals already in the
  // buffer when a message starts processing (backlog = ahead - done).
  obs::Metrics* const om = live_metrics();
  int current_dst = -1;
  std::size_t done = 0, ahead = 0, dst_begin = 0;
  for (std::size_t oi = 0; oi < recv_order_.size(); ++oi) {
    const int idx = recv_order_[oi];
    const auto& a = arrivals_[static_cast<std::size_t>(idx)];
    if (a.dst != current_dst) {
      current_dst = a.dst;
      done = ahead = 0;
      dst_begin = oi;
    }
    const sim::Micros begin =
        std::max({cpu_avail(a.dst), a.t, clocks.at(a.dst)});
    // Advance `ahead` over this receiver's arrivals that are <= begin.
    while (dst_begin + ahead < recv_order_.size()) {
      const auto& nxt =
          arrivals_[static_cast<std::size_t>(recv_order_[dst_begin + ahead])];
      if (nxt.dst != a.dst || nxt.t > begin) break;
      ++ahead;
    }
    const long backlog = static_cast<long>(ahead - done) - 1;
    if (om != nullptr && backlog > 0) {
      om->peak(obs::builtin().mesh_recv_backlog_peak,
               static_cast<std::uint64_t>(backlog));
    }
    const sim::Micros backlog_cost =
        (backlog > params_.backlog_tolerance)
            ? params_.backlog_penalty *
                  static_cast<double>(backlog - params_.backlog_tolerance)
            : 0.0;
    const double bias = bias_[static_cast<std::size_t>(a.dst)];
    const sim::Micros cost =
        (params_.o_recv + params_.copy_recv * a.bytes) * bias *
            clipped_jitter(rng, params_.jitter) +
        surcharge + backlog_cost;
    cpu_free_[static_cast<std::size_t>(a.dst)] = begin + cost;
    ++done;
  }

  // Participants' clocks advance to their CPU availability; everyone else
  // is untouched.
  for (const int p : senders) clocks.wait_until(p, cpu_avail(p));
  for (const int p : receivers) clocks.wait_until(p, cpu_avail(p));
}

void MeshRouter::drain(sim::Micros t) {
  // Every stored CPU time is <= t at a barrier (clocks were advanced past
  // them and t is the barrier instant), so raising the floor is equivalent
  // to the historical write of all P entries.
  cpu_floor_ = t;
  for (const std::size_t li : touched_links_) {
    link_free_[li] = std::min(link_free_[li], t);
  }
  touched_links_.clear();
  ++link_epoch_;
}

void MeshRouter::reset() {
  std::fill(cpu_free_.begin(), cpu_free_.end(), 0.0);
  std::fill(link_free_.begin(), link_free_.end(), 0.0);
  cpu_floor_ = 0.0;
  touched_links_.clear();
  ++link_epoch_;
}

std::string MeshRouter::audit_leak_report(sim::Micros t) const {
  for (std::size_t p = 0; p < cpu_free_.size(); ++p) {
    const sim::Micros c = std::max(cpu_floor_, cpu_free_[p]);
    if (c != t) {
      return "node " + std::to_string(p) + " cpu busy until " +
             std::to_string(c) + " us at barrier " + std::to_string(t) + " us";
    }
  }
  for (std::size_t l = 0; l < link_free_.size(); ++l) {
    if (link_free_[l] > t) {
      return "link " + std::to_string(l) + " held until " +
             std::to_string(link_free_[l]) + " us past barrier " +
             std::to_string(t) + " us";
    }
  }
  return {};
}

}  // namespace pcm::net
