#include "net/delta_router.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "audit/audit.hpp"

namespace pcm::net {

namespace {

/// log_base(value) when value is an exact power of base, otherwise -1.
int exact_log(int value, int base) {
  int s = 0;
  int v = 1;
  while (v < value) {
    v *= base;
    ++s;
  }
  return v == value ? s : -1;
}

}  // namespace

DeltaRouter::DeltaRouter(int procs, DeltaRouterParams params)
    : Router(procs), params_(params) {
  const int cs = params_.cluster_size;
  const int r = params_.radix;
  stages_ = (cs > 0 && r > 1 && procs > 0 && procs % cs == 0)
                ? exact_log(procs / cs, r)
                : -1;
  if (stages_ < 0) {
    throw std::invalid_argument(
        "delta router: " + std::to_string(procs) + " PEs is not " +
        std::to_string(cs) + " * " + std::to_string(r) +
        "^k (the cluster size times a power of the radix)");
  }
  clusters_ = procs / cs;
}

int DeltaRouter::link_at(int a, int b, int stage) const {
  // Omega-style unique path: after `stage` stages the circuit sits on the
  // address whose top (stage+1) radix-digits come from the destination and
  // whose remaining low digits come from the source.
  const int r = params_.radix;
  int high = 1;
  for (int s = 0; s <= stage; ++s) high *= r;  // r^(stage+1)
  const int low_span = clusters_ / high;       // r^(S-stage-1)
  const int addr = (b / low_span) * low_span + (a % low_span);
  return stage * clusters_ + addr;
}

DeltaRouter::StepCost DeltaRouter::simulate(const CommPattern& pattern) const {
  StepCost cost;
  if (pattern.empty()) return cost;

  const bool auditing = audit::enabled();
  const auto msgs = pattern.messages();

  // Per source-cluster FIFO of pending messages (head-of-line blocking: a
  // channel transmits its PEs' messages in issue order). Canonical order is
  // ascending by sender, so each cluster's FIFO is a contiguous subrange of
  // the canonical span — one walk builds every queue.
  active_.clear();
  active_.reserve(static_cast<std::size_t>(clusters_));
  for (std::size_t i = 0; i < msgs.size();) {
    if (auditing && i > 0 && msgs[i].src < msgs[i - 1].src) {
      audit::fail("packet-conservation", "delta-network",
                  "canonical message stream not sorted by sender at index " +
                      std::to_string(i));
    }
    const int cl = msgs[i].src / params_.cluster_size;
    std::size_t j = i;
    while (j < msgs.size() && msgs[j].src / params_.cluster_size == cl) ++j;
    if (static_cast<std::size_t>(clusters_) > head_.size()) {
      head_.resize(static_cast<std::size_t>(clusters_));
      tail_.resize(static_cast<std::size_t>(clusters_));
    }
    head_[static_cast<std::size_t>(cl)] = i;
    tail_[static_cast<std::size_t>(cl)] = j;
    active_.push_back(cl);
    i = j;
  }

  if (!params_.ideal_crossbar &&
      link_used_.size() < static_cast<std::size_t>(stages_ * clusters_)) {
    link_used_.resize(static_cast<std::size_t>(stages_ * clusters_), 0);
  }
  if (dest_used_.size() < static_cast<std::size_t>(clusters_)) {
    dest_used_.resize(static_cast<std::size_t>(clusters_), 0);
  }

  std::size_t remaining = pattern.size();
  std::size_t delivered = 0;
  int wave = 0;
  while (remaining > 0) {
    const std::uint64_t epoch = ++wave_epoch_;
    int wave_max_bytes = 0;
    bool drained_any = false;
    // Rotate the service order so no cluster is structurally favoured:
    // probe clusters ascending from (wave mod C), wrapping — identical to
    // the dense (k + wave) % C scan, minus the empty clusters, which never
    // transmitted or conflicted anyway.
    const int rot = static_cast<int>(wave % clusters_);
    const std::size_t first = static_cast<std::size_t>(
        std::lower_bound(active_.begin(), active_.end(), rot) -
        active_.begin());
    const std::size_t n_active = active_.size();
    for (std::size_t k = 0; k < n_active; ++k) {
      std::size_t idx = first + k;
      if (idx >= n_active) idx -= n_active;
      const int cl = active_[idx];
      const std::size_t h = head_[static_cast<std::size_t>(cl)];
      if (h == tail_[static_cast<std::size_t>(cl)]) continue;  // drained this wave pass
      const Message& m = msgs[h];
      const int dst_cl = m.dst / params_.cluster_size;

      if (dest_used_[static_cast<std::size_t>(dst_cl)] == epoch) {
        ++cost.conflicts;
        continue;
      }
      bool free = true;
      if (!params_.ideal_crossbar) {
        for (int s = 0; s < stages_; ++s) {
          if (link_used_[static_cast<std::size_t>(link_at(cl, dst_cl, s))] ==
              epoch) {
            free = false;
            break;
          }
        }
      }
      if (!free) {
        ++cost.conflicts;
        continue;
      }

      dest_used_[static_cast<std::size_t>(dst_cl)] = epoch;
      if (!params_.ideal_crossbar) {
        for (int s = 0; s < stages_; ++s) {
          link_used_[static_cast<std::size_t>(link_at(cl, dst_cl, s))] = epoch;
        }
      }
      wave_max_bytes = std::max(wave_max_bytes, m.bytes);
      head_[static_cast<std::size_t>(cl)] = h + 1;
      if (h + 1 == tail_[static_cast<std::size_t>(cl)]) drained_any = true;
      --remaining;
      ++delivered;
    }
    // The first cluster probed always succeeds, so progress is guaranteed.
    assert(wave_max_bytes > 0);
    if (auditing && wave_max_bytes <= 0) {
      audit::fail("occupancy-leak", "wave " + std::to_string(wave),
                  "no circuit could be established: a link or destination "
                  "channel is still claimed from an earlier wave");
    }
    cost.duration += params_.t_circuit + params_.t_byte * wave_max_bytes;
    ++wave;
    if (drained_any) {
      std::erase_if(active_, [this](int cl) {
        return head_[static_cast<std::size_t>(cl)] ==
               tail_[static_cast<std::size_t>(cl)];
      });
    }
  }
  if (auditing) {
    if (delivered != pattern.size()) {
      audit::fail("packet-conservation", "delta-network",
                  "routed " + std::to_string(delivered) + " of " +
                      std::to_string(pattern.size()) + " injected messages");
    }
    audit::count_check();
  }
  cost.waves = wave;
  cost.duration += params_.t_setup;
  return cost;
}

const DeltaRouter::StepCost& DeltaRouter::step_cost(const CommPattern& pattern) {
  const std::uint64_t key = pattern.hash();
  const auto msgs = pattern.messages();
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    MemoEntry& e = it->second;
    if (e.canon.size() == msgs.size() &&
        std::equal(e.canon.begin(), e.canon.end(), msgs.begin())) {
      return e.cost;
    }
    // 64-bit hash collision: recompute and take over the slot. The memo is
    // keyed on the hash for speed but never trusts it for identity.
    memo_bytes_ -= e.canon.size() * sizeof(Message);
    e.cost = simulate(pattern);
    e.canon.assign(msgs.begin(), msgs.end());
    memo_bytes_ += e.canon.size() * sizeof(Message);
    return e.cost;
  }
  if (memo_.size() >= kMemoMaxEntries || memo_bytes_ >= kMemoMaxBytes) {
    memo_.clear();
    memo_bytes_ = 0;
  }
  MemoEntry& e = memo_[key];
  e.cost = simulate(pattern);
  e.canon.assign(msgs.begin(), msgs.end());
  memo_bytes_ += e.canon.size() * sizeof(Message);
  return e.cost;
}

sim::Micros DeltaRouter::step_duration(const CommPattern& pattern) {
  return step_cost(pattern).duration;
}

int DeltaRouter::wave_count(const CommPattern& pattern) const {
  return simulate(pattern).waves;
}

void DeltaRouter::route(const CommPattern& pattern, sim::ClockSet& clocks,
                        sim::Rng& /*rng*/) {
  assert(clocks.size() == procs());
  // SIMD machine: the step begins when the slowest PE arrives and all PEs
  // complete together (the ACU sequences the router operation).
  const sim::Micros begin = clocks.max();
  const StepCost& cost = step_cost(pattern);
  if (obs::Metrics* om = live_metrics()) {
    // The memo makes route() skip simulate() for repeated patterns, so the
    // per-step quantities must come from the memoised cost, not be counted
    // inside the wave loop.
    const obs::Builtin& b = obs::builtin();
    om->add(b.delta_waves, static_cast<std::uint64_t>(cost.waves));
    om->add(b.delta_conflicts, static_cast<std::uint64_t>(cost.conflicts));
    om->observe(b.delta_waves_per_exchange,
                static_cast<std::uint64_t>(cost.waves));
  }
  clocks.set_all(begin + cost.duration);
}

void DeltaRouter::drain(sim::Micros /*t*/) {
  // Circuit-switched and SIMD-synchronous: nothing persists across steps.
}

void DeltaRouter::reset() {
  memo_.clear();
  memo_bytes_ = 0;
}

}  // namespace pcm::net
