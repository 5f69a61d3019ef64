#include "net/fat_tree.hpp"

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

bool FatTree::PortQueue::holds(std::int32_t sender) const {
  const auto it = std::lower_bound(
      per_sender.begin(), per_sender.end(), sender,
      [](const auto& e, std::int32_t s) { return e.first < s; });
  return it != per_sender.end() && it->first == sender;
}

void FatTree::PortQueue::inc(std::int32_t sender) {
  const auto it = std::lower_bound(
      per_sender.begin(), per_sender.end(), sender,
      [](const auto& e, std::int32_t s) { return e.first < s; });
  if (it != per_sender.end() && it->first == sender) {
    ++it->second;
  } else {
    // Sorted insert into the per-port arbitration window: bounded by the
    // distinct senders in flight at one port, and the capacity persists
    // across drains.
    per_sender.insert(it, {sender, 1});  // pcm-lint:allow(hot-path-alloc)
  }
}

void FatTree::PortQueue::dec(std::int32_t sender) {
  const auto it = std::lower_bound(
      per_sender.begin(), per_sender.end(), sender,
      [](const auto& e, std::int32_t s) { return e.first < s; });
  assert(it != per_sender.end() && it->first == sender);
  if (--it->second == 0) per_sender.erase(it);
}

FatTree::FatTree(int procs, FatTreeParams params)
    : Router(procs),
      params_(params),
      cpu_free_(static_cast<std::size_t>(procs), 0.0),
      port_free_(static_cast<std::size_t>(procs), 0.0),
      queues_(static_cast<std::size_t>(procs)),
      queue_stamp_(static_cast<std::size_t>(procs), 0),
      cursor_(static_cast<std::size_t>(procs), 0),
      recv_free_(static_cast<std::size_t>(procs), 0.0) {}

void FatTree::route(const CommPattern& pattern, sim::ClockSet& clocks,
                    sim::Rng& rng) {
  assert(clocks.size() == procs());
  if (pattern.empty()) return;

  const auto senders = pattern.senders();
  const auto receivers = pattern.receivers();

  for (const int r : receivers) {
    recv_free_[static_cast<std::size_t>(r)] =
        std::max(cpu_avail(r), clocks.at(r));
  }

  // Event loop: always advance the sender whose next injection completes
  // first. Backpressure may push a sender's CPU forward, which is why the
  // schedule cannot be precomputed per node. The heap is the manual
  // push_heap/pop_heap expansion of std::priority_queue (identical pop
  // order), seeded from the ascending active-sender view.
  heap_.clear();
  heap_.reserve(senders.size());  // one live entry per active sender
  touched_queues_.reserve(pattern.receivers().size());
  for (const int p : senders) {
    cursor_[static_cast<std::size_t>(p)] = 0;
    const sim::Micros cpu = std::max(cpu_avail(p), clocks.at(p));
    cpu_free_[static_cast<std::size_t>(p)] = cpu;
    heap_.emplace_back(cpu, p);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  obs::Metrics* const om = live_metrics();
  std::size_t processed = 0;
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    const auto [t, src] = heap_.back();
    heap_.pop_back();
    ++processed;
    std::size_t& cur = cursor_[static_cast<std::size_t>(src)];
    const auto sends = pattern.sends_of(src);
    const Message& m = sends[cur];

    // Injection.
    auto& cpu = cpu_free_[static_cast<std::size_t>(src)];
    cpu = std::max(cpu, t);
    sim::Micros cost = (params_.o_send + params_.copy_send * m.bytes) *
                       clipped_jitter(rng, params_.jitter);
    if (m.bytes >= params_.bulk_threshold) cost += params_.bulk_setup;
    cpu += cost;
    const sim::Micros departure = cpu;
    const sim::Micros arrival = departure + params_.t_lat;

    // Ejection port with distinct-sender arbitration penalty.
    auto& q = queues_[static_cast<std::size_t>(m.dst)];
    while (q.head < q.entries.size() && q.entries[q.head].first <= arrival) {
      q.dec(q.entries[q.head].second);
      ++q.head;
    }
    if (q.head == q.entries.size()) {
      q.entries.clear();
      q.head = 0;
    }
    const int others = q.distinct() - (q.holds(m.src) ? 1 : 0);
    const double mult = 1.0 + params_.kappa_hotspot * std::min(others, 3);
    const sim::Micros service =
        (params_.t_eject + params_.eject_byte * m.bytes) * mult *
        clipped_jitter(rng, params_.jitter);
    auto& port = port_free_[static_cast<std::size_t>(m.dst)];
    const sim::Micros admission_begin = std::max(arrival, port);
    const sim::Micros admission_end = admission_begin + service;
    port = admission_end;
    q.inc(m.src);
    // Pending-window append: bounded by arrivals in flight at one port,
    // capacity persists across drains.
    q.entries.emplace_back(  // pcm-lint:allow(hot-path-alloc)
        admission_end, m.src);
    if (queue_stamp_[static_cast<std::size_t>(m.dst)] != queue_epoch_) {
      queue_stamp_[static_cast<std::size_t>(m.dst)] = queue_epoch_;
      touched_queues_.push_back(m.dst);
    }
    if (om != nullptr) {
      om->peak(obs::builtin().fat_tree_port_queue_peak, q.pending());
    }

    // Backpressure: excessive ejection wait stalls the sender.
    const sim::Micros wait = admission_begin - arrival;
    if (wait > params_.capacity_slack) {
      cpu += wait - params_.capacity_slack;
    }

    // Receive handling on the destination CPU.
    auto& rf = recv_free_[static_cast<std::size_t>(m.dst)];
    rf = std::max(rf, admission_end) +
         (params_.o_recv + params_.copy_recv * m.bytes) *
             clipped_jitter(rng, params_.jitter);

    ++cur;
    if (cur < sends.size()) {
      heap_.emplace_back(cpu, src);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
  }
  if (audit::enabled()) {
    // The event loop must inject every message exactly once; a scheduling
    // bug (missed re-enqueue, duplicate cursor advance) breaks conservation.
    if (processed != pattern.size()) {
      audit::fail("packet-conservation", "fat-tree",
                  "injected " + std::to_string(processed) + " of " +
                      std::to_string(pattern.size()) + " messages");
    }
    for (const int p : senders) {
      const auto sends = pattern.sends_of(p);
      if (cursor_[static_cast<std::size_t>(p)] != sends.size()) {
        audit::fail("packet-conservation", "node " + std::to_string(p),
                    "send queue stopped at message " +
                        std::to_string(cursor_[static_cast<std::size_t>(p)]) +
                        " of " + std::to_string(sends.size()));
      }
    }
    audit::count_check();
  }

  // Fold the receive-handler occupancy back into the node CPU so chained
  // steps see it, and advance only the participants' clocks.
  for (const int r : receivers) {
    const sim::Micros rf = recv_free_[static_cast<std::size_t>(r)];
    clocks.wait_until(r, rf);
    cpu_free_[static_cast<std::size_t>(r)] = std::max(cpu_avail(r), rf);
  }
  for (const int s : senders) clocks.wait_until(s, cpu_avail(s));
}

void FatTree::drain(sim::Micros t) {
  // Every stored CPU time is <= t at a barrier, so raising the floor is
  // equivalent to writing all P entries; ports and queues untouched since
  // the last drain are already quiescent.
  cpu_floor_ = t;
  for (const std::int32_t dst : touched_queues_) {
    auto& pf = port_free_[static_cast<std::size_t>(dst)];
    pf = std::min(pf, t);
    auto& q = queues_[static_cast<std::size_t>(dst)];
    q.entries.clear();
    q.head = 0;
    q.per_sender.clear();
  }
  touched_queues_.clear();
  ++queue_epoch_;
}

void FatTree::reset() {
  std::fill(cpu_free_.begin(), cpu_free_.end(), 0.0);
  std::fill(port_free_.begin(), port_free_.end(), 0.0);
  cpu_floor_ = 0.0;
  for (auto& q : queues_) {
    q.entries.clear();
    q.head = 0;
    q.per_sender.clear();
  }
  touched_queues_.clear();
  ++queue_epoch_;
}

std::string FatTree::audit_leak_report(sim::Micros t) const {
  for (std::size_t p = 0; p < cpu_free_.size(); ++p) {
    const sim::Micros c = std::max(cpu_floor_, cpu_free_[p]);
    if (c != t) {
      return "node " + std::to_string(p) + " cpu busy until " +
             std::to_string(c) + " us at barrier " + std::to_string(t) + " us";
    }
  }
  for (std::size_t p = 0; p < port_free_.size(); ++p) {
    if (port_free_[p] > t) {
      return "ejection port " + std::to_string(p) + " held until " +
             std::to_string(port_free_[p]) + " us past barrier " +
             std::to_string(t) + " us";
    }
  }
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    const auto& q = queues_[p];
    if (q.pending() != 0 || q.distinct() != 0) {
      return "ejection queue " + std::to_string(p) + " still holds " +
             std::to_string(q.pending()) + " entries (" +
             std::to_string(q.distinct()) + " distinct senders) at barrier";
    }
  }
  return {};
}

}  // namespace pcm::net
