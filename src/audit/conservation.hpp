#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "net/pattern.hpp"
#include "sim/time.hpp"

// Packet-conservation bookkeeping for the auditor. A communication step is
// conserved when the multiset of (src, dst, bytes) injected into the router
// equals what lands in the mailboxes: nothing dropped, nothing duplicated,
// nothing re-addressed, no payload truncation. The per-channel byte totals
// below are exactly that comparison (byte totals per ordered (src, dst)
// pair distinguish every failure mode the routers could exhibit: a dropped
// or duplicated parcel changes a total, a mis-delivery moves bytes between
// channels, truncation shrinks one).
//
// A table is a flat vector sorted by (src, dst) with one entry per channel,
// built in time linear in the messages (plus the sender range on the
// delivered side) and compared by linear merges: the check runs on every
// exchange, so it gets no per-channel allocation and no log factor.
// Sorted, not hashed, on purpose: the auditor runs inside the
// deterministic sweep engine and must not introduce iteration-order
// dependence — the same rule pcm-lint enforces on the simulators
// themselves — and the sorted order fixes which channel a failure names.

namespace pcm::audit {

/// Payload bytes injected into, or delivered over, one ordered channel.
struct ChannelBytes {
  int src = 0;
  int dst = 0;
  long bytes = 0;
  friend bool operator==(const ChannelBytes&, const ChannelBytes&) = default;
};

/// Per-channel byte totals: sorted by (src, dst), one entry per channel.
using EndpointBytes = std::vector<ChannelBytes>;

namespace detail {

inline bool channel_before(const ChannelBytes& a, const ChannelBytes& b) {
  return a.src != b.src ? a.src < b.src : a.dst < b.dst;
}

inline bool same_channel(const ChannelBytes& a, const ChannelBytes& b) {
  return a.src == b.src && a.dst == b.dst;
}

/// Turn a table grouped by ascending sender into a sorted
/// one-entry-per-channel table. One scan finds whether any sender's run is
/// out of destination order or repeats a channel; only then are the
/// out-of-order runs sorted and equal neighbours folded in place.
inline void sort_sender_runs(EndpointBytes& t) {
  bool sorted = true;
  bool unique = true;
  for (std::size_t k = 1; k < t.size(); ++k) {
    if (t[k].src != t[k - 1].src) continue;
    sorted = sorted && t[k - 1].dst <= t[k].dst;
    unique = unique && t[k - 1].dst != t[k].dst;
  }
  if (!sorted) {
    for (std::size_t lo = 0, hi = 0; lo < t.size(); lo = hi) {
      for (hi = lo + 1; hi < t.size() && t[hi].src == t[lo].src; ++hi) {
      }
      const auto first = t.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto last = t.begin() + static_cast<std::ptrdiff_t>(hi);
      if (!std::is_sorted(first, last, channel_before)) {
        std::sort(first, last, channel_before);
      }
    }
    unique = false;  // sorting may have brought equal channels together
  }
  if (unique) return;
  std::size_t w = 0;
  for (std::size_t r = 1; r < t.size(); ++r) {
    if (same_channel(t[r], t[w])) {
      t[w].bytes += t[r].bytes;
    } else {
      t[++w] = t[r];
    }
  }
  t.resize(w + 1);
}

}  // namespace detail

/// Byte totals a CommPattern injects. The canonical stream is grouped by
/// sender, so one pass folding each run of messages on one channel leaves
/// only the senders whose queues revisit a destination to sort.
inline EndpointBytes endpoint_bytes(const net::CommPattern& pattern) {
  EndpointBytes out;
  out.reserve(pattern.size());
  for (const auto& m : pattern.messages()) {
    if (!out.empty() && out.back().src == m.src && out.back().dst == m.dst) {
      out.back().bytes += m.bytes;
    } else {
      out.push_back({m.src, m.dst, m.bytes});
    }
  }
  detail::sort_sender_runs(out);
  return out;
}

/// Byte totals of per-parcel delivery records. A stable counting pass by
/// src groups them by sender; when the records come destination-major, as
/// a walk of the mailboxes yields them, every sender's run is then already
/// in destination order and nothing is sorted. O(records + sender range).
inline EndpointBytes channel_totals(std::span<const ChannelBytes> records) {
  if (records.empty()) return {};
  const auto [lo, hi] = std::minmax_element(
      records.begin(), records.end(),
      [](const ChannelBytes& a, const ChannelBytes& b) {
        return a.src < b.src;
      });
  const int first = lo->src;
  const auto bucket = [first](const ChannelBytes& r) {
    return static_cast<std::size_t>(r.src - first);
  };
  // start[b] = first output slot of sender bucket b (exclusive prefix sum).
  std::vector<std::size_t> start(bucket(*hi) + 2);
  for (const auto& r : records) ++start[bucket(r) + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  EndpointBytes out(records.size());
  for (const auto& r : records) out[start[bucket(r)]++] = r;
  detail::sort_sender_runs(out);
  return out;
}

/// The entry for channel (src, dst) of a sorted table, or nullptr.
inline ChannelBytes* find_channel(EndpointBytes& table, int src, int dst) {
  const ChannelBytes key{src, dst, 0};
  const auto it = std::lower_bound(table.begin(), table.end(), key,
                                   detail::channel_before);
  return it != table.end() && detail::same_channel(*it, key) ? &*it : nullptr;
}

/// Every message must carry a positive payload between valid processors,
/// and the canonical stream must be grouped by sender (the routers build
/// their per-sender FIFOs from contiguous runs of it).
inline void check_pattern_bounds(const net::CommPattern& pattern, int procs) {
  int prev_src = -1;
  for (const auto& m : pattern.messages()) {
    if (m.src < 0 || m.src >= procs) {
      fail("packet-conservation", "message dst=" + std::to_string(m.dst),
           "source " + std::to_string(m.src) + " outside [0, " +
               std::to_string(procs) + ")");
    }
    if (m.src < prev_src) {
      fail("packet-conservation", "send-queue pe:" + std::to_string(m.src),
           "canonical message stream not sorted by sender");
    }
    prev_src = m.src;
    if (m.dst < 0 || m.dst >= procs) {
      fail("packet-conservation", "message src=" + std::to_string(m.src),
           "destination " + std::to_string(m.dst) + " outside [0, " +
               std::to_string(procs) + ")");
    }
    if (m.bytes <= 0) {
      fail("packet-conservation",
           "message src=" + std::to_string(m.src) +
               " dst=" + std::to_string(m.dst),
           "non-positive payload of " + std::to_string(m.bytes) + " bytes");
    }
  }
  count_check();
}

/// Compare injected vs. delivered per-channel totals (both sorted tables)
/// in two linear merges. The first names the lowest (src, dst) whose
/// injected total was not delivered; only a table that passes it reaches
/// the second, which names the lowest channel that delivered bytes nobody
/// injected.
inline void check_endpoints_conserved(const EndpointBytes& injected,
                                      const EndpointBytes& delivered) {
  // Equal tables (the common case) need no merge; unequal ones can still
  // conserve, when a fully dropped channel's 0-byte entry has no delivery.
  if (injected != delivered) {
    auto describe = [](const ChannelBytes& c) {
      return "channel src=" + std::to_string(c.src) +
             " dst=" + std::to_string(c.dst);
    };
    auto d = delivered.begin();
    for (const auto& c : injected) {
      while (d != delivered.end() && detail::channel_before(*d, c)) ++d;
      const long got =
          d != delivered.end() && detail::same_channel(*d, c) ? d->bytes : 0;
      if (got != c.bytes) {
        fail("packet-conservation", describe(c),
             "injected " + std::to_string(c.bytes) + " bytes, delivered " +
                 std::to_string(got));
      }
    }
    auto i = injected.begin();
    for (const auto& c : delivered) {
      while (i != injected.end() && detail::channel_before(*i, c)) ++i;
      if (i == injected.end() || !detail::same_channel(*i, c)) {
        fail("packet-conservation", describe(c),
             "delivered " + std::to_string(c.bytes) +
                 " bytes that were never injected");
      }
    }
  }
  count_check();
}

/// Router postcondition: every processor's finish time is finite and not
/// before its start time (the simulated clock may never run backwards).
inline void check_route_monotone(std::span<const sim::Micros> start,
                                 std::span<const sim::Micros> finish) {
  for (std::size_t p = 0; p < finish.size(); ++p) {
    if (!std::isfinite(finish[p])) {
      fail("clock-monotonicity", "pe:" + std::to_string(p),
           "non-finite finish time");
    }
    if (finish[p] < start[p]) {
      fail("clock-monotonicity", "pe:" + std::to_string(p),
           "finish " + std::to_string(finish[p]) + " us precedes start " +
               std::to_string(start[p]) + " us");
    }
  }
  count_check();
}

}  // namespace pcm::audit
