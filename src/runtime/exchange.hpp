#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "audit/conservation.hpp"
#include "fault/injector.hpp"
#include "machines/machine.hpp"
#include "net/pattern.hpp"
#include "race/race.hpp"
#include "runtime/mailbox.hpp"
#include "sim/check.hpp"

// One communication step: algorithms stage sends (in the order they want
// them issued — staggering is expressed here), run() builds the CommPattern,
// lets the machine's router time it, and delivers the payloads.
//
// TransferMode selects the model style:
//   - Word:  every element travels as its own w-byte message (BSP / MP-BSP
//            style fixed short messages);
//   - Block: each staged parcel is a single message of size(data) bytes
//            (MP-BPRAM style bulk transfer).
//
// Fault injection: when the machine carries a fault::Injector, exchange()
// draws a copy count per message of the staged pattern (0 = dropped,
// 2 = duplicated) and routes the rewritten pattern; run() delivers each
// staged element by the same count — a dropped message's element never
// arrives, a duplicated one arrives twice — and applies payload-corruption
// draws at delivery. The audit conservation check is adjusted by the same
// counts, so --audit and --fault compose.

namespace pcm::runtime {

enum class TransferMode { Word, Block };

template <typename T>
class Exchange {
 public:
  explicit Exchange(machines::Machine& m, TransferMode mode)
      : machine_(m), mode_(mode), pattern_(m.procs()) {}

  [[nodiscard]] machines::Machine& machine() { return machine_; }
  [[nodiscard]] TransferMode mode() const { return mode_; }

  /// Stage a parcel. Sends are issued per sender in staging order.
  void send(int src, int dst, std::vector<T> data, int tag = 0) {
    if (data.empty()) return;
    const auto qpos = static_cast<std::size_t>(pattern_.send_count(src));
    stage_pattern(src, dst, data.size());
    staged_.push_back(Staged{src, dst, tag, qpos, std::move(data)});
  }

  void send(int src, int dst, std::span<const T> data, int tag = 0) {
    send(src, dst, std::vector<T>(data.begin(), data.end()), tag);
  }

  void send_value(int src, int dst, T value, int tag = 0) {
    send(src, dst, std::vector<T>{value}, tag);
  }

  [[nodiscard]] std::size_t staged_messages() const { return pattern_.size(); }
  [[nodiscard]] const net::CommPattern& pattern() const { return pattern_; }

  /// Execute the communication step on the machine and deliver payloads.
  /// The Exchange is reusable afterwards (cleared).
  Mailbox<T> run() {
    // Under --audit: snapshot the injected per-channel byte totals before
    // the pattern is consumed, and require the mailbox to account for every
    // one of them afterwards (each parcel delivered exactly once, to the
    // right destination, payload bytes conserved). Packet faults adjust the
    // snapshot below, so injected drops/duplicates are not flagged as leaks.
    const bool auditing = audit::enabled();
    audit::EndpointBytes injected;
    if (auditing) injected = audit::endpoint_bytes(pattern_);
    machine_.exchange(pattern_);
    if (machine_.metrics().on()) {
      // Runtime-level view (staged parcels as the algorithm expressed them,
      // before packet faults): complements the machine's router-level
      // packet/byte counters.
      const obs::Builtin& b = obs::builtin();
      std::uint64_t payload = 0;
      for (const auto& s : staged_) payload += s.data.size() * sizeof(T);
      machine_.metrics().add(b.parcels, staged_.size());
      machine_.metrics().add(b.payload_bytes, payload);
    }
    Mailbox<T> box(machine_.procs());
    // Under --race: stamp the mailbox with the delivery epoch so consuming
    // it after a reset() (stale read) is caught. Unstamped mailboxes carry
    // no machine pointer, so runs without the detector cannot dangle.
    if (race::enabled()) box.race_stamp(machine_);
    const auto copies_of = machine_.last_packet_copies();
    fault::Injector* inj = machine_.injector();
    const long step = machine_.superstep();
    std::size_t parcels = 0;  // delivered, duplicates included
    for (auto& s : staged_) {
      int copies = 1;
      if (!copies_of.empty()) {
        copies =
            apply_packet_faults(s, copies_of, auditing ? &injected : nullptr);
      }
      if (copies == 0) continue;  // lost in flight
      parcels += static_cast<std::size_t>(copies);
      bool corrupted = false;
      if (inj != nullptr && inj->should_corrupt(step)) {
        corrupted = corrupt_payload(*inj, s.data);
      }
      for (int c = 1; c < copies; ++c) {
        box.deliver(s.dst, Parcel<T>{s.src, s.tag, s.data, corrupted});
      }
      box.deliver(s.dst, Parcel<T>{s.src, s.tag, std::move(s.data), corrupted});
    }
    staged_.clear();
    pattern_.clear();
    if (auditing) {
      // Destination-major, one record per parcel: channel_totals' counting
      // pass by src then yields (src, dst) order without sorting.
      std::vector<audit::ChannelBytes> walk;
      walk.reserve(parcels);
      for (int p = 0; p < box.procs(); ++p) {
        for (const auto& parcel : box.at(p)) {
          walk.push_back({parcel.src, p,
                          static_cast<long>(parcel.data.size() * sizeof(T))});
        }
      }
      audit::check_endpoints_conserved(injected, audit::channel_totals(walk));
    }
    return box;
  }

 private:
  struct Staged {
    int src;
    int dst;
    int tag;
    /// Position of this parcel's first message in src's per-sender queue of
    /// the staged CommPattern.
    std::size_t first_qpos;
    std::vector<T> data;
  };

  /// Apply the machine's per-message copy counts to one staged parcel,
  /// adjusting the audit snapshot (when non-null) by the same counts.
  /// Returns how many copies of the parcel to deliver (0 = dropped).
  int apply_packet_faults(Staged& s, std::span<const std::uint8_t> copies_of,
                          audit::EndpointBytes* injected) {
    const bool block = mode_ == TransferMode::Block;
    const auto base = static_cast<std::size_t>(
        pattern_.sends_of(s.src).data() - pattern_.messages().data());
    const auto copies =
        copies_of.subspan(base + s.first_qpos, block ? 1 : s.data.size());
    std::size_t carried = 0;  // messages the network carried for the parcel
    for (const std::uint8_t c : copies) carried += c;
    if (injected != nullptr) {
      // The snapshot was taken from the pattern this parcel was staged into,
      // so its channel is there (a fully dropped one keeps its 0-byte entry).
      audit::ChannelBytes* channel =
          audit::find_channel(*injected, s.src, s.dst);
      PCM_CHECK(channel != nullptr);
      const auto message_bytes =
          static_cast<long>((block ? s.data.size() : 1) * sizeof(T));
      channel->bytes +=
          (static_cast<long>(carried) - static_cast<long>(copies.size())) *
          message_bytes;
    }
    // Block mode: one staged parcel == one message, delivered that often.
    if (block) return copies[0];
    // Word mode: the parcel's elements are its messages. Survivors keep
    // their order; duplicates arrive again, in order, after the parcel body.
    std::vector<T> delivered;
    delivered.reserve(carried);
    for (std::size_t i = 0; i < copies.size(); ++i) {
      if (copies[i] != 0) delivered.push_back(s.data[i]);
    }
    for (std::size_t i = 0; i < copies.size(); ++i) {
      if (copies[i] == 2) delivered.push_back(s.data[i]);
    }
    s.data = std::move(delivered);
    return s.data.empty() ? 0 : 1;
  }

  /// Flip one injector-chosen bit of the payload. Only trivially copyable
  /// element types can be byte-poked; others pass through untouched.
  static bool corrupt_payload(fault::Injector& inj, std::vector<T>& data) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (data.empty()) return false;
      auto* bytes = reinterpret_cast<unsigned char*>(data.data());
      inj.corrupt(std::span<unsigned char>(bytes, data.size() * sizeof(T)));
      return true;
    } else {
      (void)inj;
      (void)data;
      return false;
    }
  }

  void stage_pattern(int src, int dst, std::size_t elems) {
    const int w = static_cast<int>(sizeof(T));
    if (mode_ == TransferMode::Word) {
      for (std::size_t i = 0; i < elems; ++i) pattern_.add(src, dst, w);
    } else {
      pattern_.add(src, dst, static_cast<int>(elems) * w);
    }
  }

  machines::Machine& machine_;
  TransferMode mode_;
  net::CommPattern pattern_;
  std::vector<Staged> staged_;
};

}  // namespace pcm::runtime
