#pragma once

#include <memory>
#include <string>

#include "machines/custom.hpp"

// MachineBuilder: assemble a hypothetical machine out of the library's
// parts — pick a network type, tune its parameters, choose a local-compute
// coefficient set — and run the whole validation methodology against it
// (calibrate, predict, compare). This is the library's life beyond the
// paper: the same harness that reproduces the 1996 measurements can ask
// "which cost model would suit *this* machine?" for a design that never
// existed.
//
//   auto m = machines::MachineBuilder("my-cluster")
//                .mesh(8, 8)
//                .message_overheads(50.0, 120.0)
//                .per_byte(0.05, 0.08)
//                .barrier(25.0)
//                .compute(machines::cm5_compute())
//                .build(seed);

namespace pcm::machines {

class MachineBuilder {
 public:
  explicit MachineBuilder(std::string name);

  /// Network selection (exactly one; the last call wins).
  MachineBuilder& mesh(int width, int height);
  MachineBuilder& fat_tree(int procs);
  MachineBuilder& delta(int procs, int cluster_size = 16);

  /// Processor count, overriding whatever the network selection implied —
  /// the fluent way to scale a design up (e.g. .fat_tree(64).procs(65536)).
  /// For a mesh the dimensions are recomputed as the squarest
  /// factorisation of the new count. Throws std::invalid_argument on n <= 0.
  MachineBuilder& procs(int n);
  /// Alias for procs() in SIMD vocabulary.
  MachineBuilder& pes(int n) { return procs(n); }

  /// Per-message software overheads (sender, receiver) in µs.
  MachineBuilder& message_overheads(sim::Micros send, sim::Micros recv);
  /// Per-byte costs (sender-side, receiver-side) in µs.
  MachineBuilder& per_byte(sim::Micros send, sim::Micros recv);
  /// Barrier cost in µs.
  MachineBuilder& barrier(sim::Micros cost);
  /// Local-compute coefficient set (defaults to the CM-5's).
  MachineBuilder& compute(const LocalCompute& lc);

  /// Build the machine. Throws std::logic_error if no network was chosen,
  /// std::invalid_argument if the delta network cannot wire procs PEs.
  [[nodiscard]] std::unique_ptr<Machine> build(std::uint64_t seed = 42) const;

 private:
  enum class Net { None, Mesh, FatTree, Delta };

  std::string name_;
  Net net_ = Net::None;
  int width_ = 8;
  int height_ = 8;
  int procs_ = 64;
  bool have_procs_ = false;
  int cluster_size_ = 16;
  bool have_overheads_ = false;
  sim::Micros o_send_ = 0.0;
  sim::Micros o_recv_ = 0.0;
  bool have_bytes_ = false;
  sim::Micros b_send_ = 0.0;
  sim::Micros b_recv_ = 0.0;
  sim::Micros barrier_ = 50.0;
  LocalCompute compute_ = cm5_compute();
};

}  // namespace pcm::machines
