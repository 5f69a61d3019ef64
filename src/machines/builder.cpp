#include "machines/builder.hpp"

#include <stdexcept>
#include <utility>

namespace pcm::machines {

MachineBuilder::MachineBuilder(std::string name) : name_(std::move(name)) {}

MachineBuilder& MachineBuilder::mesh(int width, int height) {
  net_ = Net::Mesh;
  width_ = width;
  height_ = height;
  procs_ = width * height;
  return *this;
}

MachineBuilder& MachineBuilder::fat_tree(int procs) {
  net_ = Net::FatTree;
  procs_ = procs;
  return *this;
}

MachineBuilder& MachineBuilder::delta(int procs, int cluster_size) {
  net_ = Net::Delta;
  procs_ = procs;
  cluster_size_ = cluster_size;
  return *this;
}

MachineBuilder& MachineBuilder::procs(int n) {
  if (n <= 0) {
    throw std::invalid_argument("MachineBuilder::procs: count must be > 0");
  }
  procs_ = n;
  have_procs_ = true;
  if (net_ == Net::Mesh) {
    const auto sq = net::squarest_mesh(n);
    width_ = sq.width;
    height_ = sq.height;
  }
  return *this;
}

MachineBuilder& MachineBuilder::message_overheads(sim::Micros send,
                                                  sim::Micros recv) {
  have_overheads_ = true;
  o_send_ = send;
  o_recv_ = recv;
  return *this;
}

MachineBuilder& MachineBuilder::per_byte(sim::Micros send, sim::Micros recv) {
  have_bytes_ = true;
  b_send_ = send;
  b_recv_ = recv;
  return *this;
}

MachineBuilder& MachineBuilder::barrier(sim::Micros cost) {
  barrier_ = cost;
  return *this;
}

MachineBuilder& MachineBuilder::compute(const LocalCompute& lc) {
  compute_ = lc;
  return *this;
}

std::unique_ptr<Machine> MachineBuilder::build(std::uint64_t seed) const {
  std::unique_ptr<net::Router> router;
  switch (net_) {
    case Net::Mesh: {
      net::MeshRouterParams p;
      p.width = width_;
      p.height = height_;
      if (have_overheads_) {
        p.o_send = o_send_;
        p.o_recv = o_recv_;
      }
      if (have_bytes_) {
        p.copy_send = b_send_;
        p.copy_recv = b_recv_;
      }
      router = std::make_unique<net::MeshRouter>(procs_, p, seed ^ 0x9747b28cu);
      break;
    }
    case Net::FatTree: {
      net::FatTreeParams p;
      if (have_overheads_) {
        p.o_send = o_send_;
        p.o_recv = o_recv_;
      }
      if (have_bytes_) {
        p.copy_send = b_send_;
        p.copy_recv = b_recv_;
      }
      router = std::make_unique<net::FatTree>(procs_, p);
      break;
    }
    case Net::Delta: {
      net::DeltaRouterParams p;
      p.cluster_size = cluster_size_;
      // Per-message software overheads have no direct knob on the SIMD
      // router; fold the sender share into the per-step setup.
      if (have_overheads_) p.t_setup += o_send_ + o_recv_;
      if (have_bytes_) p.t_byte = b_send_ + b_recv_;
      router = std::make_unique<net::DeltaRouter>(procs_, p);
      break;
    }
    case Net::None:
      throw std::logic_error("MachineBuilder: no network selected");
  }
  return std::make_unique<Machine>(name_, procs_, compute_, std::move(router),
                                   barrier_, seed);
}

}  // namespace pcm::machines
