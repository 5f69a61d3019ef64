#include <memory>

#include "machines/machine.hpp"
#include "net/mesh_router.hpp"

// EXTENSION: a T800 transputer grid under native Parix — the platform of the
// authors' earlier study ([15], PODC'93) that this paper extends. Modelled
// as the GCel mesh *without* the HPVM software stack: per-message overheads
// an order of magnitude below the PVM numbers, per-byte costs close to the
// raw 20 Mbit/s links. Parameters are estimates (the paper gives none), so
// this machine is for exploration, not reproduction; it shows how the
// model-vs-machine picture shifts when software overhead stops dominating.

namespace pcm::machines {

namespace {

net::MeshRouterParams t800_params(int procs) {
  net::MeshRouterParams p = net::squarest_mesh(procs);
  // Native Parix: thin send path, receive matching still the larger half.
  p.o_send = 45.0;
  p.o_recv = 320.0;
  p.copy_send = 0.55;
  p.copy_recv = 0.55;
  p.t_hop_lat = 12.0;
  p.t_link_byte = 0.45;  // closer to the raw link rate (store-and-forward)
  p.jitter = 0.02;
  p.node_bias = 0.002;
  p.backlog_tolerance = 1024;  // leaner buffers churn later
  p.backlog_penalty = 0.4;
  p.desync_tolerance = 30000.0;
  p.desync_penalty = 0.05;
  return p;
}

}  // namespace

std::unique_ptr<Machine> detail::build_t800(std::uint64_t seed, int procs) {
  return std::make_unique<Machine>(
      "T800 grid (Parix)", procs, gcel_compute(),
      std::make_unique<net::MeshRouter>(procs, t800_params(procs),
                                        seed ^ 0x2545f491u),
      /*barrier_cost=*/600.0, seed);
}

}  // namespace pcm::machines
