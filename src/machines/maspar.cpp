#include <memory>

#include "machines/machine.hpp"
#include "net/delta_router.hpp"

// MasPar MP-1 (paper Section 3.1): 1024 SIMD processor elements, global
// router = circuit-switched delta network with one channel per 16-PE
// cluster. Barriers are free: the machine is SIMD, the ACU keeps everything
// in lock-step, and the DeltaRouter already synchronises every
// communication step.

namespace pcm::machines {

std::unique_ptr<Machine> detail::build_maspar(std::uint64_t seed, int procs) {
  return std::make_unique<Machine>("MasPar MP-1", procs, maspar_compute(),
                                   std::make_unique<net::DeltaRouter>(procs),
                                   /*barrier_cost=*/0.0, seed);
}

}  // namespace pcm::machines
