#pragma once

#include <string_view>
#include <vector>

#include "machines/machine.hpp"
#include "runtime/grid.hpp"
#include "sim/time.hpp"

// The paper's matrix multiplication algorithm (Section 4.1): P = q^3
// processors arranged as a q x q x q array; A, B, C partitioned into q^2
// blocks of size N/q x N/q, each split into q row-subblocks of N/q^2 x N/q.
// Processor <i,j,k> initially holds A^k_ij and B^k_ij and finally C^k_ij.
//
// Four supersteps:
//   1. replicate: A^k_ij -> <i,j,*>,  B^k_ij -> <*,i,j>;
//   2. local:     Chat_ijk = A_ij * B_jk           (alpha * N^3/P);
//   3. reduce-scatter: Chat^l_ijk -> <i,k,l>;
//   4. local sums                                   (beta * N^2/q^2).
//
// Variants:
//   - BspUnstaggered: word messages, every processor walks destinations
//     0,1,2,... — the schedule that stalls on the CM-5 (Fig 4);
//   - BspStaggered:   word messages, destination offsets rotated by the
//     sender's own coordinate;
//   - MpBsp:          MasPar-style — one element per processor per
//     communication step, staggered (3 * N^2/q^2 permutation steps);
//   - Bpram:          block transfers, ~3q single-port permutation steps of
//     N^2/P-element messages.

namespace pcm::algos {

enum class MatmulVariant { BspUnstaggered, BspStaggered, MpBsp, Bpram };

[[nodiscard]] std::string_view to_string(MatmulVariant v);

template <typename T>
struct MatmulResult {
  std::vector<T> c;     ///< Gathered N x N row-major result.
  sim::Micros time = 0; ///< Simulated makespan of the parallel run.
  double mflops = 0.0;  ///< 2 N^3 / time (paper's reporting unit).
};

/// Largest q usable on this machine (q^3 <= P).
[[nodiscard]] int matmul_q(const machines::Machine& m);

/// Smallest N' >= n that the decomposition accepts (N' % q^2 == 0). Long,
/// because rounding a size near INT_MAX up overflows int.
[[nodiscard]] long matmul_round_n(const machines::Machine& m, int n);

/// Run C = A * B (N x N row-major) on the simulated machine. Requires
/// n % q^2 == 0. The machine is reset first; the result time is the
/// simulated makespan including all barriers.
template <typename T>
MatmulResult<T> run_matmul(machines::Machine& m, const std::vector<T>& a,
                           const std::vector<T>& b, int n, MatmulVariant v);

extern template MatmulResult<float> run_matmul<float>(machines::Machine&,
                                                      const std::vector<float>&,
                                                      const std::vector<float>&,
                                                      int, MatmulVariant);
extern template MatmulResult<double> run_matmul<double>(
    machines::Machine&, const std::vector<double>&, const std::vector<double>&,
    int, MatmulVariant);

}  // namespace pcm::algos
