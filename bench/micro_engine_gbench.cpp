// Engine micro-benchmarks (google-benchmark): throughput of the three
// router simulators and the local kernels. These track the performance of
// the simulation engine itself, not the simulated machines.

#include <benchmark/benchmark.h>

#include "algos/local/matmul_kernel.hpp"
#include "algos/local/merge.hpp"
#include "algos/local/radix_sort.hpp"
#include "calibrate/microbench.hpp"
#include "machines/machine.hpp"
#include "net/delta_router.hpp"
#include "net/fat_tree.hpp"
#include "net/mesh_router.hpp"

namespace {

using namespace pcm;

void BM_DeltaRouterRandomPermutation(benchmark::State& state) {
  net::DeltaRouter router(1024);
  sim::Rng rng(1);
  const auto perm = rng.permutation(1024);
  const auto pat = net::patterns::from_permutation(perm, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.wave_count(pat));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DeltaRouterRandomPermutation);

void BM_DeltaRouterMemoisedStep(benchmark::State& state) {
  net::DeltaRouter router(1024);
  sim::Rng rng(2);
  const auto pat = net::patterns::bit_flip(1024, 3, 1, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.step_duration(pat));
  }
}
BENCHMARK(BM_DeltaRouterMemoisedStep);

void BM_MeshRouterHRelation(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  net::MeshRouter router(64);
  sim::Rng rng(3);
  const auto pat = calibrate::full_h_relation(rng, 64, h, 4);
  sim::ClockSet clocks(64);
  for (auto _ : state) {
    router.reset();
    clocks.reset();
    router.route(pat, clocks, rng);
    benchmark::DoNotOptimize(clocks.at(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pat.size()));
}
BENCHMARK(BM_MeshRouterHRelation)->Arg(8)->Arg(64);

void BM_FatTreeHRelation(benchmark::State& state) {
  const int h = static_cast<int>(state.range(0));
  net::FatTree router(64);
  sim::Rng rng(4);
  const auto pat = calibrate::full_h_relation(rng, 64, h, 8);
  sim::ClockSet clocks(64);
  for (auto _ : state) {
    router.reset();
    clocks.reset();
    router.route(pat, clocks, rng);
    benchmark::DoNotOptimize(clocks.at(0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(pat.size()));
}
BENCHMARK(BM_FatTreeHRelation)->Arg(8)->Arg(64);

/// A full machine superstep loop (charge / exchange / barrier). Run with
/// --benchmark_filter=Superstep and PCM_OBS unset vs PCM_OBS=1 to measure
/// the observability plane's overhead when on.
void BM_MachineSuperstepLoop(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::CM5, .procs = procs, .seed = 9});
  const auto pat = net::patterns::bit_flip(procs, 2, 1, 8);
  for (auto _ : state) {
    m->reset();
    for (int step = 0; step < 8; ++step) {
      m->charge_all(5.0);
      m->exchange(pat);
      m->barrier();
    }
    benchmark::DoNotOptimize(m->now());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MachineSuperstepLoop)->Arg(64)->Arg(1024)->Arg(4096);

/// The sparse counterpart: two active PEs out of p. Cost should track the
/// active-message count, not the machine size.
void BM_MachineSuperstepSparse(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::CM5, .procs = procs, .seed = 9});
  net::CommPattern pat(procs);
  pat.add(0, procs / 2, 8);
  pat.add(procs / 2, 0, 8);
  for (auto _ : state) {
    m->reset();
    for (int step = 0; step < 8; ++step) {
      m->charge(0, 5.0);
      m->exchange(pat);
      m->barrier();
    }
    benchmark::DoNotOptimize(m->now());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MachineSuperstepSparse)->Arg(1024)->Arg(65536);

/// SIMD machine superstep loop at scale: the MasPar delta router with a
/// conflict-free bit-flip exchange per superstep.
void BM_MasParSuperstepLoop(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  auto m = machines::make_machine(
      {.platform = machines::Platform::MasPar, .procs = procs, .seed = 9});
  const auto pat = net::patterns::bit_flip(procs, 3, 1, 4);
  for (auto _ : state) {
    m->reset();
    for (int step = 0; step < 8; ++step) {
      m->charge_all(5.0);
      m->exchange(pat);
      m->barrier();
    }
    benchmark::DoNotOptimize(m->now());
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_MasParSuperstepLoop)->Arg(1024)->Arg(16384);

/// CommPattern construction throughput (the per-superstep staging cost of
/// the runtime Exchange).
void BM_PatternBuildPermutation(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  sim::Rng rng(11);
  const auto perm = rng.permutation(procs);
  for (auto _ : state) {
    auto pat = net::patterns::from_permutation(perm, 4);
    benchmark::DoNotOptimize(pat.size());
  }
  state.SetItemsProcessed(state.iterations() * procs);
}
BENCHMARK(BM_PatternBuildPermutation)->Arg(1024)->Arg(65536);

void BM_RadixSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(5);
  std::vector<std::uint32_t> base(n);
  for (auto& k : base) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) {
    auto keys = base;
    algos::radix_sort(keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_RadixSort)->Arg(1 << 12)->Arg(1 << 16);

void BM_MergeKeepLow(benchmark::State& state) {
  const std::size_t n = 4096;
  sim::Rng rng(6);
  std::vector<std::uint32_t> a(n), b(n);
  for (auto& k : a) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto& k : b) k = static_cast<std::uint32_t>(rng.next_u64());
  algos::radix_sort(a);
  algos::radix_sort(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algos::merge_keep_low(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(n));
}
BENCHMARK(BM_MergeKeepLow);

void BM_MatmulKernel(benchmark::State& state) {
  const long n = state.range(0);
  std::vector<double> a(static_cast<std::size_t>(n) * n, 1.0);
  std::vector<double> b(static_cast<std::size_t>(n) * n, 2.0);
  std::vector<double> c(static_cast<std::size_t>(n) * n, 0.0);
  for (auto _ : state) {
    algos::matmul_accumulate<double>(a, b, c, n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulKernel)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
