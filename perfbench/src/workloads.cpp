#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>

#include "algos/apsp.hpp"
#include "algos/bitonic.hpp"
#include "algos/matmul.hpp"
#include "algos/reference.hpp"
#include "audit/audit.hpp"
#include "obs/obs.hpp"
#include "race/race.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using pcm::machines::Machine;
using pcm::machines::MachineSpec;
using pcm::machines::Platform;
namespace algos = pcm::algos;

PlaneScope::PlaneScope(unsigned planes) {
  const bool obs = pcm::obs::set_enabled((planes & kObs) != 0);
  const bool audit = pcm::audit::set_enabled((planes & kAudit) != 0);
  const bool race = pcm::race::set_enabled((planes & kRace) != 0);
  ok_ = obs && audit && race;
}

PlaneScope::~PlaneScope() {
  pcm::obs::set_enabled(false);
  pcm::audit::set_enabled(false);
  pcm::race::set_enabled(false);
}

namespace {

/// The stream cell `xi`'s inputs are drawn from.
pcm::sim::Rng input_rng(std::uint64_t seed, std::size_t xi, std::uint64_t k) {
  return pcm::sim::Rng(seed).split(xi).split(k);
}

class BitonicInstance final : public Instance {
 public:
  BitonicInstance(const Workload& w, std::uint64_t seed,
                  algos::BitonicVariant v)
      : variant_(v) {
    const auto procs = static_cast<std::size_t>(w.machine.resolved_procs());
    for (std::size_t xi = 0; xi < w.xs.size(); ++xi) {
      auto rng = input_rng(seed, xi, 0);
      std::vector<std::uint32_t> keys(static_cast<std::size_t>(w.xs[xi]) *
                                      procs);
      for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
      in_.push_back(std::move(keys));
    }
    out_.resize(in_.size());
    sorted_.resize(in_.size());
  }

  double run(Machine& m, std::size_t xi) override {
    auto r = algos::run_bitonic(m, in_[xi], variant_);
    out_[xi] = std::move(r.keys);
    return r.time_per_key;
  }

  std::string check(std::size_t xi) override {
    if (!sorted_[xi]) {
      sorted_[xi] = in_[xi];
      std::sort(sorted_[xi]->begin(), sorted_[xi]->end());
    }
    if (out_[xi] != *sorted_[xi]) {
      return "bitonic output is not the sorted permutation of its input";
    }
    return {};
  }

 private:
  algos::BitonicVariant variant_;
  std::vector<std::vector<std::uint32_t>> in_;
  std::vector<std::vector<std::uint32_t>> out_;
  std::vector<std::optional<std::vector<std::uint32_t>>> sorted_;
};

class MatmulInstance final : public Instance {
 public:
  MatmulInstance(const Workload& w, std::uint64_t seed) {
    for (std::size_t xi = 0; xi < w.xs.size(); ++xi) {
      const int n = static_cast<int>(w.xs[xi]);
      n_.push_back(n);
      a_.push_back(random_square(n, input_rng(seed, xi, 0)));
      b_.push_back(random_square(n, input_rng(seed, xi, 1)));
    }
    out_.resize(n_.size());
    ref_.resize(n_.size());
  }

  double run(Machine& m, std::size_t xi) override {
    auto r = algos::run_matmul<double>(m, a_[xi], b_[xi], n_[xi],
                                       algos::MatmulVariant::BspUnstaggered);
    out_[xi] = std::move(r.c);
    return r.time;
  }

  // Tolerance: |c - ref| <= 1e-9 * N elementwise. Entries are sums of N
  // products of values in [-1, 1), so the blocked parallel summation order
  // differs from the serial one by far less than that.
  std::string check(std::size_t xi) override {
    if (!ref_[xi]) ref_[xi] = algos::ref::matmul(a_[xi], b_[xi], n_[xi]);
    const auto& want = *ref_[xi];
    if (out_[xi].size() != want.size()) return "matmul output has wrong size";
    const double tol = 1e-9 * n_[xi];
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!(std::fabs(out_[xi][i] - want[i]) <= tol)) {
        return "matmul entry " + std::to_string(i) + " differs from ref::matmul";
      }
    }
    return {};
  }

 private:
  static std::vector<double> random_square(int n, pcm::sim::Rng rng) {
    std::vector<double> m(static_cast<std::size_t>(n) * n);
    for (auto& v : m) v = rng.next_double() * 2.0 - 1.0;
    return m;
  }

  std::vector<int> n_;
  std::vector<std::vector<double>> a_, b_, out_;
  std::vector<std::optional<std::vector<double>>> ref_;
};

class ApspInstance final : public Instance {
 public:
  ApspInstance(const Workload& w, std::uint64_t seed) {
    for (std::size_t xi = 0; xi < w.xs.size(); ++xi) {
      const int n = static_cast<int>(w.xs[xi]);
      n_.push_back(n);
      d0_.push_back(algos::ref::random_digraph(
          n, 0.05, input_rng(seed, xi, 0).next_u64()));
    }
    out_.resize(n_.size());
    ref_.resize(n_.size());
  }

  double run(Machine& m, std::size_t xi) override {
    auto r = algos::run_apsp(m, d0_[xi], n_[xi], algos::ApspVariant::MpBsp);
    out_[xi] = std::move(r.dist);
    return r.time;
  }

  // Exact: parallel Floyd relaxes every entry with the same float
  // operations in the same k order as the serial oracle.
  std::string check(std::size_t xi) override {
    if (!ref_[xi]) ref_[xi] = algos::ref::floyd(d0_[xi], n_[xi]);
    const auto& want = *ref_[xi];
    if (out_[xi].size() != want.size() ||
        std::memcmp(out_[xi].data(), want.data(),
                    want.size() * sizeof(float)) != 0) {
      return "apsp distances differ from ref::floyd";
    }
    return {};
  }

 private:
  std::vector<int> n_;
  std::vector<std::vector<float>> d0_, out_;
  std::vector<std::optional<std::vector<float>>> ref_;
};

std::unique_ptr<Instance> make_bitonic_mpbsp(const Workload& w,
                                             std::uint64_t seed) {
  return std::make_unique<BitonicInstance>(w, seed,
                                           algos::BitonicVariant::MpBsp);
}

std::unique_ptr<Instance> make_bitonic_bsp(const Workload& w,
                                           std::uint64_t seed) {
  return std::make_unique<BitonicInstance>(w, seed,
                                           algos::BitonicVariant::Bsp);
}

std::unique_ptr<Instance> make_matmul(const Workload& w, std::uint64_t seed) {
  return std::make_unique<MatmulInstance>(w, seed);
}

std::unique_ptr<Instance> make_apsp(const Workload& w, std::uint64_t seed) {
  return std::make_unique<ApspInstance>(w, seed);
}

// Machine seeds are the figure benches' defaults (fig05, fig12, fig04,
// fig06); NOTES.md gives the rationale for each workload.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"bitonic_maspar_4k",
       MachineSpec{.platform = Platform::MasPar, .procs = 4096, .seed = 1105},
       {16, 64}, kNoPlanes, &make_bitonic_mpbsp},
      {"apsp_maspar_planes",
       MachineSpec{.platform = Platform::MasPar, .procs = 1024, .seed = 1112},
       {128, 256}, kObs | kAudit | kRace, &make_apsp},
      {"matmul_cm5",
       MachineSpec{.platform = Platform::CM5, .procs = 64, .seed = 1104},
       {256, 512}, kNoPlanes, &make_matmul},
      {"sort_gcel",
       MachineSpec{.platform = Platform::GCel, .procs = 64, .seed = 1106},
       {256, 1024, 4096}, kNoPlanes, &make_bitonic_bsp},
  };
  return all;
}

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string s;
  for (const auto& w : workloads()) s += (s.empty() ? "" : ", ") + w.name;
  return s;
}

}  // namespace perfbench
