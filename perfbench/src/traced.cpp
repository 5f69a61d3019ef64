#include "traced.hpp"

#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "net/delta_router.hpp"
#include "net/fat_tree.hpp"
#include "net/mesh_router.hpp"

namespace perfbench {

namespace {

using pcm::machines::Machine;
using pcm::machines::MachineSpec;
using pcm::machines::Platform;
namespace net = pcm::net;
namespace sim = pcm::sim;

/// Times the wrapped router's route/drain. Before route() it forces the
/// pattern's lazy canonicalisation (messages()) and hashes it in spans of
/// their own; otherwise canonicalisation is charged to whichever layer
/// touches the pattern first.
class TracingRouter final : public net::Router {
 public:
  TracingRouter(std::unique_ptr<net::Router> inner, Ledger& ledger)
      : net::Router(inner->procs()), inner_(std::move(inner)), ledger_(ledger) {}

  net::Router& inner() { return *inner_; }

  void route(const net::CommPattern& pattern, sim::ClockSet& clocks,
             sim::Rng& rng) override {
    const auto t0 = Clock::now();
    (void)pattern.messages();
    const auto t1 = Clock::now();
    const std::uint64_t key = pattern.hash();
    const auto t2 = Clock::now();
    inner_->route(pattern, clocks, rng);
    const auto t3 = Clock::now();
    ledger_.canon_s += std::chrono::duration<double>(t1 - t0).count();
    ledger_.hash_s += std::chrono::duration<double>(t2 - t1).count();
    ledger_.route_s += std::chrono::duration<double>(t3 - t2).count();
    ++ledger_.route_calls;
    ledger_.route_msgs += pattern.size();
    ledger_.route_bytes += static_cast<std::uint64_t>(pattern.total_bytes());
    if (seen_.insert(key).second) ++ledger_.distinct;
  }

  void drain(sim::Micros t) override {
    const auto t0 = Clock::now();
    inner_->drain(t);
    ledger_.drain_s += seconds_since(t0);
  }

  void reset() override { inner_->reset(); }
  void new_trial(sim::Rng& rng) override { inner_->new_trial(rng); }
  [[nodiscard]] std::string audit_leak_report(sim::Micros t) const override {
    return inner_->audit_leak_report(t);
  }

 private:
  std::unique_ptr<net::Router> inner_;
  Ledger& ledger_;
  std::unordered_set<std::uint64_t> seen_;
};

/// The factory's GCel mesh shape (machines/gcel.cpp): the squarest
/// width >= sqrt(P) that divides P.
net::MeshRouterParams gcel_mesh(int procs) {
  net::MeshRouterParams p;
  int w = 1;
  while (w * w < procs) ++w;
  while (procs % w != 0) ++w;
  p.width = w;
  p.height = procs / w;
  return p;
}

class TracedMachine final : public Machine {
 public:
  TracedMachine(std::string name, int procs, pcm::machines::LocalCompute lc,
                std::unique_ptr<TracingRouter> router, sim::Micros barrier,
                std::uint64_t seed)
      : Machine(std::move(name), procs, lc, std::move(router), barrier, seed) {
    // The base class hands its Metrics to the decorator; the real router
    // is the one with obs hook sites.
    static_cast<TracingRouter&>(this->router()).inner().set_metrics(&metrics());
  }
};

}  // namespace

std::unique_ptr<Machine> make_traced_machine(const MachineSpec& spec,
                                             Ledger& ledger) {
  const int procs = spec.resolved_procs();
  const std::uint64_t seed = spec.seed;
  auto wrap = [&](std::unique_ptr<net::Router> r) {
    return std::make_unique<TracingRouter>(std::move(r), ledger);
  };
  switch (spec.platform) {
    case Platform::MasPar:
      return std::make_unique<TracedMachine>(
          "MasPar MP-1", procs, pcm::machines::maspar_compute(),
          wrap(std::make_unique<net::DeltaRouter>(procs)), 0.0, seed);
    case Platform::GCel:
      return std::make_unique<TracedMachine>(
          "Parsytec GCel", procs, pcm::machines::gcel_compute(),
          wrap(std::make_unique<net::MeshRouter>(procs, gcel_mesh(procs),
                                                 seed ^ 0x5bd1e995u)),
          3800.0, seed);
    case Platform::CM5:
      return std::make_unique<TracedMachine>(
          "TMC CM-5", procs, pcm::machines::cm5_compute(),
          wrap(std::make_unique<net::FatTree>(procs)), 40.0, seed);
    case Platform::T800:
      break;
  }
  throw std::invalid_argument("perfbench: no traced build for platform " +
                              std::string(pcm::machines::to_string(spec.platform)));
}

}  // namespace perfbench
