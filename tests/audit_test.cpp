#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audit/conservation.hpp"
#include "fault/plan.hpp"
#include "machines/machine.hpp"
#include "net/pattern.hpp"
#include "net/router.hpp"
#include "runtime/collectives.hpp"
#include "runtime/exchange.hpp"
#include "sim/rng.hpp"

// The invariant auditor (src/audit/). Golden-path runs on the three paper
// machines must pass with checks actually executed; deliberately broken
// routers must raise AuditError naming machine, superstep and resource.
//
// gtest_discover_tests runs every TEST in its own process, so toggling the
// process-global audit flag here cannot leak between tests; the RAII guard
// still restores it for in-process reruns.

namespace pcm {
namespace {

class AuditOn {
 public:
  AuditOn() { audit::set_enabled(true); }
  ~AuditOn() { audit::set_enabled(false); }
};

// --- error type ------------------------------------------------------------

TEST(AuditError, ComposesContextIntoMessage) {
  audit::AuditError e("packet-conservation", "link 7", "dropped 3 bytes");
  EXPECT_EQ(e.invariant(), "packet-conservation");
  EXPECT_EQ(e.resource(), "link 7");
  EXPECT_EQ(e.superstep(), -1);
  const std::string before = e.what();
  EXPECT_NE(before.find("packet-conservation"), std::string::npos);
  EXPECT_NE(before.find("link 7"), std::string::npos);
  EXPECT_NE(before.find("dropped 3 bytes"), std::string::npos);
  EXPECT_EQ(before.find("superstep"), std::string::npos);

  e.set_context("Parsytec GCel", 4);
  const std::string after = e.what();
  EXPECT_EQ(e.machine(), "Parsytec GCel");
  EXPECT_EQ(e.superstep(), 4);
  EXPECT_NE(after.find("Parsytec GCel"), std::string::npos);
  EXPECT_NE(after.find("superstep 4"), std::string::npos);
}

// --- enable/disable --------------------------------------------------------

TEST(AuditToggle, CompiledInAndDisabledByDefault) {
  EXPECT_FALSE(audit::enabled());  // runtime default is off
  EXPECT_TRUE(audit::set_enabled(true));
  EXPECT_TRUE(audit::enabled());
  EXPECT_TRUE(audit::set_enabled(false));
  EXPECT_FALSE(audit::enabled());
}

// --- conservation primitives -----------------------------------------------

TEST(Conservation, EndpointBytesSumsPerChannel) {
  net::CommPattern pat(4);
  pat.add(0, 1, 8);
  pat.add(0, 1, 8);
  pat.add(2, 3, 100);
  const auto bytes = audit::endpoint_bytes(pat);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes, (audit::EndpointBytes{{0, 1, 16}, {2, 3, 100}}));
}

TEST(Conservation, DetectsDroppedDuplicatedAndMisdelivered) {
  audit::EndpointBytes injected{{0, 1, 16}, {2, 3, 100}};

  // Exact match: fine.
  EXPECT_NO_THROW(audit::check_endpoints_conserved(injected, injected));

  // Dropped bytes on a channel.
  audit::EndpointBytes dropped{{0, 1, 8}, {2, 3, 100}};
  EXPECT_THROW(audit::check_endpoints_conserved(injected, dropped),
               audit::AuditError);

  // A whole channel missing.
  audit::EndpointBytes missing{{0, 1, 16}};
  EXPECT_THROW(audit::check_endpoints_conserved(injected, missing),
               audit::AuditError);

  // Bytes that were never injected (duplication / mis-delivery).
  audit::EndpointBytes extra{{0, 1, 16}, {1, 0, 4}, {2, 3, 100}};
  EXPECT_THROW(audit::check_endpoints_conserved(injected, extra),
               audit::AuditError);
}

// --- pinned conservation messages ------------------------------------------
//
// The full AuditError text is part of the conservation check's contract, as
// is which channel it names when several fail at once: the lowest (src, dst)
// whose injected total is not matched, and only then the lowest channel that
// delivered bytes nobody injected.

/// Byte totals of a pattern staged from (src, dst, bytes), in that order.
audit::EndpointBytes totals(
    int procs, std::initializer_list<std::array<int, 3>> msgs) {
  net::CommPattern pat(procs);
  for (const auto& [src, dst, bytes] : msgs) pat.add(src, dst, bytes);
  return audit::endpoint_bytes(pat);
}

/// what() of the AuditError the check raises; empty when it passes.
std::string conservation_error(const audit::EndpointBytes& injected,
                               const audit::EndpointBytes& delivered) {
  try {
    audit::check_endpoints_conserved(injected, delivered);
  } catch (const audit::AuditError& e) {
    return e.what();
  }
  return "";
}

TEST(ConservationMessage, ShortChannel) {
  const auto injected = totals(4, {{0, 1, 8}, {0, 1, 8}, {2, 3, 100}});
  const auto delivered = totals(4, {{0, 1, 8}, {2, 3, 100}});
  EXPECT_EQ(conservation_error(injected, delivered),
            "audit: invariant 'packet-conservation' violated (resource: "
            "channel src=0 dst=1): injected 16 bytes, delivered 8");
}

TEST(ConservationMessage, MissingChannel) {
  const auto injected = totals(4, {{0, 1, 16}, {2, 3, 100}});
  const auto delivered = totals(4, {{0, 1, 16}});
  EXPECT_EQ(conservation_error(injected, delivered),
            "audit: invariant 'packet-conservation' violated (resource: "
            "channel src=2 dst=3): injected 100 bytes, delivered 0");
}

TEST(ConservationMessage, NeverInjectedChannel) {
  const auto injected = totals(4, {{0, 1, 16}, {2, 3, 100}});
  const auto delivered = totals(4, {{0, 1, 16}, {2, 3, 100}, {1, 0, 4}});
  EXPECT_EQ(conservation_error(injected, delivered),
            "audit: invariant 'packet-conservation' violated (resource: "
            "channel src=1 dst=0): delivered 4 bytes that were never "
            "injected");
}

TEST(ConservationMessage, LowestChannelFirstInjectedBeforeExtras) {
  // Senders staged out of order, and sender 2's queue revisits dst 3 after
  // dst 1: the totals are per channel whatever the staging order.
  const auto injected =
      totals(4, {{3, 0, 4}, {2, 3, 60}, {2, 1, 8}, {2, 3, 40}, {0, 2, 8}});
  // Two extras (1,0) and (0,3), a short (2,3) and a missing (3,0).
  EXPECT_EQ(conservation_error(injected, totals(4, {{1, 0, 4},
                                                    {0, 2, 8},
                                                    {0, 3, 4},
                                                    {2, 3, 50},
                                                    {2, 1, 8}})),
            "audit: invariant 'packet-conservation' violated (resource: "
            "channel src=2 dst=3): injected 100 bytes, delivered 50");
  EXPECT_EQ(conservation_error(injected, totals(4, {{1, 0, 4},
                                                    {0, 2, 8},
                                                    {0, 3, 4},
                                                    {2, 3, 100},
                                                    {2, 1, 8}})),
            "audit: invariant 'packet-conservation' violated (resource: "
            "channel src=3 dst=0): injected 4 bytes, delivered 0");
  EXPECT_EQ(conservation_error(injected, totals(4, {{1, 0, 4},
                                                    {0, 2, 8},
                                                    {0, 3, 4},
                                                    {2, 3, 100},
                                                    {3, 0, 4},
                                                    {2, 1, 8}})),
            "audit: invariant 'packet-conservation' violated (resource: "
            "channel src=0 dst=3): delivered 4 bytes that were never "
            "injected");
  EXPECT_EQ(conservation_error(injected, injected), "");
}

// --- oracle equivalence ----------------------------------------------------
//
// The sorted-table checker against the ordered-map checker it replaced, kept
// here as the reference: the same tables, the same verdict, the same message.

using OracleBytes = std::map<std::pair<int, int>, long>;

std::string oracle_error(const OracleBytes& injected,
                         const OracleBytes& delivered) {
  auto describe = [](const std::pair<int, int>& key) {
    return "channel src=" + std::to_string(key.first) +
           " dst=" + std::to_string(key.second);
  };
  for (const auto& [key, bytes] : injected) {
    const auto it = delivered.find(key);
    const long got = it == delivered.end() ? 0 : it->second;
    if (got != bytes) {
      return audit::AuditError("packet-conservation", describe(key),
                               "injected " + std::to_string(bytes) +
                                   " bytes, delivered " + std::to_string(got))
          .what();
    }
  }
  for (const auto& [key, bytes] : delivered) {
    if (injected.find(key) == injected.end()) {
      return audit::AuditError("packet-conservation", describe(key),
                               "delivered " + std::to_string(bytes) +
                                   " bytes that were never injected")
          .what();
    }
  }
  return "";
}

OracleBytes oracle_totals(const std::vector<audit::ChannelBytes>& records) {
  OracleBytes out;
  for (const auto& r : records) out[{r.src, r.dst}] += r.bytes;
  return out;
}

audit::EndpointBytes flatten(const OracleBytes& totals) {
  audit::EndpointBytes out;
  for (const auto& [key, bytes] : totals) {
    out.push_back({key.first, key.second, bytes});
  }
  return out;
}

TEST(ConservationOracle, MatchesOrderedMapOnPerturbedDeliveries) {
  int passed = 0;
  int short_or_missing = 0;
  int never_injected = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    sim::Rng rng(seed);
    const int procs = static_cast<int>(rng.next_in(1, 12));
    const int n = static_cast<int>(rng.next_in(0, 40));
    // Messages in random sender order, revisiting channels at random.
    std::vector<audit::ChannelBytes> sent;
    net::CommPattern pat(procs);
    for (int k = 0; k < n; ++k) {
      const audit::ChannelBytes m{static_cast<int>(rng.next_below(procs)),
                                  static_cast<int>(rng.next_below(procs)),
                                  rng.next_in(1, 64)};
      pat.add(m.src, m.dst, static_cast<int>(m.bytes));
      sent.push_back(m);
    }
    const auto injected = audit::endpoint_bytes(pat);
    ASSERT_EQ(injected, flatten(oracle_totals(sent))) << "seed " << seed;

    // Deliver every message once, then perturb up to three records.
    std::vector<audit::ChannelBytes> got = sent;
    const int faults = static_cast<int>(rng.next_in(0, 3));
    for (int f = 0; f < faults && !got.empty(); ++f) {
      const auto k = static_cast<std::size_t>(rng.next_below(got.size()));
      switch (rng.next_below(5)) {
        case 0:  // dropped
          got.erase(got.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        case 1:  // duplicated
          got.push_back(got[k]);
          break;
        case 2:  // re-addressed
          got[k].dst = static_cast<int>(rng.next_below(procs));
          break;
        case 3:  // duplicated, and the copy re-addressed
          got.push_back(got[k]);
          got.back().src = static_cast<int>(rng.next_below(procs));
          break;
        default:  // truncated
          got[k].bytes = rng.next_in(0, got[k].bytes - 1);
          break;
      }
    }
    // A mailbox walk visits destinations in ascending order; half the
    // cases keep that order, the rest deliver in arbitrary order.
    rng.shuffle(std::span<audit::ChannelBytes>(got));
    if (seed % 2 == 0) {
      std::stable_sort(
          got.begin(), got.end(),
          [](const audit::ChannelBytes& a, const audit::ChannelBytes& b) {
            return a.dst < b.dst;
          });
    }
    const auto delivered = audit::channel_totals(got);
    ASSERT_EQ(delivered, flatten(oracle_totals(got))) << "seed " << seed;

    const std::string expected =
        oracle_error(oracle_totals(sent), oracle_totals(got));
    EXPECT_EQ(conservation_error(injected, delivered), expected)
        << "seed " << seed;
    if (expected.empty()) {
      ++passed;
    } else if (expected.find("never injected") == std::string::npos) {
      ++short_or_missing;
    } else {
      ++never_injected;
    }
  }
  // Every verdict the checker can reach was exercised.
  EXPECT_GT(passed, 0);
  EXPECT_GT(short_or_missing, 0);
  EXPECT_GT(never_injected, 0);
}

TEST(ConservationOracle, PartialDropPlanUnderAuditInBothModes) {
  // Half the messages dropped: some channels lose part of their bytes and
  // some lose every copy, leaving a 0-byte injected entry that must match
  // an absent delivered one.
  const AuditOn on;
  struct PlanOn {
    PlanOn() {
      fault::set_plan(fault::parse_fault_plan("drop:rate=0.5:seed=13"));
    }
    ~PlanOn() { fault::set_plan(std::nullopt); }
  } const plan;
  for (const auto mode :
       {runtime::TransferMode::Word, runtime::TransferMode::Block}) {
    auto m = machines::make_machine(machines::MachineSpec{
        .platform = machines::Platform::CM5, .procs = 16, .seed = 5});
    ASSERT_NE(m->injector(), nullptr);
    const auto before = audit::checks_passed();
    runtime::Exchange<std::uint32_t> ex(*m, mode);
    std::set<std::pair<int, int>> staged;
    for (int p = 0; p < m->procs(); ++p) {
      // Two parcels on one channel around a parcel on another, so sender
      // queues revisit a destination.
      const int near = (p + 1) % m->procs();
      const int far = (p + 5) % m->procs();
      ex.send(p, near, std::vector<std::uint32_t>{1u, 2u});
      ex.send(p, far, std::vector<std::uint32_t>{3u});
      ex.send(p, near, std::vector<std::uint32_t>{4u, 5u, 6u});
      staged.insert({p, near});
      staged.insert({p, far});
    }
    std::size_t elements = 0;
    std::set<std::pair<int, int>> reached;
    EXPECT_NO_THROW({
      const auto box = ex.run();
      for (int p = 0; p < box.procs(); ++p) {
        for (const auto& parcel : box.at(p)) {
          elements += parcel.data.size();
          reached.insert({parcel.src, p});
        }
      }
    });
    m->barrier();
    EXPECT_GT(audit::checks_passed(), before);
    EXPECT_GT(elements, 0u);
    EXPECT_LT(elements, static_cast<std::size_t>(m->procs()) * 6u);
    EXPECT_LT(reached.size(), staged.size())
        << "no channel lost every copy; pick another plan seed";
  }
}

TEST(Conservation, PatternBoundsRejectBadMessages) {
  net::CommPattern ok(4);
  ok.add(0, 3, 8);
  EXPECT_NO_THROW(audit::check_pattern_bounds(ok, 4));

  net::CommPattern bad_dst(4);
  bad_dst.add(0, 3, 8);
  EXPECT_THROW(audit::check_pattern_bounds(bad_dst, 2), audit::AuditError);
}

// --- misbehaving routers ---------------------------------------------------

// A router that moves a processor's clock backwards by `skew` µs.
class BackwardsRouter final : public net::Router {
 public:
  BackwardsRouter(int procs, sim::Micros skew)
      : net::Router(procs), skew_(skew) {}
  void route(const net::CommPattern&, sim::ClockSet& clocks,
             sim::Rng&) override {
    clocks.set(0, clocks.at(0) - skew_);
  }
  void drain(sim::Micros) override {}
  void reset() override {}

 private:
  sim::Micros skew_;
};

// A router that reports a resource still claimed after the barrier drain.
class LeakyRouter final : public net::Router {
 public:
  explicit LeakyRouter(int procs) : net::Router(procs) {}
  void route(const net::CommPattern&, sim::ClockSet& clocks,
             sim::Rng&) override {
    for (int p = 0; p < clocks.size(); ++p) clocks.advance(p, 10.0);
  }
  void drain(sim::Micros) override {}
  void reset() override {}
  [[nodiscard]] std::string audit_leak_report(sim::Micros t) const override {
    return "link 3 held until " + std::to_string(t + 5.0) + " us";
  }
};

// Machine's constructor is protected; the harness grants the tests access.
class TestMachine final : public machines::Machine {
 public:
  TestMachine(std::string name, int procs,
              std::unique_ptr<net::Router> router)
      : Machine(std::move(name), procs, machines::LocalCompute{},
                std::move(router), 0.0, 7) {}
};

TEST(AuditViolation, BackwardsClockRaisesAnnotatedError) {
  AuditOn on;
  TestMachine m("test-machine", 4,
                std::make_unique<BackwardsRouter>(4, 25.0));
  m.charge(0, 100.0);  // give the clock room to move backwards
  net::CommPattern pat(4);
  pat.add(0, 1, 8);
  try {
    m.exchange(pat);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "clock-monotonicity");
    EXPECT_EQ(e.machine(), "test-machine");
    EXPECT_EQ(e.superstep(), 0);
    EXPECT_EQ(e.resource(), "pe:0");
  }
}

TEST(AuditViolation, OccupancyLeakSurfacesAtBarrier) {
  AuditOn on;
  TestMachine m("leaky", 4, std::make_unique<LeakyRouter>(4));
  net::CommPattern pat(4);
  pat.add(0, 1, 8);
  m.exchange(pat);
  EXPECT_THROW(m.barrier(), audit::AuditError);
}

TEST(AuditViolation, OccupancyLeakNamesTheResource) {
  AuditOn on;
  TestMachine m("leaky", 4, std::make_unique<LeakyRouter>(4));
  try {
    m.barrier();
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "occupancy-leak");
    EXPECT_EQ(e.machine(), "leaky");
    EXPECT_NE(e.resource().find("link 3"), std::string::npos);
  }
}

TEST(AuditViolation, NegativeChargeRejected) {
  AuditOn on;
  TestMachine m("neg", 2, std::make_unique<LeakyRouter>(2));
  try {
    m.charge(1, -5.0);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.invariant(), "clock-monotonicity");
    EXPECT_EQ(e.resource(), "pe:1");
  }
}

TEST(AuditViolation, SilentWhenDisabled) {
  // With auditing off the hooks must not interfere: the broken routers run
  // unchecked (Release asserts are off; the clocks just go wrong).
  ASSERT_FALSE(audit::enabled());
  TestMachine m("quiet", 4, std::make_unique<LeakyRouter>(4));
  net::CommPattern pat(4);
  pat.add(0, 1, 8);
  EXPECT_NO_THROW(m.exchange(pat));
  EXPECT_NO_THROW(m.barrier());
}

TEST(AuditViolation, SupersteppedContext) {
  AuditOn on;
  TestMachine m("stepper", 4, std::make_unique<BackwardsRouter>(4, 1e9));
  // Two clean barriers first: the violation must report superstep 2.
  m.barrier();
  m.barrier();
  m.charge_all(5.0);
  net::CommPattern pat(4);
  pat.add(2, 0, 4);
  try {
    m.exchange(pat);
    FAIL() << "expected AuditError";
  } catch (const audit::AuditError& e) {
    EXPECT_EQ(e.superstep(), 2);
  }
}

// --- golden path on the paper machines -------------------------------------

void run_audited_smoke(machines::Platform platform) {
  AuditOn on;
  const auto before = audit::checks_passed();
  auto m = machines::make_machine(
      machines::MachineSpec{.platform = platform, .procs = 16, .seed = 11});
  const int P = m->procs();

  // A few supersteps mixing compute, an all-to-all exchange through the
  // full runtime path (pattern bounds, routing, delivery conservation) and
  // barriers.
  for (int step = 0; step < 3; ++step) {
    for (int p = 0; p < P; ++p) m->charge(p, 1.5 * (p + 1));
    runtime::Exchange<std::uint32_t> ex(*m, runtime::TransferMode::Block);
    for (int src = 0; src < P; ++src) {
      for (int dst = 0; dst < P; ++dst) {
        if (src == dst) continue;
        ex.send(src, dst, std::vector<std::uint32_t>{
                              static_cast<std::uint32_t>(src * P + dst)});
      }
    }
    const auto box = ex.run();
    for (int p = 0; p < P; ++p) {
      EXPECT_EQ(box.at(p).size(), static_cast<std::size_t>(P - 1));
    }
    m->barrier();
  }
  EXPECT_EQ(m->superstep(), 3);
  EXPECT_GT(audit::checks_passed(), before)
      << "instrumentation did not run on " << m->name();
}

TEST(AuditGoldenPath, MasPar) { run_audited_smoke(machines::Platform::MasPar); }
TEST(AuditGoldenPath, GCel) { run_audited_smoke(machines::Platform::GCel); }
TEST(AuditGoldenPath, CM5) { run_audited_smoke(machines::Platform::CM5); }

TEST(AuditGoldenPath, CollectivesUnderAudit) {
  AuditOn on;
  auto m = machines::make_machine(machines::MachineSpec{
      .platform = machines::Platform::CM5, .procs = 16, .seed = 3});
  std::vector<std::vector<std::uint32_t>> rows(16);
  for (int p = 0; p < 16; ++p) {
    rows[static_cast<std::size_t>(p)].assign(16, static_cast<std::uint32_t>(p));
  }
  const auto cols = runtime::bpram_transpose(*m, rows);
  for (int p = 0; p < 16; ++p) {
    for (int q = 0; q < 16; ++q) {
      EXPECT_EQ(cols[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)],
                static_cast<std::uint32_t>(q));
    }
  }
  m->barrier();
}

}  // namespace
}  // namespace pcm
