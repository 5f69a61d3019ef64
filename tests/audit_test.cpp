#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/conservation.hpp"
#include "machines/machine.hpp"
#include "net/pattern.hpp"
#include "net/router.hpp"
#include "runtime/collectives.hpp"
#include "runtime/exchange.hpp"

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
  EXPECT_EQ(bytes.at({0, 1}), 16);
  EXPECT_EQ(bytes.at({2, 3}), 100);
}

TEST(Conservation, DetectsDroppedDuplicatedAndMisdelivered) {
  audit::EndpointBytes injected{{{0, 1}, 16}, {{2, 3}, 100}};

  // Exact match: fine.
  EXPECT_NO_THROW(audit::check_endpoints_conserved(injected, injected));

  // Dropped bytes on a channel.
  audit::EndpointBytes dropped{{{0, 1}, 8}, {{2, 3}, 100}};
  EXPECT_THROW(audit::check_endpoints_conserved(injected, dropped),
               audit::AuditError);

  // A whole channel missing.
  audit::EndpointBytes missing{{{0, 1}, 16}};
  EXPECT_THROW(audit::check_endpoints_conserved(injected, missing),
               audit::AuditError);

  // Bytes that were never injected (duplication / mis-delivery).
  audit::EndpointBytes extra{{{0, 1}, 16}, {{2, 3}, 100}, {{1, 0}, 4}};
  EXPECT_THROW(audit::check_endpoints_conserved(injected, extra),
               audit::AuditError);
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
