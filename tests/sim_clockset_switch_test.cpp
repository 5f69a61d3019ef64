#include <gtest/gtest.h>

#include <cstdlib>

#include "sim/clockset.hpp"
#include "sim/env_switch.hpp"

namespace pcm::sim {
namespace {

TEST(ClockSet, StartsAtZero) {
  ClockSet c(4);
  EXPECT_EQ(c.size(), 4);
  EXPECT_EQ(c.max(), 0.0);
  EXPECT_EQ(c.min(), 0.0);
}

TEST(ClockSet, AdvanceIsPerProcessor) {
  ClockSet c(3);
  c.advance(1, 5.0);
  EXPECT_EQ(c.at(0), 0.0);
  EXPECT_EQ(c.at(1), 5.0);
  EXPECT_EQ(c.max(), 5.0);
  EXPECT_EQ(c.min(), 0.0);
}

TEST(ClockSet, WaitUntilNeverMovesBackwards) {
  ClockSet c(2);
  c.advance(0, 10.0);
  c.wait_until(0, 5.0);
  EXPECT_EQ(c.at(0), 10.0);
  c.wait_until(1, 7.0);
  EXPECT_EQ(c.at(1), 7.0);
}

TEST(ClockSet, BarrierSynchronisesToMakespanPlusCost) {
  ClockSet c(3);
  c.advance(2, 9.0);
  c.barrier(1.5);
  for (int p = 0; p < 3; ++p) EXPECT_EQ(c.at(p), 10.5);
}

TEST(ClockSet, ResetZeroes) {
  ClockSet c(2);
  c.advance(0, 3.0);
  c.reset();
  EXPECT_EQ(c.max(), 0.0);
}

TEST(EnvSwitch, UnsetEmptyAndZeroAreOffAnythingElseIsOn) {
  EXPECT_FALSE(env_switch_on(nullptr));  // variable unset
  EXPECT_FALSE(env_switch_on(""));
  EXPECT_FALSE(env_switch_on("0"));
  EXPECT_TRUE(env_switch_on("1"));
  EXPECT_TRUE(env_switch_on("00"));
  EXPECT_TRUE(env_switch_on("yes"));
}

TEST(EnvSwitch, ReadsTheVariableOnceThenFollowsSet) {
  const char* var = "PCM_TEST_ENV_SWITCH";
  ::setenv(var, "yes", 1);
  EnvSwitch s(var);
  ::setenv(var, "0", 1);
  EXPECT_TRUE(s.on());  // a later change to the environment is not seen
  EXPECT_FALSE(EnvSwitch(var).on());
  s.set_on(false);
  EXPECT_FALSE(s.on());
  s.set_on(true);
  EXPECT_TRUE(s.on());
  ::unsetenv(var);
  EXPECT_FALSE(EnvSwitch(var).on());
}

}  // namespace
}  // namespace pcm::sim
