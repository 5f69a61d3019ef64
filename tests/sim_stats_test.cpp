#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace pcm::sim {
namespace {

TEST(Stats, EmptySummaryIsZero) {
  const auto s = summarize({});
  EXPECT_EQ(s.n, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Stats, SingleValue) {
  std::vector<double> v{4.0};
  const auto s = summarize(v);
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(s.min, 4.0);
  EXPECT_EQ(s.max, 4.0);
  EXPECT_EQ(s.mean, 4.0);
  EXPECT_EQ(s.median, 4.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, BasicMoments) {
  std::vector<double> v{1, 2, 3, 4, 5};
  const auto s = summarize(v);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, MedianEvenCount) {
  std::vector<double> v{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(summarize(v).median, 2.5);
}

TEST(Stats, AccumulatorMatchesSummarize) {
  Accumulator acc;
  for (double v : {3.0, 1.0, 2.0}) acc.add(v);
  const auto s = acc.summary();
  EXPECT_EQ(s.n, 3u);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 2.0);
  EXPECT_EQ(acc.values().size(), 3u);
}

}  // namespace
}  // namespace pcm::sim
