#include <gtest/gtest.h>

#include "runtime/dist.hpp"
#include "runtime/exchange.hpp"
#include "runtime/grid.hpp"
#include "runtime/spmd.hpp"
#include "test_util.hpp"

namespace pcm::runtime {
namespace {

// ---- BlockDist property sweep ----------------------------------------------

// Both fields are 8 bytes so the struct has no padding: gtest names each case
// by printing the parameter's raw bytes, and padding bytes are indeterminate,
// which would give the same case a different name on every build.
struct DistCase {
  long n;
  long parts;
};

class BlockDistP : public ::testing::TestWithParam<DistCase> {};

TEST_P(BlockDistP, PartitionIsExactAndOrdered) {
  const auto [n, parts] = GetParam();
  BlockDist d{n, static_cast<int>(parts)};
  long total = 0;
  long prev_hi = 0;
  for (int i = 0; i < parts; ++i) {
    const auto [lo, hi] = d.range_of(i);
    EXPECT_EQ(lo, prev_hi);
    EXPECT_EQ(hi - lo, d.size_of(i));
    EXPECT_LE(d.size_of(i), d.max_size());
    total += hi - lo;
    prev_hi = hi;
  }
  EXPECT_EQ(total, n);
}

TEST_P(BlockDistP, OwnerAndLocalAreConsistent) {
  const auto [n, parts] = GetParam();
  BlockDist d{n, static_cast<int>(parts)};
  for (long g = 0; g < n; ++g) {
    const int o = d.owner_of(g);
    const auto [lo, hi] = d.range_of(o);
    EXPECT_GE(g, lo);
    EXPECT_LT(g, hi);
    EXPECT_EQ(d.local_of(g), g - lo);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockDistP,
                         ::testing::Values(DistCase{0, 4}, DistCase{1, 4},
                                           DistCase{4, 4}, DistCase{5, 4},
                                           DistCase{7, 3}, DistCase{100, 7},
                                           DistCase{64, 64}, DistCase{65, 64},
                                           DistCase{1000, 13}));

TEST(BlockScatterGather, RoundTrip) {
  std::vector<int> v(103);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  const auto blocks = block_scatter(v, 7);
  EXPECT_EQ(blocks.size(), 7u);
  EXPECT_EQ(block_gather(blocks), v);
}

// ---- grids ------------------------------------------------------------------

TEST(Grid3, RankRoundTrip) {
  Grid3 g{4};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = 0; k < 4; ++k) {
        const int r = g.rank(i, j, k);
        EXPECT_EQ(g.i_of(r), i);
        EXPECT_EQ(g.j_of(r), j);
        EXPECT_EQ(g.k_of(r), k);
      }
    }
  }
}

TEST(Grid3, Fit) {
  EXPECT_EQ(Grid3::fit(64).q, 4);
  EXPECT_EQ(Grid3::fit(1024).q, 10);
  EXPECT_EQ(Grid3::fit(1000).q, 10);
  EXPECT_EQ(Grid3::fit(63).q, 3);
  EXPECT_EQ(Grid3::fit(1).q, 1);
}

TEST(Grid2, FitAndMembers) {
  EXPECT_EQ(Grid2::fit(64).side, 8);
  EXPECT_EQ(Grid2::fit(1024).side, 32);
  EXPECT_EQ(Grid2::fit(17).side, 4);
  Grid2 g{4};
  const auto row = g.row_members(2);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], 8);
  EXPECT_EQ(row[3], 11);
  const auto col = g.col_members(1);
  EXPECT_EQ(col[0], 1);
  EXPECT_EQ(col[3], 13);
  EXPECT_EQ(g.row_of(9), 2);
  EXPECT_EQ(g.col_of(9), 1);
}

// ---- exchange / mailbox ------------------------------------------------------

TEST(Exchange, WordModeStagesOneMessagePerElement) {
  auto m = test::small_cm5();
  Exchange<double> ex(*m, TransferMode::Word);
  ex.send(0, 1, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(ex.staged_messages(), 3u);
  EXPECT_EQ(ex.pattern().sends_of(0).size(), 3u);
  EXPECT_EQ(ex.pattern().sends_of(0)[0].bytes, 8);
}

TEST(Exchange, BlockModeStagesOneMessagePerParcel) {
  auto m = test::small_cm5();
  Exchange<double> ex(*m, TransferMode::Block);
  ex.send(0, 1, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_EQ(ex.staged_messages(), 1u);
  EXPECT_EQ(ex.pattern().sends_of(0)[0].bytes, 24);
}

TEST(Exchange, EmptySendIsIgnored) {
  auto m = test::small_cm5();
  Exchange<double> ex(*m, TransferMode::Block);
  ex.send(0, 1, std::vector<double>{});
  EXPECT_EQ(ex.staged_messages(), 0u);
}

TEST(Exchange, DeliversPayloadsWithTags) {
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Block);
  ex.send(0, 2, std::vector<int>{7, 8}, /*tag=*/5);
  ex.send(1, 2, std::vector<int>{9}, /*tag=*/6);
  auto box = ex.run();
  ASSERT_EQ(box.at(2).size(), 2u);
  EXPECT_EQ(box.count_at(2), 3u);
  const auto tagged = box.with_tag(2, 6);
  ASSERT_EQ(tagged.size(), 1u);
  EXPECT_EQ(tagged[0]->src, 1);
  EXPECT_EQ(tagged[0]->data.front(), 9);
  EXPECT_GT(m->now(2), 0.0);
}

TEST(Exchange, ReusableAfterRun) {
  auto m = test::small_cm5();
  Exchange<int> ex(*m, TransferMode::Block);
  ex.send(0, 1, std::vector<int>{1});
  (void)ex.run();
  EXPECT_EQ(ex.staged_messages(), 0u);
  ex.send(1, 0, std::vector<int>{2});
  auto box = ex.run();
  EXPECT_EQ(box.count_at(0), 1u);
}

TEST(Exchange, SendValueHelper) {
  auto m = test::small_cm5();
  Exchange<float> ex(*m, TransferMode::Word);
  ex.send_value(3, 4, 2.5f);
  auto box = ex.run();
  ASSERT_EQ(box.at(4).size(), 1u);
  EXPECT_FLOAT_EQ(box.at(4).front().data.front(), 2.5f);
}

TEST(Spmd, ChargeUniformAndStopwatch) {
  auto m = test::small_gcel();
  SimStopwatch sw(*m);
  charge_uniform(*m, 10.0);
  EXPECT_DOUBLE_EQ(sw.elapsed(), 10.0);
  sw.restart();
  EXPECT_DOUBLE_EQ(sw.elapsed(), 0.0);
}

TEST(Spmd, ForEachProcVisitsAll) {
  auto m = test::small_cm5();
  int count = 0;
  for_each_proc(*m, [&](int p) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, m->procs());
    ++count;
  });
  EXPECT_EQ(count, m->procs());
}

}  // namespace
}  // namespace pcm::runtime
