#include <gtest/gtest.h>

#include "vendor/cmssl.hpp"
#include "vendor/maspar_matmul.hpp"

namespace pcm::vendor {
namespace {

TEST(MasParIntrinsic, PublishedAnchor) {
  // Fig 19: 61.7 Mflops at N = 700 against a 75 Mflops peak.
  EXPECT_NEAR(maspar_matmul_mflops(700), 61.7, 0.5);
  for (long n : {64L, 256L, 1024L, 8192L}) {
    EXPECT_LT(maspar_matmul_mflops(n), 75.0);
    EXPECT_GT(maspar_matmul_mflops(n), 0.0);
  }
}

TEST(MasParIntrinsic, MonotoneInN) {
  EXPECT_LT(maspar_matmul_mflops(100), maspar_matmul_mflops(400));
  EXPECT_LT(maspar_matmul_mflops(400), maspar_matmul_mflops(1600));
}

TEST(Cmssl, StaysBelowPublishedCeiling) {
  // Fig 20: gen_matrix_mult never achieves more than 151 Mflops.
  for (long n : {64L, 256L, 512L, 1024L, 4096L}) {
    EXPECT_LT(cmssl_mflops(n), 151.0) << n;
  }
}

TEST(Cmssl, VectorUnitsAnchor) {
  // Paper: 1016 Mflops at N = 512 when compiled for the vector units.
  EXPECT_NEAR(cmssl_vector_mflops(512), 1016.0, 20.0);
  EXPECT_GT(cmssl_vector_mflops(512), 5.0 * cmssl_mflops(512));
}

}  // namespace
}  // namespace pcm::vendor
