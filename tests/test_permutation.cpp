#include <gtest/gtest.h>

#include "common/rng.h"
#include "photonics/permutation.h"

namespace {

namespace ph = adept::photonics;
using adept::Rng;
using ph::Permutation;

// Brute-force O(k^2) inversion count: the oracle for crossing_count.
std::int64_t crossing_count_naive(const Permutation& p) {
  const auto& m = p.map();
  std::int64_t inv = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    for (std::size_t j = i + 1; j < m.size(); ++j) {
      if (m[i] > m[j]) ++inv;
    }
  }
  return inv;
}

TEST(Permutation, IdentityAndReversal) {
  const auto id = Permutation::identity(5);
  EXPECT_TRUE(id.is_identity());
  EXPECT_EQ(ph::crossing_count(id), 0);
  const auto rev = Permutation::reversal(5);
  EXPECT_EQ(rev(0), 4);
  // reversal has maximal inversions n(n-1)/2
  EXPECT_EQ(ph::crossing_count(rev), 10);
}

TEST(Permutation, RejectsNonBijection) {
  EXPECT_THROW(Permutation({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(Permutation({0, 3, 1}), std::invalid_argument);
  EXPECT_FALSE(ph::is_valid_permutation({1, 1}));
  EXPECT_TRUE(ph::is_valid_permutation({1, 0}));
}

TEST(Permutation, ComposeMatchesMatrixProduct) {
  Rng rng(1);
  const auto a = Permutation::random(6, rng);
  const auto b = Permutation::random(6, rng);
  const auto c = a.compose(b);
  const ph::RMat mc = c.to_matrix();
  const ph::RMat prod = a.to_matrix() * b.to_matrix();
  EXPECT_LT(mc.max_abs_diff(prod), 1e-12);
}

TEST(Permutation, InverseComposesToIdentity) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const auto p = Permutation::random(8, rng);
    EXPECT_TRUE(p.compose(p.inverse()).is_identity());
    EXPECT_TRUE(p.inverse().compose(p).is_identity());
  }
}

TEST(Permutation, ApplyConvention) {
  // y[i] = x[p(i)]
  const Permutation p({2, 0, 1});
  const std::vector<int> x = {10, 20, 30};
  const auto y = p.apply(x);
  EXPECT_EQ(y[0], 30);
  EXPECT_EQ(y[1], 10);
  EXPECT_EQ(y[2], 20);
}

TEST(Permutation, MatrixActsLikeApply) {
  Rng rng(3);
  const auto p = Permutation::random(5, rng);
  const ph::CMat m = p.to_cmatrix();
  std::vector<ph::cplx> x = {{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}};
  const auto y = m * x;
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)].real(),
                x[static_cast<std::size_t>(p(i))].real(), 1e-12);
  }
}

TEST(Permutation, FromPositionsInverseConvention) {
  // source lane 0 -> position 2, lane 1 -> 0, lane 2 -> 1
  const auto p = Permutation::from_positions({2, 0, 1});
  EXPECT_EQ(p(2), 0);
  EXPECT_EQ(p(0), 1);
  EXPECT_EQ(p(1), 2);
  EXPECT_THROW(Permutation::from_positions({0, 0, 1}), std::invalid_argument);
}

class CrossingCountTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrossingCountTest, MergeSortMatchesNaive) {
  const auto [k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const auto p = Permutation::random(k, rng);
  EXPECT_EQ(ph::crossing_count(p), crossing_count_naive(p));
}

INSTANTIATE_TEST_SUITE_P(Sweep, CrossingCountTest,
                         ::testing::Combine(::testing::Values(2, 4, 8, 16, 32, 64),
                                            ::testing::Values(1, 2, 3)));

TEST(CrossingCount, AdjacentSwapIsOne) {
  EXPECT_EQ(ph::crossing_count(Permutation({1, 0, 2, 3})), 1);
  EXPECT_EQ(ph::crossing_count(Permutation({0, 2, 1, 3})), 1);
}

class RouteTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RouteTest, ScheduleRealizesPermWithMinimalSwaps) {
  const auto [k, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(900 + seed));
  const auto p = Permutation::random(k, rng);
  const ph::SwapSchedule schedule = ph::route_permutation(p);
  // Swap count equals the inversion count (optimal routing).
  EXPECT_EQ(schedule.total_swaps(), ph::crossing_count(p));
  // Executing the schedule on the identity arrangement yields p.
  std::vector<int> arr(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) arr[static_cast<std::size_t>(i)] = i;
  for (const auto& layer : schedule.layers) {
    // swaps within one layer must be disjoint
    for (std::size_t a = 0; a + 1 < layer.size(); ++a) {
      EXPECT_GE(layer[a + 1] - layer[a], 2);
    }
    for (int pos : layer) {
      std::swap(arr[static_cast<std::size_t>(pos)], arr[static_cast<std::size_t>(pos + 1)]);
    }
  }
  for (int i = 0; i < k; ++i) EXPECT_EQ(arr[static_cast<std::size_t>(i)], p(i));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RouteTest,
                         ::testing::Combine(::testing::Values(2, 5, 8, 16, 33),
                                            ::testing::Values(1, 2)));

TEST(PermutationFromMatrix, AcceptsDominantMatrix) {
  Rng rng(4);
  const auto p = Permutation::random(6, rng);
  ph::RMat m = p.to_matrix();
  for (auto& v : m.data()) v = v * 0.98 + 0.002;
  Permutation out;
  ASSERT_TRUE(ph::permutation_from_matrix(m, 0.05, &out));
  EXPECT_EQ(out, p);
}

TEST(PermutationFromMatrix, RejectsAmbiguous) {
  ph::RMat m(3, 3);
  for (auto& v : m.data()) v = 1.0 / 3.0;
  EXPECT_FALSE(ph::permutation_from_matrix(m, 0.05, nullptr));
}

TEST(PermutationFromMatrix, RejectsDuplicateColumns) {
  ph::RMat m = ph::RMat::identity(3);
  m.at(1, 1) = 0.0;
  m.at(1, 0) = 1.0;  // rows 0 and 1 both pick column 0
  EXPECT_FALSE(ph::permutation_from_matrix(m, 0.05, nullptr));
}

TEST(Permutation, ToStringReadable) {
  EXPECT_EQ(Permutation({1, 0}).to_string(), "[1 0]");
}

}  // namespace
