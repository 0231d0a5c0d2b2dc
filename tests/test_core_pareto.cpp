// Tests for Pareto dominance, non-dominated sorting and hypervolume —
// including randomized property tests over the front definition.

#include <gtest/gtest.h>

#include <algorithm>

#include "darl/common/error.hpp"
#include "darl/common/rng.hpp"
#include "darl/core/pareto.hpp"

namespace darl::core {
namespace {

const std::vector<Sense> kMinMin{Sense::Minimize, Sense::Minimize};
const std::vector<Sense> kMaxMin{Sense::Maximize, Sense::Minimize};

TEST(Dominates, BasicCases) {
  EXPECT_TRUE(dominates({1.0, 1.0}, {2.0, 2.0}, kMinMin));
  EXPECT_TRUE(dominates({1.0, 2.0}, {2.0, 2.0}, kMinMin));
  EXPECT_FALSE(dominates({1.0, 3.0}, {2.0, 2.0}, kMinMin));
  EXPECT_FALSE(dominates({1.0, 1.0}, {1.0, 1.0}, kMinMin));  // equal
  // Mixed senses: maximize first coordinate.
  EXPECT_TRUE(dominates({5.0, 1.0}, {4.0, 1.0}, kMaxMin));
  EXPECT_FALSE(dominates({4.0, 1.0}, {5.0, 1.0}, kMaxMin));
  EXPECT_THROW(dominates({1.0}, {1.0, 2.0}, kMinMin), InvalidArgument);
}

TEST(ParetoFront, KnownFront) {
  // Paper-shaped data: reward (max) vs time (min).
  const std::vector<std::vector<double>> pts{
      {-0.65, 46.0},  // fast, mediocre reward  -> front
      {-0.55, 49.0},  // trade-off              -> front
      {-0.45, 65.0},  // best reward            -> front
      {-0.70, 50.0},  // dominated by 0 and 1
      {-0.52, 85.0},  // dominated by 2
  };
  const auto front = pareto_front(pts, kMaxMin);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParetoFront, DuplicatesAllSurvive) {
  const std::vector<std::vector<double>> pts{{1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  const auto front = pareto_front(pts, kMinMin);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1}));
}

TEST(ParetoFront, EmptyAndSingle) {
  EXPECT_TRUE(pareto_front({}, kMinMin).empty());
  EXPECT_EQ(pareto_front({{3.0, 4.0}}, kMinMin),
            (std::vector<std::size_t>{0}));
}

TEST(ParetoFront, PropertyNoFrontMemberDominatedNonMemberDominated) {
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<double>> pts;
    const std::size_t n = 5 + rng.index(40);
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                     rng.uniform(0.0, 1.0)});
    }
    const std::vector<Sense> senses{Sense::Minimize, Sense::Maximize,
                                    Sense::Minimize};
    const auto front = pareto_front(pts, senses);
    ASSERT_FALSE(front.empty());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const bool in_front =
          std::find(front.begin(), front.end(), i) != front.end();
      bool dominated = false;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (j != i && dominates(pts[j], pts[i], senses)) dominated = true;
      }
      EXPECT_EQ(in_front, !dominated) << "round " << round << " point " << i;
    }
  }
}

class ParetoDimensionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParetoDimensionTest, FrontDefinitionHoldsInAnyDimension) {
  const std::size_t dims = GetParam();
  Rng rng(100 + dims);
  std::vector<Sense> senses;
  for (std::size_t d = 0; d < dims; ++d) {
    senses.push_back(d % 2 == 0 ? Sense::Minimize : Sense::Maximize);
  }
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 40; ++i) {
    std::vector<double> p(dims);
    for (double& v : p) v = rng.uniform(0.0, 1.0);
    pts.push_back(std::move(p));
  }
  const auto front = pareto_front(pts, senses);
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i && dominates(pts[j], pts[i], senses)) dominated = true;
    }
    const bool in_front = std::find(front.begin(), front.end(), i) != front.end();
    EXPECT_EQ(in_front, !dominated);
  }
  // In higher dimensions a larger share of random points is non-dominated.
  if (dims >= 4) {
    EXPECT_GT(front.size(), 5u);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ParetoDimensionTest,
                         ::testing::Values(2u, 3u, 4u, 5u),
                         [](const auto& gen_info) {
                           return "d" + std::to_string(gen_info.param);
                         });

TEST(NonDominatedSort, PartitionsAllPoints) {
  Rng rng(11);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  const auto fronts = non_dominated_sort(pts, kMinMin);
  std::size_t total = 0;
  for (const auto& f : fronts) total += f.size();
  EXPECT_EQ(total, pts.size());
  // Front 0 equals pareto_front.
  EXPECT_EQ(fronts[0], pareto_front(pts, kMinMin));
  // Every member of front k+1 is dominated by someone in fronts <= k.
  for (std::size_t k = 1; k < fronts.size(); ++k) {
    for (std::size_t idx : fronts[k]) {
      bool dominated_by_earlier = false;
      for (std::size_t kk = 0; kk < k && !dominated_by_earlier; ++kk) {
        for (std::size_t j : fronts[kk]) {
          if (dominates(pts[j], pts[idx], kMinMin)) {
            dominated_by_earlier = true;
            break;
          }
        }
      }
      EXPECT_TRUE(dominated_by_earlier);
    }
  }
}

TEST(Hypervolume2d, ExactRectangles) {
  // Minimize both; reference (4, 4). Points (1,3) and (3,1):
  // HV = 3*1 + 1*2 = union area 5.
  const std::vector<std::vector<double>> pts{{1.0, 3.0}, {3.0, 1.0}};
  EXPECT_NEAR(hypervolume_2d(pts, kMinMin, {4.0, 4.0}), 5.0, 1e-12);
  // Single point.
  EXPECT_NEAR(hypervolume_2d({{1.0, 1.0}}, kMinMin, {2.0, 3.0}), 2.0, 1e-12);
  // Point outside the reference contributes nothing.
  EXPECT_NEAR(hypervolume_2d({{5.0, 5.0}}, kMinMin, {4.0, 4.0}), 0.0, 1e-12);
  EXPECT_NEAR(hypervolume_2d({}, kMinMin, {1.0, 1.0}), 0.0, 1e-12);
}

TEST(Hypervolume2d, DominatedPointsDoNotChangeVolume) {
  const std::vector<std::vector<double>> front{{1.0, 3.0}, {3.0, 1.0}};
  std::vector<std::vector<double>> with_dominated = front;
  with_dominated.push_back({3.5, 3.5});
  EXPECT_NEAR(hypervolume_2d(front, kMinMin, {4.0, 4.0}),
              hypervolume_2d(with_dominated, kMinMin, {4.0, 4.0}), 1e-12);
}

TEST(Hypervolume2d, MonotoneInFrontQuality) {
  const std::vector<std::vector<double>> worse{{2.0, 2.0}};
  const std::vector<std::vector<double>> better{{1.0, 1.0}};
  EXPECT_LT(hypervolume_2d(worse, kMinMin, {3.0, 3.0}),
            hypervolume_2d(better, kMinMin, {3.0, 3.0}));
}

TEST(Hypervolume2d, HandlesMaximizeSense) {
  // Maximize reward, minimize time; reference = worst corner.
  const std::vector<std::vector<double>> pts{{-0.45, 65.0}, {-0.65, 46.0}};
  const double hv = hypervolume_2d(pts, kMaxMin, {-1.0, 100.0});
  EXPECT_GT(hv, 0.0);
}

TEST(HypervolumeMonteCarlo, AgreesWithExact2d) {
  Rng rng(13);
  const std::vector<std::vector<double>> pts{{1.0, 3.0}, {3.0, 1.0}, {2.0, 2.0}};
  const double exact = hypervolume_2d(pts, kMinMin, {4.0, 4.0});
  const double mc = hypervolume_monte_carlo(pts, kMinMin, {4.0, 4.0}, 200000, rng);
  EXPECT_NEAR(mc, exact, exact * 0.05);
}

TEST(HypervolumeMonteCarlo, WorksInThreeDimensions) {
  Rng rng(17);
  const std::vector<Sense> senses{Sense::Minimize, Sense::Minimize,
                                  Sense::Minimize};
  // Single point (1,1,1), reference (2,2,2): exact volume 1.
  const double mc =
      hypervolume_monte_carlo({{1.0, 1.0, 1.0}}, senses, {2.0, 2.0, 2.0},
                              100000, rng);
  EXPECT_NEAR(mc, 1.0, 0.05);
}

}  // namespace
}  // namespace darl::core
