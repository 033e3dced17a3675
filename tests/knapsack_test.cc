#include "lp/knapsack.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sky::lp {
namespace {

TEST(McKnapsackTest, PicksCheapestWhenBudgetTight) {
  // Two groups, options (weight, value): {(1, 1), (10, 10)} each; budget 2
  // forces cheapest everywhere.
  auto sol = MultipleChoiceKnapsackGreedy({{1, 10}, {1, 10}},
                                          {{1, 10}, {1, 10}}, 2.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->choice[0], 0u);
  EXPECT_EQ(sol->choice[1], 0u);
}

TEST(McKnapsackTest, UpgradesBestRatioFirst) {
  // Group 0 upgrade: +9 value for +9 weight (ratio 1). Group 1 upgrade:
  // +5 value for +2 weight (ratio 2.5). Budget allows only one upgrade.
  auto sol = MultipleChoiceKnapsackGreedy({{1, 10}, {1, 6}},
                                          {{1, 10}, {1, 3}}, 5.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->choice[0], 0u);
  EXPECT_EQ(sol->choice[1], 1u);
  EXPECT_DOUBLE_EQ(sol->total_value, 7.0);
}

TEST(McKnapsackTest, InfeasibleWhenCheapestTooHeavy) {
  auto sol =
      MultipleChoiceKnapsackGreedy({{1.0}}, {{5.0}}, 2.0);
  EXPECT_FALSE(sol.ok());
  EXPECT_EQ(sol.status().code(), StatusCode::kResourceExhausted);
}

TEST(McKnapsackTest, RejectsEmptyGroup) {
  EXPECT_FALSE(MultipleChoiceKnapsackGreedy({{}}, {{}}, 2.0).ok());
  EXPECT_FALSE(MultipleChoiceKnapsackGreedy({{1.0}}, {}, 2.0).ok());
}

TEST(McKnapsackTest, FullBudgetTakesBestOptionPerGroup) {
  auto sol = MultipleChoiceKnapsackGreedy(
      {{0.2, 0.9, 0.5}, {0.1, 0.7, 1.0}},
      {{1, 5, 3}, {1, 4, 9}}, 1000.0);
  ASSERT_TRUE(sol.ok());
  EXPECT_DOUBLE_EQ(sol->total_value, 0.9 + 1.0);
}

// Property sweep: greedy multiple-choice solution always feasible, always
// at least as good as the all-cheapest selection, never better than the
// all-best selection.
class McKnapsackSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(McKnapsackSweep, BoundsHold) {
  sky::Rng rng(GetParam());
  size_t groups = 3 + static_cast<size_t>(rng.UniformInt(0, 20));
  std::vector<std::vector<double>> values(groups), weights(groups);
  double min_weight_total = 0.0, max_value_total = 0.0, min_value_total = 0.0;
  for (size_t g = 0; g < groups; ++g) {
    size_t options = 1 + static_cast<size_t>(rng.UniformInt(0, 5));
    double best_v = 0.0, cheap_w = 1e18, cheap_v = 0.0;
    for (size_t o = 0; o < options; ++o) {
      double w = rng.Uniform(0.1, 5.0);
      double v = rng.Uniform(0.0, 1.0);
      values[g].push_back(v);
      weights[g].push_back(w);
      best_v = std::max(best_v, v);
      if (w < cheap_w) {
        cheap_w = w;
        cheap_v = v;
      }
    }
    min_weight_total += cheap_w;
    max_value_total += best_v;
    min_value_total += cheap_v;
  }
  double capacity = min_weight_total * rng.Uniform(1.0, 3.0);
  auto sol = MultipleChoiceKnapsackGreedy(values, weights, capacity);
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->total_weight, capacity + 1e-9);
  EXPECT_GE(sol->total_value, min_value_total - 1e-9);
  EXPECT_LE(sol->total_value, max_value_total + 1e-9);
  for (size_t g = 0; g < groups; ++g) {
    EXPECT_LT(sol->choice[g], values[g].size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, McKnapsackSweep,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace sky::lp
