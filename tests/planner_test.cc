#include "core/planner.h"

#include <gtest/gtest.h>

#include "ml/kmeans.h"
#include "support/oracles.h"

namespace sky::core {
namespace {

/// Categories with hand-set centers: 2 categories x 3 configs.
/// Category 0 ("easy"): all configs good. Category 1 ("hard"): only the
/// expensive config is good.
ContentCategories MakeCategories() {
  ml::KMeansModel km;
  km.centers = {{0.92, 0.95, 0.98},   // easy content
                {0.30, 0.60, 0.95}};  // hard content
  return ContentCategories::FromKMeans(std::move(km));
}

const std::vector<double> kCosts = {1.0, 4.0, 12.0};

/// The planner's plan, after checking it against the dense-simplex oracle
/// on the same program: the same status code and, when both solve it, the
/// same expected quality and work.
Result<KnobPlan> Plan(const ContentCategories& cats,
                      const std::vector<double>& forecast,
                      const std::vector<double>& costs, double budget) {
  Result<KnobPlan> plan = ComputeKnobPlan(cats, forecast, costs, budget);
  Result<KnobPlan> reference =
      oracle::ComputeKnobPlan(cats, forecast, costs, budget);
  EXPECT_EQ(plan.status().code(), reference.status().code());
  if (plan.ok() && reference.ok()) {
    EXPECT_NEAR(plan->expected_quality, reference->expected_quality, 1e-6);
    EXPECT_NEAR(plan->expected_work, reference->expected_work, 1e-6);
  }
  return plan;
}

TEST(PlannerTest, RowsNormalizedAndBudgetRespected) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.6, 0.4};
  auto plan = Plan(cats, forecast, kCosts, 5.0);
  ASSERT_TRUE(plan.ok());
  for (size_t c = 0; c < 2; ++c) {
    double row = 0.0;
    for (size_t k = 0; k < 3; ++k) {
      double a = plan->alpha.At(c, k);
      EXPECT_GE(a, -1e-9);
      row += a;
    }
    EXPECT_NEAR(row, 1.0, 1e-6);
  }
  EXPECT_LE(plan->expected_work, 5.0 + 1e-6);
  EXPECT_GT(plan->expected_quality, 0.0);
}

TEST(PlannerTest, GenerousBudgetPicksBestEverywhere) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.5, 0.5};
  auto plan = Plan(cats, forecast, kCosts, 100.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha.At(0, 2), 1.0, 1e-6);
  EXPECT_NEAR(plan->alpha.At(1, 2), 1.0, 1e-6);
}

TEST(PlannerTest, TightBudgetPicksCheapEverywhere) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.5, 0.5};
  auto plan = Plan(cats, forecast, kCosts, 1.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha.At(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(plan->alpha.At(1, 0), 1.0, 1e-6);
}

TEST(PlannerTest, MidBudgetSpendsOnHardContentFirst) {
  // The expensive config gains +0.68 on hard content but only +0.06 on
  // easy content: a mid budget must be allocated to the hard category.
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.5, 0.5};
  auto plan = Plan(cats, forecast, kCosts, 6.0);
  ASSERT_TRUE(plan.ok());
  double easy_expensive = plan->alpha.At(0, 2);
  double hard_expensive = plan->alpha.At(1, 2);
  EXPECT_GT(hard_expensive, easy_expensive + 0.3);
}

TEST(PlannerTest, ForecastShiftsAllocation) {
  ContentCategories cats = MakeCategories();
  // When hard content is rare, the same budget buys more expensive
  // processing per hard segment.
  auto rare = Plan(cats, {0.9, 0.1}, kCosts, 4.0);
  auto common = Plan(cats, {0.1, 0.9}, kCosts, 4.0);
  ASSERT_TRUE(rare.ok() && common.ok());
  EXPECT_GT(rare->alpha.At(1, 2), common->alpha.At(1, 2));
}

TEST(PlannerTest, InfeasibleBudgetSurfacesResourceExhausted) {
  ContentCategories cats = MakeCategories();
  auto plan = Plan(cats, {0.5, 0.5}, kCosts, 0.5);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST(PlannerTest, ZeroForecastCategoryGoesToCheapestConfig) {
  // Category 1 is forecast never to occur, so all its coefficients are 0
  // and every row is optimal for it: the plan puts it on the cheapest
  // configuration, the lowest index on a cost tie.
  ml::KMeansModel km;
  km.centers = {{0.9, 0.5, 0.3}, {0.95, 0.6, 0.2}};
  ContentCategories cats = ContentCategories::FromKMeans(std::move(km));
  auto plan = Plan(cats, {1.0, 0.0}, {5.0, 2.0, 1.0}, 3.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->alpha.At(1, 0), 0.0);
  EXPECT_EQ(plan->alpha.At(1, 1), 0.0);
  EXPECT_EQ(plan->alpha.At(1, 2), 1.0);
  // Category 0 alone spends the budget: 2/3 on cost 2, 1/3 on cost 5.
  EXPECT_NEAR(plan->alpha.At(0, 0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(plan->alpha.At(0, 1), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(plan->expected_work, 3.0, 1e-9);

  auto tied = Plan(cats, {1.0, 0.0}, {5.0, 1.0, 1.0}, 3.0);
  ASSERT_TRUE(tied.ok());
  EXPECT_EQ(tied->alpha.At(1, 0), 0.0);
  EXPECT_EQ(tied->alpha.At(1, 1), 1.0);
  EXPECT_EQ(tied->alpha.At(1, 2), 0.0);
}

TEST(PlannerTest, RejectsShapeMismatches) {
  ContentCategories cats = MakeCategories();
  EXPECT_FALSE(Plan(cats, {1.0}, kCosts, 5.0).ok());
  EXPECT_FALSE(Plan(cats, {0.5, 0.5}, {1.0}, 5.0).ok());
  EXPECT_FALSE(Plan(cats, {0.5, 0.5}, kCosts, 0.0).ok());
}

TEST(PlannerTest, MoreBudgetNeverHurtsQuality) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.6, 0.4};
  double prev = 0.0;
  for (double budget : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    auto plan = Plan(cats, forecast, kCosts, budget);
    ASSERT_TRUE(plan.ok());
    EXPECT_GE(plan->expected_quality, prev - 1e-9);
    prev = plan->expected_quality;
  }
}

TEST(PlannerTest, WorkspaceReuseMatchesFreshSolves) {
  ContentCategories cats = MakeCategories();
  PlanWorkspace ws;
  for (double budget : {1.0, 3.0, 6.0, 20.0}) {
    auto reused = ComputeKnobPlan(cats, {0.6, 0.4}, kCosts, budget, &ws);
    auto fresh = Plan(cats, {0.6, 0.4}, kCosts, budget);
    ASSERT_TRUE(reused.ok() && fresh.ok());
    EXPECT_DOUBLE_EQ(reused->expected_quality, fresh->expected_quality);
    EXPECT_DOUBLE_EQ(reused->expected_work, fresh->expected_work);
  }
}

}  // namespace
}  // namespace sky::core
