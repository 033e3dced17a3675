#include "core/planner.h"

#include <gtest/gtest.h>

#include "ml/kmeans.h"

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

/// Every planner property must hold on both backends: the structured MCKP
/// solver (default) and the simplex reference oracle.
class PlannerTest : public ::testing::TestWithParam<PlannerBackend> {
 protected:
  PlannerBackend backend() const { return GetParam(); }
};

TEST_P(PlannerTest, RowsNormalizedAndBudgetRespected) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.6, 0.4};
  auto plan = ComputeKnobPlan(cats, forecast, kCosts, 5.0, backend());
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

TEST_P(PlannerTest, GenerousBudgetPicksBestEverywhere) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.5, 0.5};
  auto plan = ComputeKnobPlan(cats, forecast, kCosts, 100.0, backend());
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha.At(0, 2), 1.0, 1e-6);
  EXPECT_NEAR(plan->alpha.At(1, 2), 1.0, 1e-6);
}

TEST_P(PlannerTest, TightBudgetPicksCheapEverywhere) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.5, 0.5};
  auto plan = ComputeKnobPlan(cats, forecast, kCosts, 1.0, backend());
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha.At(0, 0), 1.0, 1e-6);
  EXPECT_NEAR(plan->alpha.At(1, 0), 1.0, 1e-6);
}

TEST_P(PlannerTest, MidBudgetSpendsOnHardContentFirst) {
  // The expensive config gains +0.68 on hard content but only +0.06 on
  // easy content: a mid budget must be allocated to the hard category.
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.5, 0.5};
  auto plan = ComputeKnobPlan(cats, forecast, kCosts, 6.0, backend());
  ASSERT_TRUE(plan.ok());
  double easy_expensive = plan->alpha.At(0, 2);
  double hard_expensive = plan->alpha.At(1, 2);
  EXPECT_GT(hard_expensive, easy_expensive + 0.3);
}

TEST_P(PlannerTest, ForecastShiftsAllocation) {
  ContentCategories cats = MakeCategories();
  // When hard content is rare, the same budget buys more expensive
  // processing per hard segment.
  auto rare = ComputeKnobPlan(cats, {0.9, 0.1}, kCosts, 4.0, backend());
  auto common = ComputeKnobPlan(cats, {0.1, 0.9}, kCosts, 4.0, backend());
  ASSERT_TRUE(rare.ok() && common.ok());
  EXPECT_GT(rare->alpha.At(1, 2), common->alpha.At(1, 2));
}

TEST_P(PlannerTest, InfeasibleBudgetSurfacesResourceExhausted) {
  ContentCategories cats = MakeCategories();
  auto plan = ComputeKnobPlan(cats, {0.5, 0.5}, kCosts, 0.5, backend());
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kResourceExhausted);
}

TEST_P(PlannerTest, ZeroForecastCategoryGoesToCheapestConfig) {
  // Category 1 is forecast never to occur, so all its coefficients are 0
  // and every row is optimal for it: the plan puts it on the cheapest
  // configuration, the lowest index on a cost tie.
  ml::KMeansModel km;
  km.centers = {{0.9, 0.5, 0.3}, {0.95, 0.6, 0.2}};
  ContentCategories cats = ContentCategories::FromKMeans(std::move(km));
  auto plan = ComputeKnobPlan(cats, {1.0, 0.0}, {5.0, 2.0, 1.0}, 3.0,
                              backend());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->alpha.At(1, 0), 0.0);
  EXPECT_EQ(plan->alpha.At(1, 1), 0.0);
  EXPECT_EQ(plan->alpha.At(1, 2), 1.0);
  // Category 0 alone spends the budget: 2/3 on cost 2, 1/3 on cost 5.
  EXPECT_NEAR(plan->alpha.At(0, 0), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(plan->alpha.At(0, 1), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(plan->expected_work, 3.0, 1e-9);

  auto tied = ComputeKnobPlan(cats, {1.0, 0.0}, {5.0, 1.0, 1.0}, 3.0,
                              backend());
  ASSERT_TRUE(tied.ok());
  EXPECT_EQ(tied->alpha.At(1, 0), 0.0);
  EXPECT_EQ(tied->alpha.At(1, 1), 1.0);
  EXPECT_EQ(tied->alpha.At(1, 2), 0.0);
}

TEST_P(PlannerTest, RejectsShapeMismatches) {
  ContentCategories cats = MakeCategories();
  EXPECT_FALSE(ComputeKnobPlan(cats, {1.0}, kCosts, 5.0, backend()).ok());
  EXPECT_FALSE(ComputeKnobPlan(cats, {0.5, 0.5}, {1.0}, 5.0, backend()).ok());
  EXPECT_FALSE(ComputeKnobPlan(cats, {0.5, 0.5}, kCosts, 0.0, backend()).ok());
}

TEST_P(PlannerTest, MoreBudgetNeverHurtsQuality) {
  ContentCategories cats = MakeCategories();
  std::vector<double> forecast = {0.6, 0.4};
  double prev = 0.0;
  for (double budget : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    auto plan = ComputeKnobPlan(cats, forecast, kCosts, budget, backend());
    ASSERT_TRUE(plan.ok());
    EXPECT_GE(plan->expected_quality, prev - 1e-9);
    prev = plan->expected_quality;
  }
}

TEST_P(PlannerTest, WorkspaceReuseMatchesFreshSolves) {
  ContentCategories cats = MakeCategories();
  PlanWorkspace ws;
  for (double budget : {1.0, 3.0, 6.0, 20.0}) {
    auto reused =
        ComputeKnobPlan(cats, {0.6, 0.4}, kCosts, budget, backend(), &ws);
    auto fresh = ComputeKnobPlan(cats, {0.6, 0.4}, kCosts, budget, backend());
    ASSERT_TRUE(reused.ok() && fresh.ok());
    EXPECT_DOUBLE_EQ(reused->expected_quality, fresh->expected_quality);
    EXPECT_DOUBLE_EQ(reused->expected_work, fresh->expected_work);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, PlannerTest,
                         ::testing::Values(PlannerBackend::kStructured,
                                           PlannerBackend::kSimplex),
                         [](const auto& info) {
                           return info.param == PlannerBackend::kStructured
                                      ? "Structured"
                                      : "Simplex";
                         });

}  // namespace
}  // namespace sky::core
