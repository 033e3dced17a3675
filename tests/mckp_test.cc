#include "lp/mckp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/planner.h"
#include "ml/kmeans.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace sky {
namespace {

// ---------------------------------------------------------------------------
// Direct MckpSolver unit tests.
// ---------------------------------------------------------------------------

TEST(MckpSolverTest, PicksBestValueUnderGenerousBudget) {
  // Two groups, flat layout: group 0 = {0,1,2}, group 1 = {3,4}.
  std::vector<double> costs = {1.0, 2.0, 5.0, 1.0, 3.0};
  std::vector<double> values = {0.2, 0.5, 0.9, 0.1, 0.8};
  std::vector<size_t> offsets = {0, 3, 5};
  lp::MckpSolver solver;
  lp::MckpSolution sol;
  ASSERT_TRUE(solver
                  .Solve(costs.data(), values.data(), offsets.data(), 2, 100.0,
                         &sol)
                  .ok());
  ASSERT_EQ(sol.status, lp::MckpStatus::kOptimal);
  EXPECT_EQ(sol.choice[0].lo, 2u);
  EXPECT_EQ(sol.choice[0].hi, 2u);
  EXPECT_EQ(sol.choice[1].lo, 4u);
  EXPECT_NEAR(sol.objective, 0.9 + 0.8, 1e-12);
  EXPECT_NEAR(sol.lambda, 0.0, 1e-12);  // budget not binding
}

TEST(MckpSolverTest, InfeasibleWhenCheapestExceedsBudget) {
  std::vector<double> costs = {2.0, 4.0};
  std::vector<double> values = {0.5, 0.9};
  std::vector<size_t> offsets = {0, 2};
  lp::MckpSolver solver;
  lp::MckpSolution sol;
  ASSERT_TRUE(
      solver.Solve(costs.data(), values.data(), offsets.data(), 1, 1.0, &sol)
          .ok());
  EXPECT_EQ(sol.status, lp::MckpStatus::kInfeasible);
}

TEST(MckpSolverTest, SplitsTheCrossingEdgeExactly) {
  // One group, two options: base cost 1, upgrade cost 5. Budget 3 sits
  // exactly halfway along the edge.
  std::vector<double> costs = {1.0, 5.0};
  std::vector<double> values = {0.2, 1.0};
  std::vector<size_t> offsets = {0, 2};
  lp::MckpSolver solver;
  lp::MckpSolution sol;
  ASSERT_TRUE(
      solver.Solve(costs.data(), values.data(), offsets.data(), 1, 3.0, &sol)
          .ok());
  ASSERT_EQ(sol.status, lp::MckpStatus::kOptimal);
  EXPECT_EQ(sol.choice[0].lo, 0u);
  EXPECT_EQ(sol.choice[0].hi, 1u);
  EXPECT_NEAR(sol.choice[0].frac_hi, 0.5, 1e-12);
  EXPECT_NEAR(sol.total_cost, 3.0, 1e-12);
  EXPECT_NEAR(sol.objective, 0.2 + 0.5 * 0.8, 1e-12);
  EXPECT_NEAR(sol.lambda, 0.8 / 4.0, 1e-12);  // the split edge's ratio
}

TEST(MckpSolverTest, DominatedOptionsNeverSelected) {
  // Option 1 costs more than option 2 but is worth less; option 3 lies
  // under the hull chord from 0 to 4.
  std::vector<double> costs = {1.0, 4.0, 3.0, 5.0, 9.0};
  std::vector<double> values = {0.1, 0.3, 0.5, 0.55, 0.9};
  std::vector<size_t> offsets = {0, 5};
  lp::MckpSolver solver;
  lp::MckpSolution sol;
  for (double budget : {1.0, 2.0, 3.5, 6.0, 20.0}) {
    ASSERT_TRUE(solver
                    .Solve(costs.data(), values.data(), offsets.data(), 1,
                           budget, &sol)
                    .ok());
    ASSERT_EQ(sol.status, lp::MckpStatus::kOptimal);
    EXPECT_NE(sol.choice[0].lo, 1u);
    EXPECT_NE(sol.choice[0].hi, 1u);
    EXPECT_NE(sol.choice[0].lo, 3u);
    EXPECT_NE(sol.choice[0].hi, 3u);
  }
}

TEST(MckpSolverTest, NearEqualCostKeepsTheMoreValuableOption) {
  // Two options whose costs differ by less than the solver's epsilon but
  // whose values differ hugely: the cheaper-but-worthless one must be
  // dominated away, not the valuable one (regression: the hull filter used
  // to skip any near-equal-cost successor as a "duplicate").
  std::vector<double> costs = {1.0, 1.0 + 1e-10};
  std::vector<double> values = {0.1, 0.9};
  std::vector<size_t> offsets = {0, 2};
  lp::MckpSolver solver;
  lp::MckpSolution sol;
  ASSERT_TRUE(
      solver.Solve(costs.data(), values.data(), offsets.data(), 1, 10.0, &sol)
          .ok());
  ASSERT_EQ(sol.status, lp::MckpStatus::kOptimal);
  EXPECT_EQ(sol.choice[0].lo, 1u);
  EXPECT_NEAR(sol.objective, 0.9, 1e-12);
}

TEST(MckpSolverTest, LambdaPricesTheBudget) {
  // With the budget binding inside an edge, d objective / d budget = lambda.
  std::vector<double> costs = {1.0, 3.0, 8.0, 1.0, 2.0};
  std::vector<double> values = {0.3, 0.7, 0.95, 0.4, 0.6};
  std::vector<size_t> offsets = {0, 3, 5};
  lp::MckpSolver solver;
  lp::MckpSolution a, b;
  double budget = 4.0, delta = 0.25;
  ASSERT_TRUE(solver
                  .Solve(costs.data(), values.data(), offsets.data(), 2,
                         budget, &a)
                  .ok());
  ASSERT_TRUE(solver
                  .Solve(costs.data(), values.data(), offsets.data(), 2,
                         budget + delta, &b)
                  .ok());
  ASSERT_EQ(a.status, lp::MckpStatus::kOptimal);
  ASSERT_GT(a.lambda, 0.0);
  EXPECT_NEAR(b.objective - a.objective, a.lambda * delta, 1e-9);
}

TEST(MckpSolverTest, RejectsMalformedInput) {
  std::vector<double> costs = {1.0};
  std::vector<double> values = {0.5};
  std::vector<size_t> offsets = {0, 1};
  std::vector<size_t> empty_group = {0, 0};
  lp::MckpSolver solver;
  lp::MckpSolution sol;
  EXPECT_FALSE(
      solver.Solve(nullptr, values.data(), offsets.data(), 1, 1.0, &sol).ok());
  EXPECT_FALSE(solver
                   .Solve(costs.data(), values.data(), empty_group.data(), 1,
                          1.0, &sol)
                   .ok());
  std::vector<double> negative = {-1.0};
  EXPECT_FALSE(solver
                   .Solve(negative.data(), values.data(), offsets.data(), 1,
                          1.0, &sol)
                   .ok());
  double nan_budget = std::nan("");
  EXPECT_FALSE(solver
                   .Solve(costs.data(), values.data(), offsets.data(), 1,
                          nan_budget, &sol)
                   .ok());
}

TEST(MckpSolverTest, PlannersRejectNonFiniteBudgets) {
  ml::KMeansModel km;
  km.centers = {{0.5, 0.9}};
  core::ContentCategories cats =
      core::ContentCategories::FromKMeans(std::move(km));
  for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(core::ComputeKnobPlan(cats, {1.0}, {1.0, 2.0}, bad).ok());
    EXPECT_FALSE(oracle::ComputeKnobPlan(cats, {1.0}, {1.0, 2.0}, bad).ok());
  }
}

// ---------------------------------------------------------------------------
// Property test: on ~200 randomized planner instances — including degenerate
// ones — the structured solver and the simplex oracle agree on feasibility,
// objective, and expected work to 1e-6.
// ---------------------------------------------------------------------------

struct Instance {
  core::ContentCategories categories;
  std::vector<double> forecast;
  std::vector<double> costs;
  double budget = 0.0;
};

Instance RandomInstance(Rng* rng) {
  Instance inst;
  size_t num_c = 1 + static_cast<size_t>(rng->UniformInt(0, 5));
  size_t num_k = 1 + static_cast<size_t>(rng->UniformInt(0, 7));

  ml::KMeansModel km;
  for (size_t c = 0; c < num_c; ++c) {
    std::vector<double> center;
    for (size_t k = 0; k < num_k; ++k) {
      center.push_back(rng->Uniform(0.0, 1.0));
    }
    km.centers.push_back(std::move(center));
  }
  inst.categories = core::ContentCategories::FromKMeans(std::move(km));

  for (size_t k = 0; k < num_k; ++k) {
    inst.costs.push_back(rng->Uniform(0.1, 10.0));
  }
  // Duplicate a cost occasionally (equal-cost options stress the hull).
  if (num_k >= 2 && rng->Bernoulli(0.2)) {
    inst.costs[num_k - 1] = inst.costs[0];
  }

  inst.forecast.assign(num_c, 0.0);
  for (double& f : inst.forecast) f = rng->Uniform(0.05, 1.0);
  // Zero-probability categories: a quarter of instances zero some (but not
  // all) categories out.
  if (num_c >= 2 && rng->Bernoulli(0.25)) {
    size_t zeros = static_cast<size_t>(rng->UniformInt(1, num_c - 1));
    for (size_t z = 0; z < zeros; ++z) inst.forecast[z] = 0.0;
  }
  double sum = 0.0;
  for (double f : inst.forecast) sum += f;
  for (double& f : inst.forecast) f /= sum;

  // Cheapest feasible work: every category on the min-cost config, weighted
  // by the forecast.
  double min_cost = *std::min_element(inst.costs.begin(), inst.costs.end());
  double max_cost = *std::max_element(inst.costs.begin(), inst.costs.end());
  double roll = rng->Uniform(0.0, 1.0);
  if (roll < 0.1) {
    inst.budget = min_cost * rng->Uniform(0.3, 0.9);  // infeasible
  } else if (roll < 0.2) {
    inst.budget = max_cost * rng->Uniform(1.5, 3.0);  // budget never binds
  } else {
    inst.budget = rng->Uniform(min_cost * 1.05, max_cost * 1.2);
  }
  return inst;
}

TEST(MckpPropertyTest, StructuredMatchesSimplexOnRandomInstances) {
  Rng rng(20260728);
  core::PlanWorkspace structured_ws;
  size_t infeasible_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Instance inst = RandomInstance(&rng);
    auto structured =
        core::ComputeKnobPlan(inst.categories, inst.forecast, inst.costs,
                              inst.budget, &structured_ws);
    auto simplex = oracle::ComputeKnobPlan(inst.categories, inst.forecast,
                                           inst.costs, inst.budget);
    ASSERT_EQ(structured.ok(), simplex.ok())
        << "feasibility disagreement on trial " << trial;
    if (!structured.ok()) {
      EXPECT_EQ(structured.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(simplex.status().code(), StatusCode::kResourceExhausted);
      ++infeasible_seen;
      continue;
    }
    EXPECT_NEAR(structured->expected_quality, simplex->expected_quality, 1e-6)
        << "objective mismatch on trial " << trial;
    EXPECT_NEAR(structured->expected_work, simplex->expected_work, 1e-6)
        << "work mismatch on trial " << trial;
    EXPECT_LE(structured->expected_work, inst.budget + 1e-6);
    // Rows normalized on the structured side.
    for (size_t c = 0; c < inst.categories.NumCategories(); ++c) {
      double row = 0.0;
      for (size_t k = 0; k < inst.categories.NumConfigs(); ++k) {
        double a = structured->alpha.At(c, k);
        EXPECT_GE(a, -1e-9);
        row += a;
      }
      EXPECT_NEAR(row, 1.0, 1e-9);
    }
  }
  // The generator must actually exercise the degenerate branch.
  EXPECT_GT(infeasible_seen, 5u);
}

TEST(MckpPropertyTest, SingleCategorySingleConfigDegenerate) {
  ml::KMeansModel km;
  km.centers = {{0.7}};
  core::ContentCategories cats =
      core::ContentCategories::FromKMeans(std::move(km));
  auto plan = core::ComputeKnobPlan(cats, {1.0}, {2.0}, 2.5);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->alpha.At(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(plan->expected_quality, 0.7, 1e-12);
  auto infeasible = core::ComputeKnobPlan(cats, {1.0}, {2.0}, 1.5);
  EXPECT_FALSE(infeasible.ok());
}

}  // namespace
}  // namespace sky
