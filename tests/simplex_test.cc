// The dense simplex oracle of tests/support, the reference the knob
// planners' parity tests hold lp::MckpSolver to.

#include <gtest/gtest.h>

#include "ml/kmeans.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace sky::oracle {
namespace {

TEST(SimplexTest, SimpleTwoVariableMax) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36.
  LinearProgram lp;
  lp.objective = {3, 5};
  lp.a_ub = {{1, 0}, {0, 2}, {3, 2}};
  lp.b_ub = {4, 12, 18};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, LpStatus::kOptimal);
  EXPECT_NEAR(sol->objective_value, 36.0, 1e-6);
  EXPECT_NEAR(sol->x[0], 2.0, 1e-6);
  EXPECT_NEAR(sol->x[1], 6.0, 1e-6);
}

TEST(SimplexTest, EqualityConstraints) {
  // max x + 2y s.t. x + y = 1 -> y = 1, obj = 2.
  LinearProgram lp;
  lp.objective = {1, 2};
  lp.a_eq = {{1, 1}};
  lp.b_eq = {1};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, LpStatus::kOptimal);
  EXPECT_NEAR(sol->objective_value, 2.0, 1e-6);
  EXPECT_NEAR(sol->x[1], 1.0, 1e-6);
}

TEST(SimplexTest, IterationLimitSurfacedNotSilentlyOptimal) {
  // max x + y s.t. x <= 1, y <= 1 needs two pivots. One iteration must
  // report kIterationLimit with a feasible best-effort point, never claim
  // kOptimal.
  LinearProgram lp;
  lp.objective = {1, 1};
  lp.a_ub = {{1, 0}, {0, 1}};
  lp.b_ub = {1, 1};
  LpOptions strangled;
  strangled.max_iterations = 1;
  auto limited = SolveLp(lp, strangled);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->status, LpStatus::kIterationLimit);
  ASSERT_EQ(limited->x.size(), 2u);
  EXPECT_LE(limited->x[0], 1.0 + 1e-9);  // best-effort point is feasible
  EXPECT_LE(limited->x[1], 1.0 + 1e-9);
  EXPECT_LT(limited->objective_value, 2.0 - 1e-9);  // and not yet optimal

  auto full = SolveLp(lp);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->status, LpStatus::kOptimal);
  EXPECT_NEAR(full->objective_value, 2.0, 1e-6);
}

TEST(SimplexTest, Phase1IterationLimitLeavesFeasibilityUndetermined) {
  // Three disjoint equality rows need three phase-1 pivots; after one the
  // artificials still carry mass, so feasibility is undetermined — the
  // solver must report kIterationLimit with no point, not kInfeasible and
  // not a fabricated optimum.
  LinearProgram lp;
  lp.objective = {1, 1, 1};
  lp.a_eq = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  lp.b_eq = {1, 1, 1};
  LpOptions strangled;
  strangled.max_iterations = 1;
  auto limited = SolveLp(lp, strangled);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->status, LpStatus::kIterationLimit);
  EXPECT_TRUE(limited->x.empty());

  auto full = SolveLp(lp);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->status, LpStatus::kOptimal);
  EXPECT_NEAR(full->objective_value, 3.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasible) {
  // x <= 1 and x = 2 is infeasible.
  LinearProgram lp;
  lp.objective = {1};
  lp.a_ub = {{1}};
  lp.b_ub = {1};
  lp.a_eq = {{1}};
  lp.b_eq = {2};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsUnbounded) {
  // max x with only y bounded.
  LinearProgram lp;
  lp.objective = {1, 0};
  lp.a_ub = {{0, 1}};
  lp.b_ub = {1};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, LpStatus::kUnbounded);
}

TEST(SimplexTest, NegativeRhsHandled) {
  // max -x s.t. -x <= -2  (i.e. x >= 2): optimum x = 2.
  LinearProgram lp;
  lp.objective = {-1};
  lp.a_ub = {{-1}};
  lp.b_ub = {-2};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, LpStatus::kOptimal);
  EXPECT_NEAR(sol->x[0], 2.0, 1e-6);
}

TEST(SimplexTest, RejectsMalformedShapes) {
  LinearProgram lp;
  lp.objective = {1, 2};
  lp.a_ub = {{1}};  // wrong width
  lp.b_ub = {1};
  EXPECT_FALSE(SolveLp(lp).ok());
  LinearProgram empty;
  EXPECT_FALSE(SolveLp(empty).ok());
}

TEST(SimplexTest, NoConstraintsZeroOrUnbounded) {
  LinearProgram lp;
  lp.objective = {-1, -2};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, LpStatus::kOptimal);
  EXPECT_NEAR(sol->objective_value, 0.0, 1e-9);

  lp.objective = {1, -2};
  auto unbounded = SolveLp(lp);
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(unbounded->status, LpStatus::kUnbounded);
}

TEST(SimplexTest, KnobPlannerShapedProgram) {
  // 2 categories x 3 configs, exactly the planner's LP structure.
  // Qualities: cat0 {0.5, 0.8, 1.0}, cat1 {0.2, 0.6, 0.95};
  // costs {1, 4, 10}; forecast {0.7, 0.3}; budget 4.
  LinearProgram lp;
  double r[2] = {0.7, 0.3};
  double qual[2][3] = {{0.5, 0.8, 1.0}, {0.2, 0.6, 0.95}};
  double cost[3] = {1, 4, 10};
  lp.objective.assign(6, 0.0);
  std::vector<double> budget_row(6, 0.0);
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k < 3; ++k) {
      lp.objective[c * 3 + k] = r[c] * qual[c][k];
      budget_row[c * 3 + k] = r[c] * cost[k];
    }
  }
  lp.a_ub = {budget_row};
  lp.b_ub = {4.0};
  lp.a_eq = {{1, 1, 1, 0, 0, 0}, {0, 0, 0, 1, 1, 1}};
  lp.b_eq = {1.0, 1.0};
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, LpStatus::kOptimal);
  // Rows must each sum to 1 and respect the budget.
  EXPECT_NEAR(sol->x[0] + sol->x[1] + sol->x[2], 1.0, 1e-6);
  EXPECT_NEAR(sol->x[3] + sol->x[4] + sol->x[5], 1.0, 1e-6);
  double spent = 0.0;
  for (int i = 0; i < 6; ++i) spent += budget_row[i] * sol->x[i];
  EXPECT_LE(spent, 4.0 + 1e-6);
  EXPECT_GT(sol->objective_value, 0.6);

  // The planner-level oracle assembles the same program from categories.
  ml::KMeansModel km;
  km.centers = {{0.5, 0.8, 1.0}, {0.2, 0.6, 0.95}};
  core::ContentCategories cats =
      core::ContentCategories::FromKMeans(std::move(km));
  auto plan = oracle::ComputeKnobPlan(cats, {0.7, 0.3}, {1, 4, 10}, 4.0);
  ASSERT_TRUE(plan.ok());
  EXPECT_NEAR(plan->expected_quality, sol->objective_value, 1e-9);
  EXPECT_NEAR(plan->expected_work, spent, 1e-9);
}

// Property sweep: random feasible LPs — solution must satisfy constraints
// and beat the all-zeros objective.
class RandomLpSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomLpSweep, SolutionIsFeasibleAndNonNegative) {
  sky::Rng rng(GetParam());
  size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 4));
  size_t m = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
  LinearProgram lp;
  lp.objective.resize(n);
  for (double& c : lp.objective) c = rng.Uniform(-1, 2);
  for (size_t i = 0; i < m; ++i) {
    std::vector<double> row(n);
    for (double& a : row) a = rng.Uniform(0.1, 1.0);  // positive -> bounded
    lp.a_ub.push_back(row);
    lp.b_ub.push_back(rng.Uniform(0.5, 5.0));
  }
  auto sol = SolveLp(lp);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, LpStatus::kOptimal);
  for (double v : sol->x) EXPECT_GE(v, -1e-9);
  for (size_t i = 0; i < m; ++i) {
    double lhs = 0.0;
    for (size_t j = 0; j < n; ++j) lhs += lp.a_ub[i][j] * sol->x[j];
    EXPECT_LE(lhs, lp.b_ub[i] + 1e-6);
  }
  EXPECT_GE(sol->objective_value, -1e-9);  // x = 0 is always feasible here
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpSweep,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace sky::oracle
