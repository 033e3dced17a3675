#include "core/multi_stream.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ml/kmeans.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace sky::core {
namespace {

ContentCategories MakeCategories(double easy_gain, double hard_gain) {
  ml::KMeansModel km;
  km.centers = {{0.9, 0.9 + easy_gain},   // easy: small gain from upgrade
                {0.4, 0.4 + hard_gain}};  // hard: large gain from upgrade
  return ContentCategories::FromKMeans(std::move(km));
}

TEST(FairCoreShareTest, FloorsAndClamps) {
  EXPECT_EQ(FairCoreShare(8, 2), 4);
  EXPECT_EQ(FairCoreShare(8, 3), 2);
  EXPECT_EQ(FairCoreShare(2, 5), 1);  // at least one core
  EXPECT_EQ(FairCoreShare(8, 0), 8);
}

/// The joint planner's plans, after checking them against the dense
/// joint-LP simplex oracle: the same status code and, when both solve the
/// program, the same joint objective.
Result<std::vector<KnobPlan>> JointPlan(
    const std::vector<StreamPlanInput>& streams, double budget) {
  auto plans = ComputeJointKnobPlan(streams, budget);
  auto reference = oracle::ComputeJointKnobPlan(streams, budget);
  EXPECT_EQ(plans.status().code(), reference.status().code());
  if (plans.ok() && reference.ok()) {
    double quality = 0.0, reference_quality = 0.0;
    for (size_t v = 0; v < streams.size(); ++v) {
      quality += (*plans)[v].expected_quality;
      reference_quality += (*reference)[v].expected_quality;
    }
    EXPECT_NEAR(quality, reference_quality, 1e-6) << "budget " << budget;
  }
  return plans;
}

TEST(JointPlannerTest, SharedBudgetAllocatedAcrossStreams) {
  ContentCategories cats_a = MakeCategories(0.05, 0.5);
  ContentCategories cats_b = MakeCategories(0.05, 0.5);
  StreamPlanInput a{&cats_a, {0.5, 0.5}, {1.0, 6.0}};
  StreamPlanInput b{&cats_b, {0.5, 0.5}, {1.0, 6.0}};
  auto plans = JointPlan({a, b}, 6.0);
  ASSERT_TRUE(plans.ok());
  ASSERT_EQ(plans->size(), 2u);
  double total_work = 0.0;
  for (const KnobPlan& p : *plans) {
    total_work += p.expected_work;
    for (size_t c = 0; c < 2; ++c) {
      double row = 0.0;
      for (size_t k = 0; k < 2; ++k) row += p.alpha.At(c, k);
      EXPECT_NEAR(row, 1.0, 1e-6);
    }
  }
  EXPECT_LE(total_work, 6.0 + 1e-6);
}

TEST(JointPlannerTest, BudgetFlowsToStreamWithMoreToGain) {
  // Stream A gains little from its expensive config; stream B gains a lot.
  ContentCategories cats_a = MakeCategories(0.02, 0.08);
  ContentCategories cats_b = MakeCategories(0.05, 0.55);
  StreamPlanInput a{&cats_a, {0.5, 0.5}, {1.0, 6.0}};
  StreamPlanInput b{&cats_b, {0.5, 0.5}, {1.0, 6.0}};
  auto plans = JointPlan({a, b}, 2.0 + 3.5);
  ASSERT_TRUE(plans.ok());
  // Expensive usage on B's hard category should exceed A's.
  EXPECT_GT((*plans)[1].alpha.At(1, 1), (*plans)[0].alpha.At(1, 1) + 0.2);
}

TEST(JointPlannerTest, MatchesSingleStreamPlannerWhenAlone) {
  ContentCategories cats = MakeCategories(0.05, 0.5);
  std::vector<double> forecast = {0.6, 0.4};
  std::vector<double> costs = {1.0, 6.0};
  auto single = ComputeKnobPlan(cats, forecast, costs, 3.0);
  auto joint = JointPlan({{&cats, forecast, costs}}, 3.0);
  ASSERT_TRUE(single.ok() && joint.ok());
  EXPECT_NEAR(single->expected_quality, (*joint)[0].expected_quality, 1e-6);
}

TEST(JointPlannerTest, MatchesOracleOnJointObjective) {
  ContentCategories cats_a = MakeCategories(0.02, 0.3);
  ContentCategories cats_b = MakeCategories(0.08, 0.6);
  std::vector<StreamPlanInput> streams = {
      {&cats_a, {0.7, 0.3}, {1.0, 5.0}},
      {&cats_b, {0.2, 0.8}, {1.5, 4.0}},
      {&cats_a, {0.5, 0.5}, {0.8, 7.0}}};
  for (double budget : {3.5, 6.0, 11.0, 40.0}) {
    // JointPlan holds the joint objective to the oracle's within 1e-6.
    ASSERT_TRUE(JointPlan(streams, budget).ok()) << "budget " << budget;
  }
}

TEST(JointPlannerTest, InfeasibleAndMalformedInputs) {
  ContentCategories cats = MakeCategories(0.05, 0.5);
  StreamPlanInput stream{&cats, {0.5, 0.5}, {2.0, 6.0}};
  auto too_tight = JointPlan({stream, stream}, 1.0);
  EXPECT_FALSE(too_tight.ok());
  EXPECT_EQ(too_tight.status().code(), StatusCode::kResourceExhausted);

  EXPECT_FALSE(JointPlan({}, 5.0).ok());
  StreamPlanInput bad{&cats, {0.5}, {2.0, 6.0}};  // wrong forecast arity
  EXPECT_FALSE(JointPlan({bad}, 5.0).ok());
  StreamPlanInput null_cats{nullptr, {0.5, 0.5}, {2.0, 6.0}};
  EXPECT_FALSE(JointPlan({null_cats}, 5.0).ok());
}

TEST(JointPlannerTest, ScalesToManyStreams) {
  ContentCategories cats = MakeCategories(0.05, 0.5);
  std::vector<StreamPlanInput> streams(
      8, StreamPlanInput{&cats, {0.5, 0.5}, {1.0, 6.0}});
  auto plans = JointPlan(streams, 20.0);
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 8u);
  double total = 0.0;
  for (const KnobPlan& p : *plans) total += p.expected_work;
  EXPECT_LE(total, 20.0 + 1e-6);
}

bool BitsEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Every alpha entry, expected_quality and expected_work, bit for bit.
bool PlansBitwiseEqual(const std::vector<KnobPlan>& a,
                       const std::vector<KnobPlan>& b) {
  if (a.size() != b.size()) return false;
  for (size_t v = 0; v < a.size(); ++v) {
    const std::vector<double>& x = a[v].alpha.data();
    const std::vector<double>& y = b[v].alpha.data();
    if (a[v].alpha.rows() != b[v].alpha.rows() || x.size() != y.size() ||
        !BitsEqual(a[v].expected_quality, b[v].expected_quality) ||
        !BitsEqual(a[v].expected_work, b[v].expected_work)) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (!BitsEqual(x[i], y[i])) return false;
    }
  }
  return true;
}

// A JointPlanner keeps no planning state between boundaries: across a run
// of binding-budget boundaries, a long-lived planner returns bitwise the
// plans of a fresh planner and of ComputeJointKnobPlan on the same inputs.
// A recovered or re-membered fleet plans with a fresh planner, so this is
// what lets it match the uninterrupted run.
TEST(JointPlannerStateTest, LongLivedPlannerMatchesFreshSolvesBitwise) {
  constexpr size_t kStreams = 64;
  constexpr size_t kCategories = 3;
  constexpr size_t kConfigs = 15;
  constexpr int kBoundaries = 24;
  Rng rng(1515);
  std::vector<ContentCategories> categories;
  std::vector<StreamPlanInput> inputs(kStreams);
  categories.reserve(kStreams);
  for (size_t v = 0; v < kStreams; ++v) {
    ml::KMeansModel km;
    for (size_t c = 0; c < kCategories; ++c) {
      double base = rng.Uniform(0.2, 0.6);
      double gain = rng.Uniform(0.1, 0.4);
      std::vector<double> center;
      for (size_t k = 0; k < kConfigs; ++k) {
        double frac = static_cast<double>(k) / (kConfigs - 1);
        center.push_back(base + gain * frac + rng.Uniform(-0.03, 0.03));
      }
      km.centers.push_back(std::move(center));
    }
    categories.push_back(ContentCategories::FromKMeans(std::move(km)));
    inputs[v].categories = &categories.back();
    for (size_t k = 0; k < kConfigs; ++k) {
      double frac = static_cast<double>(k) / (kConfigs - 1);
      inputs[v].config_costs.push_back(0.5 + 11.5 * frac * frac +
                                       rng.Uniform(0.0, 0.3));
    }
  }
  const double budget = 3.0 * static_cast<double>(kStreams);

  JointPlanner long_lived;
  std::vector<KnobPlan> plans;
  int differing = 0;
  for (int boundary = 0; boundary < kBoundaries; ++boundary) {
    for (StreamPlanInput& in : inputs) {
      in.forecast.assign(kCategories, 0.0);
      double sum = 0.0;
      for (double& f : in.forecast) {
        f = rng.Uniform(0.05, 1.0);
        sum += f;
      }
      for (double& f : in.forecast) f /= sum;
    }
    ASSERT_TRUE(long_lived.Plan(inputs, budget, &plans).ok());
    JointPlanner fresh;
    std::vector<KnobPlan> fresh_plans;
    ASSERT_TRUE(fresh.Plan(inputs, budget, &fresh_plans).ok());
    auto cold = ComputeJointKnobPlan(inputs, budget);
    ASSERT_TRUE(cold.ok());
    if (!PlansBitwiseEqual(plans, fresh_plans) ||
        !PlansBitwiseEqual(plans, *cold)) {
      ++differing;
    }
    double work = 0.0;
    for (const KnobPlan& p : plans) work += p.expected_work;
    EXPECT_NEAR(work, budget, 1e-9 * budget) << "boundary " << boundary;
  }
  EXPECT_EQ(differing, 0) << "of " << kBoundaries << " boundaries";
}

}  // namespace
}  // namespace sky::core
