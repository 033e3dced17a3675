#include "core/switcher.h"

#include <gtest/gtest.h>

#include "ml/kmeans.h"

namespace sky::core {
namespace {

/// Hand-built fixture: 2 categories, 3 configs (cheap/mid/expensive).
ContentCategories MakeCategories() {
  ml::KMeansModel km;
  // Centers indexed [category][config].
  km.centers = {{0.90, 0.95, 0.99},   // easy
                {0.25, 0.60, 0.95}};  // hard
  return ContentCategories::FromKMeans(std::move(km));
}

PlacementProfile Pp(double runtime, double usd, bool cloud) {
  PlacementProfile p;
  p.runtime_s = runtime;
  p.cloud_usd = usd;
  p.onprem_core_s = runtime;
  p.placement.node_loc.assign(2, cloud ? dag::Loc::kCloud : dag::Loc::kOnPrem);
  if (cloud) p.placement.node_loc[0] = dag::Loc::kOnPrem;
  return p;
}

std::vector<ConfigProfile> MakeProfiles() {
  std::vector<ConfigProfile> profiles(3);
  // Cheap: sub-real-time on-prem only.
  profiles[0].work_core_s_per_video_s = 0.5;
  profiles[0].placements = {Pp(1.0, 0.0, false)};
  // Mid: slightly super-real-time on-prem, fast with cloud.
  profiles[1].work_core_s_per_video_s = 3.0;
  profiles[1].placements = {Pp(2.5, 0.0, false), Pp(1.5, 0.02, true)};
  // Expensive: far over real-time on-prem, near-real-time with cloud.
  profiles[2].work_core_s_per_video_s = 10.0;
  profiles[2].placements = {Pp(7.0, 0.0, false), Pp(2.2, 0.08, true)};
  return profiles;
}

KnobPlan MakePlan(std::vector<std::vector<double>> alpha) {
  KnobPlan plan;
  plan.alpha = ml::Matrix(alpha.size(), alpha[0].size());
  for (size_t c = 0; c < alpha.size(); ++c) plan.alpha.SetRow(c, alpha[c]);
  return plan;
}

SwitchContext BaseCtx() {
  SwitchContext ctx;
  ctx.current_config_idx = 0;
  ctx.segment_seconds = 2.0;
  ctx.bytes_per_video_second = 100e3;
  ctx.buffer_capacity_bytes = 4ull << 30;
  ctx.cloud_credits_remaining_usd = 10.0;
  return ctx;
}

TEST(SwitcherTest, RequiresPlan) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  EXPECT_FALSE(sw.Decide(BaseCtx()).ok());
}

TEST(SwitcherTest, ClassifiesCategoryFromQuality) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  KnobPlan plan = MakePlan({{1, 0, 0}, {0, 0, 1}});
  sw.SetPlan(plan);

  // Cheap config reporting 0.88 -> easy category (center 0.90 vs 0.25).
  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.88;
  auto d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->category, 0u);
  EXPECT_EQ(d->config_idx, 0u);

  // Cheap config reporting 0.3 -> hard category -> expensive config.
  ctx.measured_quality = 0.30;
  d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->category, 1u);
  EXPECT_EQ(d->planned_config_idx, 2u);
}

TEST(SwitcherTest, Eq6TracksPlannedHistogram) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  // Easy content: 50/50 between cheap and mid.
  KnobPlan plan = MakePlan({{0.5, 0.5, 0.0}, {0, 0, 1}});
  sw.SetPlan(plan);

  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;
  std::vector<size_t> used(3, 0);
  for (int i = 0; i < 40; ++i) {
    auto d = sw.Decide(ctx);
    ASSERT_TRUE(d.ok());
    sw.RecordUsage(d->category, d->config_idx);
    ++used[d->config_idx];
  }
  EXPECT_EQ(used[0], 20u);
  EXPECT_EQ(used[1], 20u);
  EXPECT_EQ(used[2], 0u);
}

TEST(SwitcherTest, CheapestFeasiblePlacementPicked) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  KnobPlan plan = MakePlan({{0, 0, 1}, {0, 0, 1}});
  sw.SetPlan(plan);

  // Huge buffer: the free on-prem placement of the expensive config works.
  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;
  auto d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->config_idx, 2u);
  EXPECT_EQ(d->placement_idx, 0u);
  EXPECT_FALSE(d->degraded);

  // Tiny buffer: on-prem would overflow; the cloud placement still lags
  // 0.2 s/segment, so with zero lag it fits a small-but-nonzero buffer.
  ctx.buffer_capacity_bytes = 100e3;  // 1 second of video
  d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->config_idx, 2u);
  EXPECT_EQ(d->placement_idx, 1u);
}

TEST(SwitcherTest, DegradesWhenNothingFits) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  KnobPlan plan = MakePlan({{0, 0, 1}, {0, 0, 1}});
  sw.SetPlan(plan);

  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;
  ctx.buffer_capacity_bytes = 0;   // no lag allowed at all
  ctx.allow_cloud = false;         // and no cloud
  auto d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->degraded);
  EXPECT_EQ(d->config_idx, 0u);  // only the cheap config runs real-time
}

TEST(SwitcherTest, CloudCreditsGateCloudPlacements) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  KnobPlan plan = MakePlan({{0, 0, 1}, {0, 0, 1}});
  sw.SetPlan(plan);

  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;
  ctx.buffer_capacity_bytes = 100e3;
  ctx.cloud_credits_remaining_usd = 0.0;  // broke
  auto d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  // Cloud placements unaffordable -> must degrade off the expensive config.
  EXPECT_TRUE(d->degraded);
  EXPECT_NE(d->config_idx, 2u);
}

TEST(SwitcherTest, ExistingBacklogTightensFeasibility) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  KnobPlan plan = MakePlan({{0, 1, 0}, {0, 1, 0}});
  sw.SetPlan(plan);

  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;
  ctx.buffer_capacity_bytes = 200e3;  // 2 seconds of video at 100 KB/s
  // Mid config's on-prem placement adds 0.5 s of lag (50 KB at the current
  // rate): with 120 KB already buffered that still fits.
  ctx.lag_seconds = 1.2;
  ctx.buffered_bytes = 120e3;
  auto d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->config_idx, 1u);
  EXPECT_EQ(d->placement_idx, 0u);
  // With 180 KB buffered, the on-prem placement's 50 KB growth overflows;
  // the cloud placement shrinks the backlog and stays feasible.
  ctx.lag_seconds = 1.8;
  ctx.buffered_bytes = 180e3;
  d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->config_idx, 1u);
  EXPECT_EQ(d->placement_idx, 1u);
}

TEST(SwitcherTest, CopyKeepsItsOwnPlanAndUsage) {
  // The switcher owns its plan: a copy keeps deciding by the plan and the
  // Eq. 6 usage it was copied with, whatever the original installs next.
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  sw.SetPlan(MakePlan({{0.5, 0.5, 0.0}, {0, 0, 1}}));
  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;  // easy content
  auto first = sw.Decide(ctx);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->category, 0u);
  ASSERT_EQ(first->config_idx, 0u);  // the first of two equal deficits
  sw.RecordUsage(first->category, first->config_idx);

  KnobSwitcher copy = sw;
  sw.SetPlan(MakePlan({{0, 0, 1}, {0, 0, 1}}));

  // The original starts its new interval with empty histograms.
  EXPECT_EQ(sw.usage_counts()[0][0], 0.0);
  EXPECT_EQ(sw.usage_totals()[0], 0.0);
  auto next = sw.Decide(ctx);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->planned_config_idx, 2u);

  // The copy keeps its one recorded segment and its 50/50 plan, so the mid
  // configuration now lags its planned share the most.
  EXPECT_EQ(copy.usage_counts()[0][0], 1.0);
  EXPECT_EQ(copy.usage_totals()[0], 1.0);
  ASSERT_NE(copy.plan(), nullptr);
  EXPECT_NE(copy.plan(), sw.plan());
  EXPECT_EQ(copy.plan()->alpha.At(0, 1), 0.5);
  auto copied = copy.Decide(ctx);
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(copied->planned_config_idx, 1u);
  EXPECT_EQ(copied->config_idx, 1u);
}

TEST(SwitcherTest, CategoryOverrideBypassesClassification) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  KnobPlan plan = MakePlan({{1, 0, 0}, {0, 0, 1}});
  sw.SetPlan(plan);
  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;  // would classify easy
  ctx.category_override = 1;
  auto d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->category, 1u);
}

TEST(SwitcherTest, QualityOrderSortsByMeanCenterQuality) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  ASSERT_EQ(sw.quality_order().size(), 3u);
  EXPECT_EQ(sw.quality_order()[0], 2u);
  EXPECT_EQ(sw.quality_order()[1], 1u);
  EXPECT_EQ(sw.quality_order()[2], 0u);
}

TEST(SwitcherTest, PairsScannedBoundedByTotalPlacements) {
  ContentCategories cats = MakeCategories();
  std::vector<ConfigProfile> profiles = MakeProfiles();
  KnobSwitcher sw(&cats, &profiles);
  KnobPlan plan = MakePlan({{0, 0, 1}, {0, 0, 1}});
  sw.SetPlan(plan);
  SwitchContext ctx = BaseCtx();
  ctx.measured_quality = 0.9;
  ctx.buffer_capacity_bytes = 0;
  ctx.allow_cloud = false;
  auto d = sw.Decide(ctx);
  ASSERT_TRUE(d.ok());
  size_t total_placements = 0;
  for (const auto& p : profiles) total_placements += p.placements.size();
  EXPECT_LE(d->pairs_scanned, total_placements);
  EXPECT_GE(d->pairs_scanned, 3u);  // had to walk past infeasible configs
}

}  // namespace
}  // namespace sky::core
