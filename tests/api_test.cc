#include "api/skyscraper.h"

#include <gtest/gtest.h>

#include "api/callback_workload.h"
#include "workloads/ev_counting.h"

namespace sky::api {
namespace {

core::OfflineOptions FastOffline() {
  core::OfflineOptions opts;
  opts.segment_seconds = 4.0;
  opts.train_horizon = Days(4);
  opts.num_categories = 3;
  opts.forecaster.input_span = Days(1);
  opts.forecaster.planned_interval = Days(1);
  return opts;
}

TEST(SkyscraperApiTest, IngestRequiresFit) {
  workloads::EvCountingWorkload job;
  Skyscraper sky(&job);
  auto result = sky.Ingest(Days(4));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SkyscraperApiTest, FacadePreconditionsBeforeFit) {
  workloads::EvCountingWorkload job;
  Skyscraper sky(&job);
  EXPECT_FALSE(sky.fitted());
  // model() is checked: no empty-optional dereference before Fit().
  auto model = sky.model();
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kFailedPrecondition);
  auto engine = sky.StartIngest(Days(4));
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(sky.Fit(FastOffline()).ok());
  auto fitted_model = sky.model();
  ASSERT_TRUE(fitted_model.ok());
  EXPECT_GE((*fitted_model)->configs.size(), 3u);

  // SetResources invalidates the fit — and the precondition trips again.
  sky.SetResources(Resources{});
  EXPECT_FALSE(sky.model().ok());
}

TEST(SkyscraperApiTest, ExplicitEngineOptionsWinOverResources) {
  workloads::EvCountingWorkload job;
  Skyscraper sky(&job);
  Resources res;
  res.cores = 4;
  res.buffer_bytes = 4ull << 30;
  res.cloud_budget_usd_per_interval = 5.0;
  sky.SetResources(res);
  ASSERT_TRUE(sky.Fit(FastOffline()).ok());

  core::EngineOptions run;
  run.duration = Hours(12);
  run.plan_interval = Days(1);

  // Unset fields inherit the provisioned Resources: with a tiny buffer
  // forced below, the generous cloud budget is actually spent...
  core::EngineOptions small_buffer = run;
  small_buffer.buffer_bytes = 64ull << 20;  // explicit value is respected
  auto with_cloud = sky.Ingest(Days(4), small_buffer);
  ASSERT_TRUE(with_cloud.ok()) << with_cloud.status().ToString();
  EXPECT_LE(with_cloud->buffer_high_water_bytes, 64ull << 20);
  EXPECT_GT(with_cloud->cloud_usd, 0.0);
  EXPECT_LE(with_cloud->cloud_usd, 5.0 + 1e-9);

  // ...while an explicit 0.0 disables bursting despite the Resources
  // credits (the old 0.0-means-unset sentinel silently re-enabled it).
  core::EngineOptions no_cloud = small_buffer;
  no_cloud.cloud_budget_usd_per_interval = 0.0;
  auto without_cloud = sky.Ingest(Days(4), no_cloud);
  ASSERT_TRUE(without_cloud.ok());
  EXPECT_DOUBLE_EQ(without_cloud->cloud_usd, 0.0);
}

TEST(SkyscraperApiTest, MakeStreamJobPackagesTheFacadeForAFleet) {
  workloads::EvCountingWorkload cam_a(11);
  workloads::EvCountingWorkload cam_b(22);
  Skyscraper sky_a(&cam_a);
  Skyscraper sky_b(&cam_b);

  // Requires a fitted (or loaded) model, like every serving entry point.
  auto unfitted = sky_a.MakeStreamJob(Days(4));
  EXPECT_FALSE(unfitted.ok());
  EXPECT_EQ(unfitted.status().code(), StatusCode::kFailedPrecondition);

  Resources res;
  res.cores = 4;
  res.cloud_budget_usd_per_interval = 1.0;
  sky_a.SetResources(res);
  sky_b.SetResources(res);
  ASSERT_TRUE(sky_a.Fit(FastOffline()).ok());
  ASSERT_TRUE(sky_b.Fit(FastOffline()).ok());

  core::EngineOptions run;
  run.duration = Hours(12);
  run.plan_interval = Hours(4);
  auto job_a = sky_a.MakeStreamJob(Days(4), run);
  auto job_b = sky_b.MakeStreamJob(Days(4), run);
  ASSERT_TRUE(job_a.ok()) << job_a.status().ToString();
  ASSERT_TRUE(job_b.ok());
  // Unset provisioning fields resolve from the facade's Resources.
  ASSERT_TRUE(job_a->options.cloud_budget_usd_per_interval.has_value());
  EXPECT_DOUBLE_EQ(*job_a->options.cloud_budget_usd_per_interval, 1.0);
  ASSERT_TRUE(job_a->options.buffer_bytes.has_value());
  EXPECT_EQ(*job_a->options.buffer_bytes, res.buffer_bytes);

  // The jobs drive a StreamSet; independently planned, the fleet must
  // reproduce each facade's own Ingest() bitwise.
  auto ingest_a = sky_a.Ingest(Days(4), run);
  auto ingest_b = sky_b.Ingest(Days(4), run);
  ASSERT_TRUE(ingest_a.ok() && ingest_b.ok());
  core::StreamSetOptions sopts;
  sopts.planning = core::MultiStreamPlanning::kIndependent;
  auto set = core::StreamSet::Create({*job_a, *job_b}, sopts);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  ASSERT_TRUE(set->RunToCompletion().ok());
  auto results = set->Results();
  ASSERT_TRUE(results[0].ok() && results[1].ok());
  EXPECT_TRUE(core::EngineResultsIdentical(*ingest_a, *results[0]));
  EXPECT_TRUE(core::EngineResultsIdentical(*ingest_b, *results[1]));
}

TEST(SkyscraperApiTest, SteppedEngineMatchesBatchIngestBitwise) {
  workloads::EvCountingWorkload job;
  Skyscraper sky(&job);
  Resources res;
  res.cores = 4;
  res.cloud_budget_usd_per_interval = 1.0;
  sky.SetResources(res);
  ASSERT_TRUE(sky.Fit(FastOffline()).ok());

  core::EngineOptions run;
  run.duration = Hours(12);
  run.plan_interval = Hours(4);
  run.record_trace = true;
  auto batch = sky.Ingest(Days(4), run);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();

  auto started = sky.StartIngest(Days(4), run);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  core::IngestionEngine& engine = **started;
  EXPECT_FALSE(engine.Done());
  EXPECT_DOUBLE_EQ(engine.CurrentTime(), Days(4));

  // Step a while, checkpoint, overrun, restore, and run to completion:
  // the result must equal the batch call on every field.
  ASSERT_TRUE(engine.RunUntil(Days(4) + Hours(3)).ok());
  EXPECT_GT(engine.partial_result().segments, 0u);
  ASSERT_NE(engine.current_plan(), nullptr);
  EXPECT_DOUBLE_EQ(engine.CurrentTime(), Days(4) + Hours(3));
  auto saved = engine.Checkpoint();
  ASSERT_TRUE(saved.ok());
  ASSERT_TRUE(engine.RunUntil(Days(4) + Hours(7)).ok());
  ASSERT_TRUE(engine.Restore(*saved).ok());
  EXPECT_DOUBLE_EQ(engine.CurrentTime(), Days(4) + Hours(3));
  while (!engine.Done()) ASSERT_TRUE(engine.Step().ok());
  EXPECT_TRUE(core::EngineResultsIdentical(*batch, engine.partial_result()));
  // A finished engine refuses to step further.
  EXPECT_EQ(engine.Step().code(), StatusCode::kFailedPrecondition);
}

TEST(SkyscraperApiTest, FitThenIngestEndToEnd) {
  workloads::EvCountingWorkload job;
  Skyscraper sky(&job);
  Resources res;
  res.cores = 4;
  res.buffer_bytes = 4ull << 30;
  res.cloud_budget_usd_per_interval = 1.0;
  sky.SetResources(res);
  ASSERT_TRUE(sky.Fit(FastOffline()).ok());
  EXPECT_TRUE(sky.fitted());

  core::EngineOptions run;
  run.duration = Hours(12);
  run.plan_interval = Days(1);
  auto result = sky.Ingest(Days(4), run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->mean_quality, 0.4);
  EXPECT_EQ(result->overflow_events, 0u);
}

TEST(SkyscraperApiTest, SetResourcesInvalidatesFit) {
  workloads::EvCountingWorkload job;
  Skyscraper sky(&job);
  Resources res;
  res.cores = 4;
  sky.SetResources(res);
  ASSERT_TRUE(sky.Fit(FastOffline()).ok());
  res.cores = 8;
  sky.SetResources(res);
  EXPECT_FALSE(sky.fitted());
}

TEST(CallbackWorkloadTest, RoutesCallbacks) {
  video::DiurnalContentProcess::Options copts;
  copts.horizon = Days(2);
  copts.seed = 5;
  video::DiurnalContentProcess content(copts);

  core::KnobSpace space;
  ASSERT_TRUE(space.AddKnob("rate", {1, 2, 4}).ok());

  CallbackWorkload job(
      "custom", std::move(space), &content,
      [](const core::KnobConfig& k) { return 1.0 + 2.0 * k[0]; },
      [](const core::KnobConfig& k, const video::ContentState& c) {
        return std::clamp(1.0 - (1.0 - k[0] / 2.0) * c.density, 0.0, 1.0);
      });
  EXPECT_EQ(job.name(), "custom");
  EXPECT_DOUBLE_EQ(job.CostCoreSecondsPerVideoSecond({2}), 5.0);
  video::ContentState dense;
  dense.density = 1.0;
  EXPECT_NEAR(job.TrueQuality({0}, dense), 0.0, 1e-12);
  EXPECT_NEAR(job.TrueQuality({2}, dense), 1.0, 1e-12);

  sim::CostModel cm(1.8);
  dag::TaskGraph g = job.BuildTaskGraph({1}, 4.0, cm);
  EXPECT_EQ(g.NumNodes(), 1u);
  EXPECT_NEAR(g.TotalOnPremWork(), 3.0 * 4.0, 1e-9);
}

TEST(CallbackWorkloadTest, WorksWithFullPipeline) {
  video::DiurnalContentProcess::Options copts;
  copts.horizon = Days(4);
  copts.seed = 6;
  video::DiurnalContentProcess content(copts);

  core::KnobSpace space;
  ASSERT_TRUE(space.AddKnob("effort", {0, 1, 2, 3}).ok());
  CallbackWorkload job(
      "pipeline", std::move(space), &content,
      [](const core::KnobConfig& k) { return 0.3 + 1.5 * k[0]; },
      [](const core::KnobConfig& k, const video::ContentState& c) {
        double penalty = (1.0 - k[0] / 3.0) * (0.1 + 0.8 * c.occlusion);
        return std::clamp(1.0 - penalty, 0.0, 1.0);
      });
  Skyscraper sky(&job);
  Resources res;
  res.cores = 2;
  sky.SetResources(res);
  core::OfflineOptions opts = FastOffline();
  opts.train_horizon = Days(3);
  ASSERT_TRUE(sky.Fit(opts).ok());
  core::EngineOptions run;
  run.duration = Hours(6);
  run.plan_interval = Hours(6);
  auto result = sky.Ingest(Days(3), run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->segments, 0u);
}

}  // namespace
}  // namespace sky::api
