// The streaming-session parity gates: the steppable engine surface
// (Start/Step/RunUntil/Done + checkpoint/restore) must be bitwise-identical
// to the batch Run wrapper on every EngineResult field, including the
// trace. Also covers engine re-run identity and the precondition paths of
// the state machine.

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "workloads/ev_counting.h"

namespace sky::core {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = new workloads::EvCountingWorkload();
    cluster_.cores = 4;
    cost_model_ = new sim::CostModel(1.8);
    OfflineOptions opts;
    opts.segment_seconds = 4.0;
    opts.train_horizon = Days(6);
    opts.num_categories = 3;
    opts.forecaster.input_span = Days(1);
    opts.forecaster.planned_interval = Days(1);
    auto model = RunOfflinePhase(*workload_, cluster_, *cost_model_, opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new OfflineModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete cost_model_;
    delete workload_;
  }

  static EngineOptions BaseOptions() {
    EngineOptions opts;
    opts.duration = Days(1);
    opts.plan_interval = Hours(8);  // several boundaries per run
    opts.cloud_budget_usd_per_interval = 1.0;
    opts.record_trace = true;  // parity includes the full trace
    opts.trace_resolution_s = 600.0;
    return opts;
  }

  static IngestionEngine MakeEngine(const EngineOptions& opts) {
    return IngestionEngine(workload_, model_, cluster_, cost_model_, opts);
  }

  static workloads::EvCountingWorkload* workload_;
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
  static OfflineModel* model_;
};

workloads::EvCountingWorkload* SessionTest::workload_ = nullptr;
sim::ClusterSpec SessionTest::cluster_;
sim::CostModel* SessionTest::cost_model_ = nullptr;
OfflineModel* SessionTest::model_ = nullptr;

TEST_F(SessionTest, RunTwiceOnOneEngineIsIdentical) {
  IngestionEngine engine = MakeEngine(BaseOptions());
  auto first = engine.Run(Days(6));
  auto second = engine.Run(Days(6));
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_TRUE(EngineResultsIdentical(*first, *second));
  // A completed Run leaves the session inspectable in its finished state.
  EXPECT_TRUE(engine.Done());
  EXPECT_TRUE(EngineResultsIdentical(*second, engine.partial_result()));
  EXPECT_NE(engine.current_plan(), nullptr);
}

TEST_F(SessionTest, SteppedRunIsBitwiseEqualToBatchRun) {
  IngestionEngine batch = MakeEngine(BaseOptions());
  auto batch_result = batch.Run(Days(6));
  ASSERT_TRUE(batch_result.ok()) << batch_result.status().ToString();

  IngestionEngine stepped = MakeEngine(BaseOptions());
  ASSERT_TRUE(stepped.Start(Days(6)).ok());
  size_t steps = 0;
  while (!stepped.Done()) {
    ASSERT_TRUE(stepped.Step().ok());
    ++steps;
  }
  EXPECT_EQ(steps, batch_result->segments);
  EXPECT_TRUE(EngineResultsIdentical(*batch_result,
                                     stepped.partial_result()));
}

TEST_F(SessionTest, RunUntilExposesCoherentMidRunState) {
  IngestionEngine batch = MakeEngine(BaseOptions());
  auto batch_result = batch.Run(Days(6));
  ASSERT_TRUE(batch_result.ok());

  IngestionEngine engine = MakeEngine(BaseOptions());
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  EXPECT_EQ(engine.current_plan(), nullptr);  // nothing planned yet
  ASSERT_TRUE(engine.RunUntil(Days(6) + Hours(6)).ok());
  EXPECT_FALSE(engine.Done());
  EXPECT_DOUBLE_EQ(engine.CurrentTime(), Days(6) + Hours(6));

  const EngineResult& partial = engine.partial_result();
  EXPECT_EQ(partial.segments,
            static_cast<size_t>(Hours(6) / model_->segment_seconds));
  EXPECT_GT(partial.mean_quality, 0.0);
  EXPECT_LE(partial.mean_quality, 1.0);
  EXPECT_FALSE(partial.trace.empty());
  ASSERT_NE(engine.current_plan(), nullptr);
  EXPECT_GT(engine.current_plan()->expected_quality, 0.0);
  EXPECT_GE(engine.buffer_occupancy_bytes(), 0.0);
  EXPECT_GE(engine.lag_seconds(), 0.0);

  // Finishing the stepped run converges on the batch result exactly.
  ASSERT_TRUE(engine.RunUntil(Days(20)).ok());
  EXPECT_TRUE(engine.Done());
  EXPECT_TRUE(EngineResultsIdentical(*batch_result, engine.partial_result()));
}

TEST_F(SessionTest, CheckpointRestoreResumesBitwise) {
  IngestionEngine batch = MakeEngine(BaseOptions());
  auto batch_result = batch.Run(Days(6));
  ASSERT_TRUE(batch_result.ok());

  // Step a third of the way (mid-interval: not on a plan boundary), save.
  IngestionEngine engine = MakeEngine(BaseOptions());
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  ASSERT_TRUE(engine.RunUntil(Days(6) + Hours(9)).ok());
  auto saved = engine.Checkpoint();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  size_t saved_segments = engine.partial_result().segments;

  // Keep running past the save point, then rewind and finish.
  ASSERT_TRUE(engine.RunUntil(Days(6) + Hours(16)).ok());
  EXPECT_GT(engine.partial_result().segments, saved_segments);
  ASSERT_TRUE(engine.Restore(*saved).ok());
  EXPECT_EQ(engine.partial_result().segments, saved_segments);
  ASSERT_TRUE(engine.RunUntil(Days(20)).ok());
  EXPECT_TRUE(engine.Done());
  EXPECT_TRUE(EngineResultsIdentical(*batch_result, engine.partial_result()));

  // The same checkpoint restored into a brand-new engine over the same
  // model/options also converges on the identical result.
  IngestionEngine fresh = MakeEngine(BaseOptions());
  ASSERT_TRUE(fresh.Restore(*saved).ok());
  while (!fresh.Done()) ASSERT_TRUE(fresh.Step().ok());
  EXPECT_TRUE(EngineResultsIdentical(*batch_result, fresh.partial_result()));
}

TEST_F(SessionTest, CheckpointOnPlanBoundaryAlsoResumesBitwise) {
  IngestionEngine batch = MakeEngine(BaseOptions());
  auto batch_result = batch.Run(Days(6));
  ASSERT_TRUE(batch_result.ok());

  IngestionEngine engine = MakeEngine(BaseOptions());
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  ASSERT_TRUE(engine.RunUntil(Days(6) + Hours(8)).ok());  // exactly boundary 2
  ASSERT_TRUE(engine.AtPlanBoundary());
  auto saved = engine.Checkpoint();
  ASSERT_TRUE(saved.ok());

  IngestionEngine fresh = MakeEngine(BaseOptions());
  ASSERT_TRUE(fresh.Restore(*saved).ok());
  ASSERT_TRUE(fresh.RunUntil(Days(20)).ok());
  EXPECT_TRUE(EngineResultsIdentical(*batch_result, fresh.partial_result()));
}

TEST_F(SessionTest, CheckpointCopiesAndMovesAreSelfContained) {
  // A snapshot is a plain value whose switcher owns the plan, so it outlives
  // its engine and survives every copy and move, a vector's reallocation
  // included, with nothing to fix up.
  IngestionEngine batch = MakeEngine(BaseOptions());
  auto batch_result = batch.Run(Days(6));
  ASSERT_TRUE(batch_result.ok());

  std::optional<IngestState> saved;
  {
    IngestionEngine engine = MakeEngine(BaseOptions());
    ASSERT_TRUE(engine.Start(Days(6)).ok());
    ASSERT_TRUE(engine.RunUntil(Days(6) + Hours(9)).ok());  // mid-interval
    auto snap = engine.Checkpoint();
    ASSERT_TRUE(snap.ok());
    saved.emplace(std::move(*snap));
  }

  std::vector<IngestState> snapshots;
  snapshots.reserve(1);
  snapshots.push_back(*saved);  // copy construction
  const IngestState* first_home = snapshots.data();
  IngestState donor = *saved;
  snapshots.push_back(std::move(donor));  // move construction
  ASSERT_NE(snapshots.data(), first_home) << "no reallocation happened";
  IngestState copy_assigned(&model_->categories, &model_->profiles, 0);
  copy_assigned = *saved;
  IngestState move_assigned(&model_->categories, &model_->profiles, 0);
  IngestState donor_too = *saved;
  move_assigned = std::move(donor_too);
  saved.reset();

  auto inside = [](const void* p, const IngestState& s) {
    const char* c = static_cast<const char*>(p);
    const char* base = reinterpret_cast<const char*>(&s);
    return c >= base && c < base + sizeof(IngestState);
  };
  std::vector<IngestionEngine> restored;
  for (const IngestState* snap :
       {&snapshots[0], &snapshots[1], &copy_assigned, &move_assigned}) {
    ASSERT_NE(snap->switcher.plan(), nullptr);
    EXPECT_TRUE(inside(snap->switcher.plan(), *snap));
    restored.push_back(MakeEngine(BaseOptions()));
    ASSERT_TRUE(restored.back().Restore(*snap).ok());
    ASSERT_NE(restored.back().current_plan(), nullptr);
    EXPECT_FALSE(inside(restored.back().current_plan(), *snap));
  }
  // Free every snapshot's plan before the engines run on: an engine still
  // reading one would read freed memory.
  snapshots.clear();
  snapshots.shrink_to_fit();
  copy_assigned = IngestState(&model_->categories, &model_->profiles, 0);
  move_assigned = IngestState(&model_->categories, &model_->profiles, 0);
  for (IngestionEngine& engine : restored) {
    while (!engine.Done()) ASSERT_TRUE(engine.Step().ok());
    EXPECT_TRUE(
        EngineResultsIdentical(*batch_result, engine.partial_result()));
  }
}

TEST_F(SessionTest, StateMachinePreconditions) {
  IngestionEngine engine = MakeEngine(BaseOptions());
  EXPECT_FALSE(engine.started());
  EXPECT_FALSE(engine.Done());
  // Inspection accessors are safe (and empty) before any session exists.
  EXPECT_EQ(engine.partial_result().segments, 0u);
  EXPECT_EQ(engine.current_plan(), nullptr);
  EXPECT_DOUBLE_EQ(engine.buffer_occupancy_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(engine.lag_seconds(), 0.0);
  EXPECT_EQ(engine.segments_per_interval(), 0);
  EXPECT_TRUE(engine.boundary_forecast().empty());
  EXPECT_EQ(engine.Step().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.RunUntil(Days(7)).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Checkpoint().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(engine.Start(Days(6)).ok());
  EXPECT_TRUE(engine.started());
  EXPECT_TRUE(engine.AtPlanBoundary());
  ASSERT_TRUE(engine.Step().ok());
  // Mid-interval: boundary hooks must refuse.
  EXPECT_FALSE(engine.AtPlanBoundary());
  EXPECT_EQ(engine.PrepareBoundary().code(),
            StatusCode::kFailedPrecondition);
  KnobPlan dummy;
  EXPECT_EQ(engine.InstallPlan(std::move(dummy)).code(),
            StatusCode::kFailedPrecondition);

  // Exhaust the run: further steps refuse.
  ASSERT_TRUE(engine.RunUntil(Days(20)).ok());
  EXPECT_TRUE(engine.Done());
  EXPECT_EQ(engine.Step().code(), StatusCode::kFailedPrecondition);
}

TEST_F(SessionTest, ExternallyInstalledPlanDrivesTheInterval) {
  // Drive one engine's boundaries by hand through the joint-planning hooks
  // with its own self-computed inputs: must match the self-planning run
  // exactly (this is the single-stream degenerate case of StreamSet).
  IngestionEngine batch = MakeEngine(BaseOptions());
  auto batch_result = batch.Run(Days(6));
  ASSERT_TRUE(batch_result.ok());

  IngestionEngine manual = MakeEngine(BaseOptions());
  ASSERT_TRUE(manual.Start(Days(6)).ok());
  while (!manual.Done()) {
    if (manual.AtPlanBoundary()) {
      ASSERT_TRUE(manual.PrepareBoundary().ok());
      // Idempotent: preparing twice must not double the online update.
      ASSERT_TRUE(manual.PrepareBoundary().ok());
      auto plan = ComputeKnobPlan(model_->categories,
                                  manual.boundary_forecast(),
                                  manual.config_costs(),
                                  manual.PlanBudgetCoreSPerVideoS());
      ASSERT_TRUE(plan.ok());
      ASSERT_TRUE(manual.InstallPlan(std::move(*plan)).ok());
    }
    ASSERT_TRUE(manual.Step().ok());
  }
  EXPECT_TRUE(EngineResultsIdentical(*batch_result,
                                     manual.partial_result()));
}

}  // namespace
}  // namespace sky::core
