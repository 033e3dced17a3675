// The deterministic fault-injection subsystem (sim::FaultInjector) and the
// engine's fault-awareness. Gates:
//  - injector queries are pure functions of (plan, seed, t): same seed =>
//    identical answers on every call, thread count and replay; different
//    seed => a different transient-failure pattern;
//  - one-shot events (UdfThrow, Crash) fire exactly once across any number
//    of queries — the consumed flag is injector state, not engine state;
//  - capped exponential backoff arithmetic;
//  - an engine with a null injector and an engine with an EMPTY injector are
//    bitwise identical (the fault-free path is exactly the pre-fault code);
//  - transient cloud failures retry (and, past the budget, degrade on-prem)
//    with every failure visible in the result counters;
//  - a full-run cloud outage spends zero cloud dollars and counts its
//    segments/intervals; stall windows count their segments;
//  - an armed UdfThrow escapes Step() as the workload exception it models.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/engine.h"
#include "core/offline.h"
#include "sim/faults.h"
#include "workloads/ev_counting.h"

namespace sky::sim {
namespace {

using core::EngineOptions;
using core::EngineResult;
using core::EngineResultsIdentical;
using core::IngestionEngine;
using core::OfflineModel;

TEST(FaultInjectorTest, QueriesAreDeterministicAndSeedSensitive) {
  FaultPlan plan;
  plan.AddTransientCloudFailures(100.0, 400.0, 0.5);
  plan.AddCloudLatency(200.0, 100.0, 3.0);
  FaultInjector a(plan, 7u);
  FaultInjector b(plan, 7u);
  FaultInjector c(plan, 8u);

  bool seeds_differ = false;
  for (int i = 0; i < 100; ++i) {
    double t = 100.0 + 4.0 * i;
    EXPECT_EQ(a.CloudUploadFailuresAt(t), b.CloudUploadFailuresAt(t));
    // Repeat queries at the same t never change the answer (pure function).
    EXPECT_EQ(a.CloudUploadFailuresAt(t), a.CloudUploadFailuresAt(t));
    EXPECT_EQ(a.CloudLatencyMultiplierAt(t), b.CloudLatencyMultiplierAt(t));
    if (a.CloudUploadFailuresAt(t) != c.CloudUploadFailuresAt(t)) {
      seeds_differ = true;
    }
  }
  EXPECT_TRUE(seeds_differ);
}

TEST(FaultInjectorTest, WindowsAreExactlyNeutralOutside) {
  FaultPlan plan;
  plan.AddCloudOutage(100.0, 50.0);
  plan.AddCloudLatency(300.0, 50.0, 2.5);
  plan.AddUdfStall(500.0, 50.0, 4.0);
  plan.AddTransientCloudFailures(700.0, 50.0, 1.0);
  FaultInjector f(plan, 1u);

  // Inside.
  EXPECT_TRUE(f.CloudOutageAt(100.0));
  EXPECT_TRUE(f.CloudOutageAt(149.0));
  EXPECT_EQ(f.CloudLatencyMultiplierAt(310.0), 2.5);
  EXPECT_EQ(f.UdfStallMultiplierAt(510.0), 4.0);
  EXPECT_GT(f.CloudUploadFailuresAt(710.0), 0u);
  // Outside: bit-exact neutral values, not merely "close to 1".
  EXPECT_FALSE(f.CloudOutageAt(99.0));
  EXPECT_FALSE(f.CloudOutageAt(150.0));  // half-open window [at, at+duration)
  EXPECT_EQ(f.CloudLatencyMultiplierAt(299.0), 1.0);
  EXPECT_EQ(f.CloudLatencyMultiplierAt(350.0), 1.0);
  EXPECT_EQ(f.UdfStallMultiplierAt(499.0), 1.0);
  EXPECT_EQ(f.CloudUploadFailuresAt(699.0), 0u);
  EXPECT_EQ(f.CloudUploadFailuresAt(750.0), 0u);
}

TEST(FaultInjectorTest, OneShotEventsConsumeExactlyOnce) {
  FaultPlan plan;
  plan.AddUdfThrow(100.0);
  plan.AddUdfThrow(200.0);
  plan.AddCloudOutage(0.0, 1000.0);  // a window: never consumed
  FaultInjector f(plan, 3u);

  EXPECT_FALSE(f.ConsumeUdfThrowAt(99.0));  // not due yet
  EXPECT_TRUE(f.ConsumeUdfThrowAt(100.0));
  EXPECT_FALSE(f.ConsumeUdfThrowAt(100.0));  // consumed; the next not due
  EXPECT_TRUE(f.ConsumeUdfThrowAt(250.0));   // "t >= at" semantics: still due
  EXPECT_FALSE(f.ConsumeUdfThrowAt(500.0));  // both consumed
  EXPECT_EQ(f.consumed_events(), 2u);
}

TEST(FaultInjectorTest, BackoffIsCappedExponential) {
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.backoff_base_s = 0.5;
  retry.backoff_cap_s = 8.0;
  FaultInjector f(FaultPlan{}, 1u, retry);

  EXPECT_EQ(f.BackoffDelaySeconds(0), 0.0);
  EXPECT_EQ(f.BackoffDelaySeconds(1), 0.5);
  EXPECT_EQ(f.BackoffDelaySeconds(2), 0.5 + 1.0);
  EXPECT_EQ(f.BackoffDelaySeconds(3), 0.5 + 1.0 + 2.0);
  EXPECT_EQ(f.BackoffDelaySeconds(4), 0.5 + 1.0 + 2.0 + 4.0);
  // The fifth attempt would wait 8.0 exactly (the cap); a sixth caps too.
  EXPECT_EQ(f.BackoffDelaySeconds(5), 0.5 + 1.0 + 2.0 + 4.0 + 8.0);
  EXPECT_EQ(f.BackoffDelaySeconds(6), 0.5 + 1.0 + 2.0 + 4.0 + 8.0 + 8.0);
}

// --- Engine-level behavior, on a small fitted model ---

class FaultEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cluster_.cores = 4;
    cost_model_ = new sim::CostModel(1.8);
    workload_ = new workloads::EvCountingWorkload(8400);
    core::OfflineOptions opts;
    opts.segment_seconds = 4.0;
    opts.train_horizon = Days(3);
    opts.num_categories = 3;
    opts.train_forecaster = false;
    auto model = core::RunOfflinePhase(*workload_, cluster_, *cost_model_,
                                       opts);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    model_ = new OfflineModel(std::move(*model));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete workload_;
    delete cost_model_;
  }

  static EngineOptions BaseOptions() {
    EngineOptions opts;
    opts.duration = Hours(6);
    opts.plan_interval = Hours(2);
    opts.cloud_budget_usd_per_interval = 1.0;
    opts.record_trace = true;
    opts.trace_resolution_s = 300.0;
    return opts;
  }

  static EngineResult MustRun(const EngineOptions& opts) {
    IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
    auto result = engine.Run(Days(3));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return *result;
  }

  static workloads::EvCountingWorkload* workload_;
  static OfflineModel* model_;
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
};

workloads::EvCountingWorkload* FaultEngineTest::workload_ = nullptr;
OfflineModel* FaultEngineTest::model_ = nullptr;
sim::ClusterSpec FaultEngineTest::cluster_;
sim::CostModel* FaultEngineTest::cost_model_ = nullptr;

TEST_F(FaultEngineTest, EmptyInjectorIsBitwiseIdenticalToNoInjector) {
  EngineResult bare = MustRun(BaseOptions());
  // The fixture must actually burst to the cloud, or the cloud-fault tests
  // below would pass vacuously.
  ASSERT_GT(bare.cloud_usd, 0.0);
  ASSERT_EQ(bare.cloud_failures, 0u);

  FaultInjector empty(FaultPlan{}, 99u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &empty;
  EngineResult with_empty = MustRun(opts);
  EXPECT_TRUE(EngineResultsIdentical(bare, with_empty));
}

TEST_F(FaultEngineTest, CertainTransientFailuresExhaustRetriesAndDegrade) {
  FaultPlan plan;
  // p = 1.0 over the whole run: every cloud upload fails through the entire
  // retry budget, so every cloud-placed segment degrades on-prem.
  plan.AddTransientCloudFailures(Days(3), Hours(6), 1.0);
  FaultInjector f(plan, 5u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &f;
  EngineResult faulted = MustRun(opts);

  EXPECT_GT(faulted.cloud_failures, 0u);
  EXPECT_GT(faulted.cloud_giveups, 0u);
  EXPECT_EQ(faulted.cloud_retries, 0u);  // nothing ever succeeded on retry
  EXPECT_GT(faulted.fault_backoff_s, 0.0);
  EXPECT_EQ(faulted.cloud_usd, 0.0);  // degraded placements spend nothing
  EXPECT_EQ(faulted.segments, MustRun(BaseOptions()).segments);
}

TEST_F(FaultEngineTest, IntermittentFailuresRetryAndRecover) {
  FaultPlan plan;
  plan.AddTransientCloudFailures(Days(3), Hours(6), 0.4);
  FaultInjector f(plan, 5u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &f;
  EngineResult faulted = MustRun(opts);

  EXPECT_GT(faulted.cloud_failures, 0u);
  EXPECT_GT(faulted.cloud_retries, 0u);  // some uploads succeed on retry
  EXPECT_GT(faulted.fault_backoff_s, 0.0);
  EXPECT_GT(faulted.cloud_usd, 0.0);  // bursting survives the flakiness
}

TEST_F(FaultEngineTest, FullRunOutageForcesOnPremAndCounts) {
  FaultPlan plan;
  plan.AddCloudOutage(Days(3), Hours(6));
  FaultInjector f(plan, 5u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &f;
  EngineResult faulted = MustRun(opts);

  EXPECT_EQ(faulted.cloud_usd, 0.0);
  EXPECT_GT(faulted.outage_segments, 0u);
  EXPECT_GT(faulted.outage_intervals, 0u);
  EXPECT_EQ(faulted.cloud_failures, 0u);  // nothing was even attempted
  EXPECT_EQ(faulted.segments, MustRun(BaseOptions()).segments);
}

TEST_F(FaultEngineTest, OutageWindowIsExactlyBounded) {
  // Outage covers only the middle plan interval. Degradation must cover the
  // window EXACTLY — one boundary planned on-prem-only, 2 h / 4 s segments
  // forced local — and stop the moment it closes: cloud-allowed stepping
  // resumes for the remaining interval (the resume-bursting half of the
  // graceful-degradation contract; whether the switcher then chooses to
  // spend depends on the plan, which legitimately diverges after a
  // degraded interval).
  FaultPlan plan;
  plan.AddCloudOutage(Days(3) + Hours(2), Hours(2));
  FaultInjector f(plan, 5u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &f;
  EngineResult faulted = MustRun(opts);

  EXPECT_EQ(faulted.outage_segments, static_cast<size_t>(Hours(2) / 4.0));
  EXPECT_EQ(faulted.outage_intervals, 1u);  // exactly the middle boundary
  EXPECT_EQ(faulted.cloud_failures, 0u);    // an outage is not a flaky link
  EXPECT_EQ(faulted.segments, MustRun(BaseOptions()).segments);
}

TEST_F(FaultEngineTest, StallWindowSlowsSegmentsAndCounts) {
  FaultPlan plan;
  plan.AddUdfStall(Days(3) + Hours(1), Hours(1), 3.0);
  FaultInjector f(plan, 5u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &f;
  EngineResult faulted = MustRun(opts);

  EXPECT_GT(faulted.udf_stall_segments, 0u);
  EXPECT_EQ(faulted.segments, MustRun(BaseOptions()).segments);
}

TEST_F(FaultEngineTest, UdfThrowEscapesStepAsTheModeledException) {
  FaultPlan plan;
  plan.AddUdfThrow(Days(3) + Hours(1));
  FaultInjector f(plan, 5u);
  EngineOptions opts = BaseOptions();
  opts.fault_injector = &f;
  IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
  EXPECT_THROW(
      {
        ASSERT_TRUE(engine.Start(Days(3)).ok());
        while (!engine.Done()) {
          Status stepped = engine.Step();
          ASSERT_TRUE(stepped.ok()) << stepped.ToString();
        }
      },
      std::runtime_error);
  // The one-shot is consumed: driving the SAME engine on resumes past the
  // fault point and completes.
  while (!engine.Done()) {
    Status stepped = engine.Step();
    ASSERT_TRUE(stepped.ok()) << stepped.ToString();
  }
  EXPECT_TRUE(engine.Done());
}

}  // namespace
}  // namespace sky::sim
