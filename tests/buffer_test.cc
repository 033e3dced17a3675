// The byte bound of Eq. 1 as the ingestion engine enforces it: the engine
// may lag behind the stream, but the bytes of arrived-but-unprocessed video
// never exceed the buffer capacity. The switcher's buffer guard keeps a
// provisioned run inside the bound; when a UDF stall leaves no configuration
// that fits, the excess is counted as an overflow and the fill is clamped to
// the capacity.

#include <gtest/gtest.h>

#include "core/engine.h"
#include "sim/faults.h"
#include "workloads/ev_counting.h"

namespace sky::core {
namespace {

constexpr uint64_t kCapacity = 8ull << 20;

/// One offline fit on the EV workload, the same as the engine tests', and a
/// 4-core server.
class BufferBoundTest : public ::testing::Test {
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

  /// On-prem only, so the buffer is the one place a slowdown can go.
  static EngineOptions Options() {
    EngineOptions opts;
    opts.duration = Days(1);
    opts.plan_interval = Days(1);
    opts.enable_cloud = false;
    opts.buffer_bytes = kCapacity;
    opts.record_trace = true;
    opts.trace_resolution_s = 60.0;
    return opts;
  }

  static EngineResult Run(const EngineOptions& opts) {
    IngestionEngine engine(workload_, model_, cluster_, cost_model_, opts);
    auto result = engine.Run(Days(6));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? *result : EngineResult{};
  }

  static workloads::EvCountingWorkload* workload_;
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
  static OfflineModel* model_;
};

workloads::EvCountingWorkload* BufferBoundTest::workload_ = nullptr;
sim::ClusterSpec BufferBoundTest::cluster_;
sim::CostModel* BufferBoundTest::cost_model_ = nullptr;
OfflineModel* BufferBoundTest::model_ = nullptr;

TEST_F(BufferBoundTest, GuardKeepsAProvisionedRunInsideTheBound) {
  EngineResult result = Run(Options());
  // 8 MiB binds: the guard degrades segments to stay inside it.
  EXPECT_GT(result.degraded_count, 0u);
  EXPECT_EQ(result.overflow_events, 0u);
  EXPECT_LE(result.buffer_high_water_bytes, kCapacity);
  for (const TracePoint& p : result.trace) {
    EXPECT_LE(p.buffer_bytes, static_cast<double>(kCapacity));
  }
}

TEST_F(BufferBoundTest, StallPastTheBoundOverflowsAndClampsToCapacity) {
  // One hour in which every UDF runs 20x slower: no configuration keeps up,
  // the backlog outgrows 8 MiB, and each segment past the bound counts.
  sim::FaultPlan plan;
  plan.AddUdfStall(Days(6) + Hours(6), Hours(1), 20.0);
  sim::FaultInjector injector(plan, 5u);
  EngineOptions opts = Options();
  opts.fault_injector = &injector;
  EngineResult result = Run(opts);

  EXPECT_EQ(result.udf_stall_segments, static_cast<size_t>(Hours(1) / 4.0));
  EXPECT_GT(result.overflow_events, 0u);
  EXPECT_EQ(result.buffer_high_water_bytes, kCapacity);
  ASSERT_FALSE(result.trace.empty());
  for (const TracePoint& p : result.trace) {
    EXPECT_LE(p.buffer_bytes, static_cast<double>(kCapacity));
  }
}

}  // namespace
}  // namespace sky::core
