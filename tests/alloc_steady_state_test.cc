// Steady-state allocation audit for the engine's hot paths: after warm-up,
// FeaturesFromSplitCountsInto + ForecastInto + OnlineUpdate — the forecaster
// work of a plan boundary — the engine's PrepareBoundary with its sliding
// split counts, and every IngestionEngine::Step() within a plan interval,
// after Start or after a Restore over a fresh workload, must perform zero
// heap allocations. The forecaster's scratch is per thread, not per copy:
// a copy allocates only its parameters, Adam state and loss curves, and a
// fresh copy's first boundary on a warm thread allocates nothing. Verified
// with a global operator new that counts calls and bytes, so a regression
// is a test failure rather than a code-review hope.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/engine.h"
#include "core/forecaster.h"
#include "ml/nn.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "workloads/ev_counting.h"

namespace {

std::atomic<long> g_allocations{0};
std::atomic<long> g_allocated_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(static_cast<long>(size),
                              std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sky::core {
namespace {

std::vector<uint8_t> SyntheticCategories(double segment_seconds, double days,
                                         uint64_t seed) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(Days(days) / segment_seconds);
  std::vector<uint8_t> seq(n, 0);
  for (size_t i = 0; i < n; ++i) {
    double hour = HourOfDay(static_cast<double>(i) * segment_seconds);
    seq[i] = (hour > 8 && hour < 20) ? 1 : 0;
    if (rng.Bernoulli(0.05)) seq[i] = 2;
  }
  return seq;
}

ForecasterOptions FastOptions() {
  ForecasterOptions opts;
  opts.input_span = Days(1);
  opts.input_splits = 4;
  opts.planned_interval = Days(1);
  opts.training_stride = Minutes(30);
  opts.train_options.epochs = 10;
  return opts;
}

/// Operator new calls and bytes since the counters started.
struct Allocated {
  long calls;
  long bytes;
};

Allocated AllocatedSoFar() {
  return {g_allocations.load(std::memory_order_relaxed),
          g_allocated_bytes.load(std::memory_order_relaxed)};
}

/// A forecaster trained on `seq` and, in `counts`, the split counts of the
/// sequence's last input span, as the engine keeps them.
Forecaster TrainedForecaster(const std::vector<uint8_t>& seq,
                             std::vector<uint32_t>* counts) {
  auto trained =
      Forecaster::Train(oracle::Packed(3, seq), 60.0, 3, FastOptions());
  EXPECT_TRUE(trained.ok()) << trained.status().ToString();
  const size_t splits = trained->options().input_splits;
  counts->assign(splits * 3, 0);
  for (size_t split = 0; split < splits; ++split) {
    auto [begin, end] = trained->SplitWindow(split, seq.size(), 60.0);
    for (size_t i = begin; i < end; ++i) ++(*counts)[split * 3 + seq[i]];
  }
  return std::move(trained).value();
}

TEST(AllocSteadyStateTest, ForecasterPlanBoundaryPathsAllocateNothing) {
  std::vector<uint8_t> seq = SyntheticCategories(60.0, 6, 21);
  std::vector<uint32_t> counts;
  Forecaster forecaster = TrainedForecaster(seq, &counts);

  std::vector<double> features;
  std::vector<double> forecast;
  std::vector<double> realized = {0.2, 0.5, 0.3};

  // Warm-up: first calls size the reusable scratch buffers.
  for (int i = 0; i < 3; ++i) {
    forecaster.FeaturesFromSplitCountsInto(counts, &features);
    forecaster.ForecastInto(features, &forecast);
    forecaster.OnlineUpdate(features, realized, 1e-3);
  }

  long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    forecaster.FeaturesFromSplitCountsInto(counts, &features);
    forecaster.ForecastInto(features, &forecast);
    forecaster.OnlineUpdate(features, realized, 1e-3);
  }
  long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "forecaster steady state allocated " << (after - before) << " times";
  // The outputs stayed live and correct.
  ASSERT_EQ(forecast.size(), 3u);
  double sum = forecast[0] + forecast[1] + forecast[2];
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(AllocSteadyStateTest, CopyHoldsOnlyParametersAdamStateAndCurves) {
  std::vector<uint8_t> seq = SyntheticCategories(60.0, 6, 22);
  std::vector<uint32_t> counts;
  const Forecaster trained = TrainedForecaster(seq, &counts);
  // The net's NumParameters(), and the length of both loss curves.
  const long params = static_cast<long>(trained.ModelParameters().size());
  const long epochs = static_cast<long>(FastOptions().train_options.epochs);

  Allocated before = AllocatedSoFar();
  Forecaster copy = trained;
  Allocated after = AllocatedSoFar();
  const long calls = after.calls - before.calls;
  const long bytes = after.bytes - before.bytes;
  // The parameters, both Adam moments and the train and validation loss
  // curves, plus per allocation a cache line for the table of layers. A
  // transposed copy of the weights or a scratch buffer does not fit.
  constexpr long kSlackPerAllocation = 64;
  const long payload =
      static_cast<long>(sizeof(double)) * (3 * params + 2 * epochs);
  EXPECT_LE(bytes, payload + kSlackPerAllocation * calls)
      << "a copy allocated " << bytes << " bytes in " << calls
      << " calls for " << params << " parameters and " << epochs
      << " epochs";
  EXPECT_EQ(copy.ModelParameters(), trained.ModelParameters());
}

TEST(AllocSteadyStateTest, FreshCopyOnAWarmThreadAllocatesNothing) {
  std::vector<uint8_t> seq = SyntheticCategories(60.0, 6, 23);
  std::vector<uint32_t> counts;
  const Forecaster trained = TrainedForecaster(seq, &counts);
  std::vector<double> features;
  std::vector<double> forecast;
  std::vector<double> realized = {0.2, 0.5, 0.3};
  {
    // This thread fine-tunes another copy first, as an engine's boundary
    // does before the next engine's on the same worker.
    Forecaster warm = trained;
    warm.FeaturesFromSplitCountsInto(counts, &features);
    warm.ForecastInto(features, &forecast);
    warm.OnlineUpdate(features, realized, 1e-3);
  }

  Forecaster fresh = trained;
  Allocated before = AllocatedSoFar();
  fresh.ForecastInto(features, &forecast);
  fresh.OnlineUpdate(features, realized, 1e-3);
  Allocated after = AllocatedSoFar();
  EXPECT_EQ(after.calls - before.calls, 0);
  EXPECT_EQ(after.bytes - before.bytes, 0);
  EXPECT_NE(fresh.ModelParameters(), trained.ModelParameters());
}

TEST(AllocSteadyStateTest, NetPredictIntoAllocatesNothing) {
  Rng rng(9);
  ml::FeedForwardNet net(6, {16, 8}, 3, &rng);
  std::vector<double> x = {0.1, 0.2, -0.3, 0.4, -0.5, 0.6};
  ml::PredictScratch scratch;
  std::vector<double> out;
  for (int i = 0; i < 3; ++i) net.PredictInto(x, &scratch, &out);

  long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 500; ++i) net.PredictInto(x, &scratch, &out);
  long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);
}

TEST(AllocSteadyStateTest, EngineStepAllocatesNothingWithinAnInterval) {
  workloads::EvCountingWorkload workload;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);
  OfflineOptions offline;
  offline.segment_seconds = 4.0;
  offline.train_horizon = Days(6);
  offline.num_categories = 3;
  offline.forecaster.input_span = Days(1);
  offline.forecaster.planned_interval = Days(1);
  auto model = RunOfflinePhase(workload, cluster, cost_model, offline);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  EngineOptions opts;
  opts.duration = Days(1);
  opts.plan_interval = Days(1);
  opts.cloud_budget_usd_per_interval = 2.0;
  opts.buffer_bytes = 4ull << 30;
  IngestionEngine engine(&workload, &*model, cluster, &cost_model, opts);
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  // Warm-up: the first step plans the interval and sizes every scratch.
  constexpr int64_t kWarmup = 10;
  for (int64_t i = 0; i < kWarmup; ++i) ASSERT_TRUE(engine.Step().ok());

  long before = g_allocations.load(std::memory_order_relaxed);
  bool ok = true;
  while (ok && !engine.Done() && !engine.AtPlanBoundary()) {
    ok = engine.Step().ok();
  }
  long after = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(ok);
  EXPECT_EQ(engine.next_segment_index(), engine.segments_per_interval());
  EXPECT_EQ(after - before, 0)
      << "Step() allocated " << (after - before) << " times over "
      << engine.segments_per_interval() - kWarmup << " steps";
}

TEST(AllocSteadyStateTest, EngineStepAfterRestoreAllocatesNothing) {
  // A run restored over a fresh workload that nothing has sampled: Restore
  // must build the content the rest of the run reads, or Step() builds it
  // on first use.
  workloads::EvCountingWorkload workload;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);
  OfflineOptions offline;
  offline.segment_seconds = 4.0;
  offline.train_horizon = Days(6);
  offline.num_categories = 3;
  offline.forecaster.input_span = Days(1);
  offline.forecaster.planned_interval = Days(1);
  auto model = RunOfflinePhase(workload, cluster, cost_model, offline);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  EngineOptions opts;
  opts.duration = Days(1);
  opts.plan_interval = Days(1);
  opts.cloud_budget_usd_per_interval = 2.0;
  opts.buffer_bytes = 4ull << 30;
  IngestionEngine engine(&workload, &*model, cluster, &cost_model, opts);
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(engine.Step().ok());
  auto snapshot = engine.Checkpoint();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  workloads::EvCountingWorkload fresh;
  IngestionEngine restored(&fresh, &*model, cluster, &cost_model, opts);
  ASSERT_TRUE(restored.Restore(*snapshot).ok());
  // Warm-up: the first steps size the engine's scratch.
  constexpr int64_t kWarmup = 10;
  for (int64_t i = 0; i < kWarmup; ++i) ASSERT_TRUE(restored.Step().ok());

  long before = g_allocations.load(std::memory_order_relaxed);
  bool ok = true;
  while (ok && !restored.Done() && !restored.AtPlanBoundary()) {
    ok = restored.Step().ok();
  }
  long after = g_allocations.load(std::memory_order_relaxed);
  ASSERT_TRUE(ok);
  EXPECT_EQ(restored.next_segment_index(), restored.segments_per_interval());
  EXPECT_EQ(after - before, 0)
      << "restored Step() allocated " << (after - before) << " times";
}

TEST(AllocSteadyStateTest, EnginePrepareBoundarySlidesWithoutAllocating) {
  // A 15-minute interval under a 1-day span: every boundary after the
  // first slides the split counts by 225 segments rather than recounting
  // 21,600, and neither the slide nor the fine-tune and forecast around it
  // may allocate once warm.
  workloads::EvCountingWorkload workload;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);
  OfflineOptions offline;
  offline.segment_seconds = 4.0;
  offline.train_horizon = Days(6);
  offline.num_categories = 3;
  offline.forecaster.input_span = Days(1);
  offline.forecaster.planned_interval = Minutes(15);
  auto model = RunOfflinePhase(workload, cluster, cost_model, offline);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  EngineOptions opts;
  opts.duration = Hours(2);
  opts.plan_interval = Minutes(15);
  opts.cloud_budget_usd_per_interval = 0.05;
  opts.buffer_bytes = 4ull << 30;
  IngestionEngine engine(&workload, &*model, cluster, &cost_model, opts);
  ASSERT_TRUE(engine.Start(Days(6)).ok());
  // Boundaries 0 and 1 warm up: the first recounts the split counts and
  // sizes every buffer, the second is the first slide.
  for (int boundary = 0; boundary < 5; ++boundary) {
    ASSERT_TRUE(engine.AtPlanBoundary()) << "boundary " << boundary;
    long before = g_allocations.load(std::memory_order_relaxed);
    bool ok = engine.PrepareBoundary().ok();
    long after = g_allocations.load(std::memory_order_relaxed);
    ASSERT_TRUE(ok) << "boundary " << boundary;
    if (boundary >= 2) {
      EXPECT_EQ(after - before, 0)
          << "PrepareBoundary allocated " << (after - before)
          << " times at boundary " << boundary;
    }
    do {
      ASSERT_TRUE(engine.Step().ok());
    } while (!engine.Done() && !engine.AtPlanBoundary());
  }
}

}  // namespace
}  // namespace sky::core
