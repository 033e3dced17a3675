// Steady-state allocation audit for the ML inference and online-update
// paths on the engine plan boundary (the PR-2 discipline, extended into the
// net itself): after warm-up, FeaturesFromHistoryInto + ForecastInto +
// OnlineUpdate — the exact per-plan-boundary forecaster work — must perform
// zero heap allocations. Verified with a counting global operator new, so a
// regression is a test failure rather than a code-review hope.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/forecaster.h"
#include "ml/nn.h"
#include "util/rng.h"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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

std::vector<size_t> SyntheticCategories(double segment_seconds, double days,
                                        uint64_t seed) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(Days(days) / segment_seconds);
  std::vector<size_t> seq(n, 0);
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

TEST(AllocSteadyStateTest, ForecasterPlanBoundaryPathsAllocateNothing) {
  std::vector<size_t> seq = SyntheticCategories(60.0, 6, 21);
  auto trained = Forecaster::Train(seq, 60.0, 3, FastOptions());
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  Forecaster forecaster = std::move(*trained);

  std::vector<double> features;
  std::vector<double> forecast;
  std::vector<double> realized = {0.2, 0.5, 0.3};

  // Warm-up: first calls size the reusable scratch buffers.
  for (int i = 0; i < 3; ++i) {
    forecaster.FeaturesFromHistoryInto(seq, 60.0, &features);
    forecaster.ForecastInto(features, &forecast);
    forecaster.OnlineUpdate(features, realized, 1e-3);
  }

  long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    forecaster.FeaturesFromHistoryInto(seq, 60.0, &features);
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

TEST(AllocSteadyStateTest, NetPredictIntoAllocatesNothing) {
  Rng rng(9);
  ml::FeedForwardNet net(6, {16, 8}, 3, ml::Activation::kSoftmax, &rng);
  std::vector<double> x = {0.1, 0.2, -0.3, 0.4, -0.5, 0.6};
  ml::PredictScratch scratch;
  std::vector<double> out;
  for (int i = 0; i < 3; ++i) net.PredictInto(x, &scratch, &out);

  long before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 500; ++i) net.PredictInto(x, &scratch, &out);
  long after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);
}

}  // namespace
}  // namespace sky::core
