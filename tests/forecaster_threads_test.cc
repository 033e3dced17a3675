// The forecaster's per-thread scratch under concurrency. ForecastInto runs
// through the calling thread's inference scratch and OnlineUpdate through the
// calling thread's workspace, so neither a copy nor the net holds a buffer.
// Four threads fine-tune their own copies of one trained forecaster while
// all of them forecast with one shared const forecaster: under
// ThreadSanitizer (`ctest -L tsan`) this must not race, and in every build
// each thread's forecasts and final parameters must be bitwise those of the
// same rounds run serially.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/forecaster.h"
#include "support/oracles.h"
#include "util/rng.h"

namespace sky::core {
namespace {

constexpr size_t kThreads = 4;
constexpr size_t kRounds = 50;
constexpr size_t kCategories = 3;

Forecaster TrainedForecaster() {
  Rng rng(33);
  std::vector<uint8_t> seq(static_cast<size_t>(Days(4) / 60.0));
  for (size_t i = 0; i < seq.size(); ++i) {
    double hour = HourOfDay(static_cast<double>(i) * 60.0);
    seq[i] = (hour > 8 && hour < 20) ? 1 : 0;
    if (rng.Bernoulli(0.05)) seq[i] = 2;
  }
  ForecasterOptions opts;
  opts.input_span = Days(1);
  opts.input_splits = 4;
  opts.planned_interval = Days(1);
  opts.training_stride = Minutes(30);
  opts.train_options.epochs = 5;
  auto trained = Forecaster::Train(oracle::Packed(kCategories, seq), 60.0,
                                   kCategories, opts);
  EXPECT_TRUE(trained.ok()) << trained.status().ToString();
  return std::move(trained).value();
}

/// What one thread saw: its copy's forecast before each update, the shared
/// forecaster's forecast after it, and the copy's final parameters.
struct ThreadTrace {
  std::vector<std::vector<double>> own;
  std::vector<std::vector<double>> shared;
  std::vector<double> params;
};

/// Thread `t`'s rounds: features and realized distributions of its own, so
/// a buffer shared across threads would show in the values.
ThreadTrace RunRounds(size_t t, const Forecaster& trained,
                      const Forecaster& shared) {
  Forecaster copy = trained;
  Rng rng(100 + t);
  const size_t splits = copy.options().input_splits;
  std::vector<uint32_t> counts(splits * kCategories);
  std::vector<double> features, realized(kCategories), forecast;
  ThreadTrace trace;
  for (size_t round = 0; round < kRounds; ++round) {
    for (uint32_t& c : counts) c = static_cast<uint32_t>(rng.UniformInt(0, 50));
    copy.FeaturesFromSplitCountsInto(counts, &features);
    double sum = 0.0;
    for (double& r : realized) sum += (r = rng.Uniform(0.1, 1.0));
    for (double& r : realized) r /= sum;
    copy.ForecastInto(features, &forecast);
    trace.own.push_back(forecast);
    copy.OnlineUpdate(features, realized, 1e-2);
    shared.ForecastInto(features, &forecast);
    trace.shared.push_back(forecast);
  }
  trace.params = copy.ModelParameters();
  return trace;
}

TEST(ForecasterThreadsTest, CopiesFineTunedOnFourThreadsMatchASerialRun) {
  const Forecaster trained = TrainedForecaster();
  const Forecaster shared = trained;

  std::vector<ThreadTrace> serial;
  for (size_t t = 0; t < kThreads; ++t) {
    serial.push_back(RunRounds(t, trained, shared));
  }

  std::vector<ThreadTrace> concurrent(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together so the rounds overlap.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      concurrent[t] = RunRounds(t, trained, shared);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t].own, serial[t].own) << "thread " << t;
    EXPECT_EQ(concurrent[t].shared, serial[t].shared) << "thread " << t;
    EXPECT_EQ(concurrent[t].params, serial[t].params) << "thread " << t;
  }
  // The threads' rounds differ, so a mixed-up buffer could not hide behind
  // equal inputs, and the copies moved away from the shared model.
  EXPECT_NE(serial[0].params, serial[1].params);
  EXPECT_NE(serial[0].params, trained.ModelParameters());
}

}  // namespace
}  // namespace sky::core
