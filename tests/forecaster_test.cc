#include "core/forecaster.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/oracles.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sky::core {
namespace {

using oracle::CategoryHistogram;

/// A synthetic category sequence with a deterministic diurnal structure:
/// category 0 at "night", category 1 at "day", category 2 in randomly
/// placed short bursts.
std::vector<uint8_t> DiurnalCategories(double segment_seconds, double days,
                                       uint64_t seed) {
  Rng rng(seed);
  size_t per_day = static_cast<size_t>(Days(1) / segment_seconds);
  size_t n = static_cast<size_t>(days * per_day);
  std::vector<uint8_t> seq(n, 0);
  for (size_t i = 0; i < n; ++i) {
    double hour = HourOfDay(i * segment_seconds);
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
  opts.train_options.epochs = 30;
  return opts;
}

TEST(ForecastDatasetTest, ShapesAndNormalization) {
  std::vector<uint8_t> seq = DiurnalCategories(60.0, 4, 1);
  ForecasterOptions opts = FastOptions();
  auto data = BuildForecastDataset(seq, 60.0, 3, opts);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->inputs.cols(), 4u * 3);
  EXPECT_EQ(data->targets.cols(), 3u);
  EXPECT_GT(data->inputs.rows(), 50u);
  // Every target row is a distribution.
  for (size_t r = 0; r < data->targets.rows(); ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < 3; ++c) sum += data->targets.At(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ForecastDatasetTest, RejectsTooShortSequences) {
  ForecasterOptions opts = FastOptions();
  std::vector<uint8_t> tiny(10, 0);
  EXPECT_FALSE(BuildForecastDataset(tiny, 60.0, 3, opts).ok());
  EXPECT_FALSE(BuildForecastDataset(tiny, 60.0, 0, opts).ok());
  EXPECT_FALSE(BuildForecastDataset(tiny, -1.0, 3, opts).ok());
}

TEST(ForecastDatasetTest, RefusesZeroSplits) {
  // The split length divides by the split count: zero must be refused
  // before the division, here and through training.
  std::vector<uint8_t> seq = DiurnalCategories(60.0, 4, 1);
  ForecasterOptions opts = FastOptions();
  opts.input_splits = 0;
  EXPECT_EQ(BuildForecastDataset(seq, 60.0, 3, opts).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Forecaster::Train(seq, 60.0, 3, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CategoryHistogramTest, CountsAndNormalizes) {
  std::vector<uint8_t> seq = {0, 0, 1, 2, 2, 2};
  std::vector<double> h = CategoryHistogram(seq, 0, 6, 3);
  EXPECT_NEAR(h[0], 2.0 / 6, 1e-12);
  EXPECT_NEAR(h[2], 3.0 / 6, 1e-12);
  // Out-of-range end is clamped.
  std::vector<double> h2 = CategoryHistogram(seq, 4, 100, 3);
  EXPECT_NEAR(h2[2], 1.0, 1e-12);
}

TEST(ForecasterTest, LearnsStationaryDistribution) {
  std::vector<uint8_t> seq = DiurnalCategories(60.0, 8, 2);
  ForecasterOptions opts = FastOptions();
  auto forecaster = Forecaster::Train(seq, 60.0, 3, opts);
  ASSERT_TRUE(forecaster.ok());

  // Forecast from the tail of the training data; the diurnal mix is stable
  // day over day, so the forecast should match the overall distribution.
  std::vector<double> features;
  oracle::FeaturesFromHistoryInto(*forecaster, seq, 60.0, &features);
  std::vector<double> pred;
  forecaster->ForecastInto(features, &pred);
  std::vector<double> actual = CategoryHistogram(seq, 0, seq.size(), 3);
  ASSERT_EQ(pred.size(), 3u);
  EXPECT_LT(MeanAbsoluteError(pred, actual), 0.08);
}

TEST(ForecasterTest, EvaluateMaeSmallOnHeldOutData) {
  std::vector<uint8_t> train = DiurnalCategories(60.0, 8, 3);
  std::vector<uint8_t> test = DiurnalCategories(60.0, 4, 99);
  ForecasterOptions opts = FastOptions();
  auto forecaster = Forecaster::Train(train, 60.0, 3, opts);
  ASSERT_TRUE(forecaster.ok());
  auto mae = forecaster->EvaluateMae(test, 60.0);
  ASSERT_TRUE(mae.ok());
  EXPECT_LT(*mae, 0.1);  // paper reports 0.04-0.15 at paper scales
}

TEST(ForecasterTest, FeaturesAreSplitHistograms) {
  std::vector<uint8_t> seq(2880, 0);  // 2 days at 60 s, all category 0
  ForecasterOptions opts = FastOptions();
  auto forecaster = Forecaster::Train(DiurnalCategories(60.0, 6, 4), 60.0, 3,
                                      opts);
  ASSERT_TRUE(forecaster.ok());
  std::vector<double> f;
  oracle::FeaturesFromHistoryInto(*forecaster, seq, 60.0, &f);
  ASSERT_EQ(f.size(), 4u * 3);
  for (size_t split = 0; split < 4; ++split) {
    EXPECT_NEAR(f[split * 3 + 0], 1.0, 1e-9);
    EXPECT_NEAR(f[split * 3 + 1], 0.0, 1e-9);
  }
}

TEST(ForecastDatasetTest, InputRowsAreTheFeaturesOfTheirHistory) {
  // The net trains on what the engine feeds it: each input row must be
  // bitwise the model input a forecaster computes from the history before
  // the row's target window, and each target row the scanned histogram of
  // that window. Seven splits of a 1440-segment span leave a remainder, so
  // the last split's longer window is covered too; neither stride divides
  // the 205-segment split; and a sequence 17 segments past the last whole
  // target window ends with a target window cut short, which yields no row.
  for (double stride_minutes : {30.0, 7.0}) {
    for (size_t tail : {size_t{0}, size_t{17}}) {
      std::vector<uint8_t> seq = DiurnalCategories(60.0, 4, 14);
      seq.resize(seq.size() + tail, 2);
      ForecasterOptions opts = FastOptions();
      opts.input_splits = 7;
      opts.training_stride = Minutes(stride_minutes);
      opts.train_options.epochs = 1;
      SCOPED_TRACE(testing::Message() << "stride " << stride_minutes
                                      << " min, tail " << tail);
      auto data = BuildForecastDataset(seq, 60.0, 3, opts);
      ASSERT_TRUE(data.ok());
      auto forecaster = Forecaster::Train(seq, 60.0, 3, opts);
      ASSERT_TRUE(forecaster.ok());
      size_t in_segs = static_cast<size_t>(opts.input_span / 60.0);
      size_t out_segs = static_cast<size_t>(opts.planned_interval / 60.0);
      size_t stride = static_cast<size_t>(opts.training_stride / 60.0);
      ASSERT_NE(in_segs % opts.input_splits, 0u);
      ASSERT_NE((in_segs / opts.input_splits) % stride, 0u);
      // The rows stop at the last whole target window.
      size_t rows = data->inputs.rows();
      ASSERT_EQ(data->targets.rows(), rows);
      EXPECT_LE(in_segs + (rows - 1) * stride + out_segs, seq.size());
      EXPECT_GT(in_segs + rows * stride + out_segs, seq.size());
      std::vector<double> features;
      for (size_t row = 0; row < rows; ++row) {
        size_t s = in_segs + row * stride;
        std::vector<uint8_t> history(seq.begin(), seq.begin() + s);
        oracle::FeaturesFromHistoryInto(*forecaster, history, 60.0,
                                        &features);
        ASSERT_EQ(data->inputs.Row(row), features) << "row " << row;
        ASSERT_EQ(data->targets.Row(row),
                  CategoryHistogram(seq, s, s + out_segs, 3))
            << "row " << row;
      }
    }
  }
}

TEST(ForecasterTest, ForecastIntoMatchesTheReferenceForwardBitwise) {
  std::vector<uint8_t> seq = DiurnalCategories(60.0, 6, 8);
  ForecasterOptions opts = FastOptions();
  auto forecaster = Forecaster::Train(seq, 60.0, 3, opts);
  ASSERT_TRUE(forecaster.ok());
  std::vector<double> features;
  oracle::FeaturesFromHistoryInto(*forecaster, seq, 60.0, &features);
  std::vector<double> reference =
      oracle::Predict(forecaster->SnapshotNet(), features);
  std::vector<double> into;
  forecaster->ForecastInto(features, &into);
  EXPECT_EQ(into, reference);
  // And again, to prove the reused scratch does not leak state.
  forecaster->ForecastInto(features, &into);
  EXPECT_EQ(into, reference);
}

TEST(ForecasterTest, OnlineUpdateShiftsForecast) {
  std::vector<uint8_t> seq = DiurnalCategories(60.0, 6, 5);
  ForecasterOptions opts = FastOptions();
  auto forecaster = Forecaster::Train(seq, 60.0, 3, opts);
  ASSERT_TRUE(forecaster.ok());
  std::vector<double> features;
  oracle::FeaturesFromHistoryInto(*forecaster, seq, 60.0, &features);
  std::vector<double> target = {0.0, 0.0, 1.0};
  std::vector<double> forecast;
  forecaster->ForecastInto(features, &forecast);
  double before = forecast[2];
  for (int i = 0; i < 100; ++i) {
    forecaster->OnlineUpdate(features, target, 0.01);
  }
  forecaster->ForecastInto(features, &forecast);
  double after = forecast[2];
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace sky::core
