#ifndef SKYSCRAPER_TESTS_SUPPORT_ORACLES_H_
#define SKYSCRAPER_TESTS_SUPPORT_ORACLES_H_

// Reference implementations the parity tests and the forecaster benches
// compare libsky against. Each is the plain, allocating form of something
// libsky computes faster: the per-sample trainer and the sequential forward
// pass of the forecasting network, the naive matrix product, the category
// counts, histograms and forecaster features of a scanned history, the serial
// k-means over per-point vectors, and the diurnal content process with its
// whole horizon's events drawn up front. None of them runs in a
// deployment, so they live here and libsky never links them.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/category_sequence.h"
#include "core/forecaster.h"
#include "ml/kmeans.h"
#include "ml/matrix.h"
#include "ml/nn.h"
#include "util/result.h"
#include "util/sim_time.h"
#include "video/content_process.h"

namespace sky::oracle {

/// Cross-entropy of a prediction against a target distribution.
double ComputeLoss(const std::vector<double>& pred,
                   const std::vector<double>& target);

/// The forward pass of `net` for one sample, one sequential bias-first dot
/// product per output, ReLU on hidden layers and softmax on the output.
/// FeedForwardNet::PredictInto and Forecaster::ForecastInto match it
/// bitwise; the batched GEMM forward to rounding error.
std::vector<double> Predict(const ml::NetSnapshot& net,
                            const std::vector<double>& x);

/// Trains `net` as FeedForwardNet::Train does (the same validation split,
/// shuffles, Adam steps and best-weight rule) but one sample at a time,
/// allocating as it goes. The batched trainer's loss curves and weights
/// agree with it to rounding error: only the summation order differs.
Result<ml::TrainReport> TrainPerSample(ml::FeedForwardNet* net,
                                       const ml::Matrix& X,
                                       const ml::Matrix& Y,
                                       const ml::TrainOptions& opts);

/// a * b as the naive triple loop, skipping zero entries of a: the
/// reference for the cache-blocked GEMM kernels.
ml::Matrix MatMul(const ml::Matrix& a, const ml::Matrix& b);

/// The codes of `seq`, one byte each, read one Get at a time.
std::vector<uint8_t> Unpacked(const core::CategorySequence& seq);

/// `codes`, one byte each, packed for `num_categories` categories one Set at
/// a time; each must be below 2^CategorySequence::WidthFor(num_categories).
core::CategorySequence Packed(size_t num_categories,
                              const std::vector<uint8_t>& codes);

/// Adds to counts[c], for every c < num_categories, how many of the bytes
/// in [begin, begin + n) equal c, by scanning them: the reference for
/// core::CategorySequence::CountInto, which reads a word at a time.
void CountCategoriesInto(const std::vector<uint8_t>& category_sequence,
                         size_t begin, size_t n, size_t num_categories,
                         uint32_t* counts);

/// Normalized category histogram of the [begin, end) slice of the sequence,
/// by scanning it; `end` is clamped to the sequence and an empty slice
/// reads uniform.
std::vector<double> CategoryHistogram(
    const std::vector<uint8_t>& category_sequence, size_t begin, size_t end,
    size_t num_categories);

/// The model input `forecaster` builds from the most recent history, by
/// scanning each of its split windows (Forecaster::SplitWindow) into a
/// normalized histogram. The engine's slid split counts, through
/// Forecaster::FeaturesFromSplitCountsInto, and BuildForecastDataset's
/// window-edge counts both match it bitwise.
void FeaturesFromHistoryInto(const core::Forecaster& forecaster,
                             const std::vector<uint8_t>& recent_categories,
                             double segment_seconds,
                             std::vector<double>* out);

/// k-means++ seeding and Lloyd's loop over one vector per point, the
/// restarts run one after another on the calling thread. ml::KMeansFit,
/// which reads a point matrix and fans its restarts out, matches it bitwise
/// on centers, assignments and inertia, for any pool and kernel backend.
Result<ml::KMeansModel> KMeansFit(
    const std::vector<std::vector<double>>& points,
    const ml::KMeansOptions& options);

/// The columns of `columns` as one vector per point: the points
/// ml::KMeansFit and ml::GmmFit read, in the form the oracle above takes.
std::vector<std::vector<double>> PointsOf(const ml::Matrix& columns);

/// video::DiurnalContentProcess with every event of the horizon drawn at
/// construction, in the one candidate pass the process replays per day,
/// and kept in one sorted list. DiurnalContentProcess::At matches it
/// bitwise whatever day-blocks exist.
class EagerDiurnalContentProcess : public video::ContentProcess {
 public:
  explicit EagerDiurnalContentProcess(
      const video::DiurnalContentProcess::Options& options);

  video::ContentState At(SimTime t) const override;
  SimTime horizon() const override { return options_.horizon; }

 private:
  struct Event {
    SimTime start;
    double duration_s;
    double magnitude;
  };

  double EventBoost(SimTime t) const;

  video::DiurnalContentProcess::Options options_;
  video::SmoothNoise fine_noise_;
  video::SmoothNoise slow_noise_;
  video::SmoothNoise occlusion_noise_;
  video::SmoothNoise day_drift_;
  std::vector<Event> events_;
};

}  // namespace sky::oracle

#endif  // SKYSCRAPER_TESTS_SUPPORT_ORACLES_H_
