#ifndef SKYSCRAPER_CORE_FORECASTER_H_
#define SKYSCRAPER_CORE_FORECASTER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/category_sequence.h"
#include "ml/nn.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace sky::core {

struct ForecasterOptions {
  /// How much recent history feeds the model (t_in, Appendix H).
  SimTime input_span = Days(2);
  /// Number of histograms the input span is split into (n_split).
  size_t input_splits = 8;
  /// How far into the future the model forecasts (t_out / planned interval).
  SimTime planned_interval = Days(2);
  /// One training sample is created every `training_stride` of data (the
  /// paper creates a point every 15 minutes, Appendix K.1).
  SimTime training_stride = Minutes(15);
  ml::TrainOptions train_options;
  uint64_t seed = 61;
};

struct ForecastDataset {
  ml::Matrix inputs;   ///< rows: input_splits * |C| features
  ml::Matrix targets;  ///< rows: |C| category frequencies
};

/// Builds supervised (history histograms -> future histogram) pairs from a
/// per-segment category sequence (Appendix H); categories at or above
/// `num_categories` are counted nowhere. Each input
/// row is the model input a Forecaster with these options computes from the
/// history before the row's target window: the same split windows
/// (Forecaster::SplitWindow) and the same normalization. Rows start every
/// training stride and stop at the last whole target window. Fails if the
/// geometry has no split or the sequence is too short to produce a single
/// sample.
Result<ForecastDataset> BuildForecastDataset(
    const CategorySequence& category_sequence, double segment_seconds,
    size_t num_categories, const ForecasterOptions& options);

/// The forecasting model F of §3.3: a feed-forward network (Appendix K:
/// input -> 16 ReLU -> 8 ReLU -> |C| softmax) that predicts how often each
/// content category appears over the planned interval, given the recent
/// history's category histograms.
class Forecaster {
 public:
  /// Trains the model on a category sequence from the unlabeled data, on
  /// the calling thread.
  static Result<Forecaster> Train(const CategorySequence& category_sequence,
                                  double segment_seconds,
                                  size_t num_categories,
                                  const ForecasterOptions& options);

  /// Segments of history the features read: the input span, and at least
  /// one per split.
  size_t InputSegments(double segment_seconds) const;

  /// The window [begin, end) that feature split `split` reads in a history
  /// of `available` segments, oldest first: the last InputSegments() cut
  /// into input_splits equal windows, the last one taking the remainder. A
  /// shorter history is stretched over what is available.
  std::pair<size_t, size_t> SplitWindow(size_t split, size_t available,
                                        double segment_seconds) const;

  /// The model input of a history whose split windows hold `split_counts`
  /// (input_splits rows of |C| category counts): each split's normalized
  /// histogram, and a uniform one for an empty split. Bitwise what a scan of
  /// the segments computes (the reference in tests/support), because counts
  /// are integers and exact in doubles. Allocates nothing when `out` is
  /// reused.
  void FeaturesFromSplitCountsInto(const std::vector<uint32_t>& split_counts,
                                   std::vector<double>* out) const;

  /// Predicted category distribution r over the planned interval, written
  /// into `out` through the calling thread's inference scratch: once the
  /// thread has forecast with a model of this shape, no heap allocation.
  /// Safe to call concurrently on one Forecaster.
  void ForecastInto(const std::vector<double>& features,
                    std::vector<double>* out) const;

  /// Online fine-tuning step on a realized (features, outcome) pair (§3.3).
  /// Runs against the calling thread's workspace (FeedForwardNet::
  /// OnlineUpdate): allocation-free at steady state on the engine's plan
  /// boundary.
  void OnlineUpdate(const std::vector<double>& features,
                    const std::vector<double>& realized_distribution,
                    double learning_rate = 1e-3);

  /// Mean absolute error of the model's forecasts over a held-out category
  /// sequence, averaged element-wise like §5.6.
  Result<double> EvaluateMae(const CategorySequence& category_sequence,
                             double segment_seconds) const;

  size_t num_categories() const { return num_categories_; }
  const ForecasterOptions& options() const { return options_; }
  const ml::TrainReport& train_report() const { return report_; }

  /// Flat copy of the network parameters — the bit-identity handle behind
  /// OfflineModelsIdentical and the thread-count determinism checks.
  std::vector<double> ModelParameters() const {
    return net_.FlattenParameters();
  }

  /// Full persistent state of the forecasting network (architecture,
  /// parameters, Adam moments) for io::SaveOfflineModel. Together with
  /// options(), num_categories() and train_report() this is everything
  /// FromParts needs to reassemble the forecaster bitwise.
  ml::NetSnapshot SnapshotNet() const { return net_.Snapshot(); }

  /// Reassembles a trained forecaster from persisted parts — the inverse of
  /// SnapshotNet()/options()/train_report(). The restored object is bitwise
  /// equivalent to the original: same forecasts AND the same OnlineUpdate
  /// trajectory (the network snapshot carries the optimizer state). Fails
  /// when the network shape disagrees with the options (input must be
  /// input_splits * num_categories wide, output num_categories wide).
  static Result<Forecaster> FromParts(const ml::NetSnapshot& net_snapshot,
                                      const ForecasterOptions& options,
                                      size_t num_categories,
                                      ml::TrainReport report);

 private:
  Forecaster(ml::FeedForwardNet net, ForecasterOptions options,
             size_t num_categories, ml::TrainReport report)
      : net_(std::move(net)),
        options_(options),
        num_categories_(num_categories),
        report_(std::move(report)) {}

  ml::FeedForwardNet net_;
  ForecasterOptions options_;
  size_t num_categories_;
  ml::TrainReport report_;
};

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_FORECASTER_H_
