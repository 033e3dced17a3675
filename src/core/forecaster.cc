#include "core/forecaster.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/stats.h"

namespace sky::core {

namespace {

/// Forecaster::InputSegments for `options`.
size_t InputSegmentsFor(const ForecasterOptions& options,
                        double segment_seconds) {
  return std::max<size_t>(
      options.input_splits,
      static_cast<size_t>(options.input_span / segment_seconds));
}

/// Forecaster::SplitWindow for `options`: the one split rule, which the
/// engine's features and the training rows both read.
std::pair<size_t, size_t> SplitWindowFor(const ForecasterOptions& options,
                                         size_t split, size_t available,
                                         double segment_seconds) {
  size_t used = std::min(InputSegmentsFor(options, segment_seconds), available);
  size_t start = available - used;
  size_t split_len = std::max<size_t>(1, used / options.input_splits);
  size_t begin = start + split * split_len;
  size_t end =
      split + 1 == options.input_splits ? available : begin + split_len;
  return {std::min(begin, available), std::min(end, available)};
}

}  // namespace

Result<ForecastDataset> BuildForecastDataset(
    const CategorySequence& category_sequence, double segment_seconds,
    size_t num_categories, const ForecasterOptions& options) {
  if (num_categories == 0) {
    return Status::InvalidArgument("num_categories must be positive");
  }
  if (segment_seconds <= 0) {
    return Status::InvalidArgument("segment_seconds must be positive");
  }
  if (options.input_splits == 0) {
    return Status::InvalidArgument("input_splits must be positive");
  }
  size_t in_segs =
      static_cast<size_t>(options.input_span / segment_seconds);
  size_t out_segs =
      static_cast<size_t>(options.planned_interval / segment_seconds);
  size_t stride = std::max<size_t>(
      1, static_cast<size_t>(options.training_stride / segment_seconds));
  if (in_segs < options.input_splits || out_segs == 0) {
    return Status::InvalidArgument("input span/planned interval too short");
  }
  if (category_sequence.size() < in_segs + out_segs) {
    return Status::InvalidArgument(
        "category sequence shorter than one input+target window");
  }

  size_t n = category_sequence.size();
  size_t samples = (n - in_segs - out_segs) / stride + 1;
  ml::Matrix X(samples, options.input_splits * num_categories);
  ml::Matrix Y(samples, num_categories);

  // Row `row`: the features a forecaster computes from the first s segments
  // as input, the histogram of the next out_segs as target. Sample windows
  // overlap almost entirely (stride << window), so scanning each window
  // would touch the sequence O(samples * window) times. Instead one pass
  // records the running category counts at every window edge a row reads,
  // and every window histogram is an O(|C|) subtraction of two of them.
  // Counts are integers, exact in doubles, so the rows are bitwise the
  // scanned ones.
  auto for_each_window = [&](size_t row, auto&& visit) {
    size_t s = in_segs + row * stride;
    for (size_t split = 0; split < options.input_splits; ++split) {
      auto [begin, end] = SplitWindowFor(options, split, s, segment_seconds);
      visit(begin, end, X.RowPtr(row) + split * num_categories);
    }
    visit(s, s + out_segs, Y.RowPtr(row));
  };
  std::vector<size_t> edges;
  edges.reserve(samples * 2 * (options.input_splits + 1));
  for (size_t row = 0; row < samples; ++row) {
    for_each_window(row, [&](size_t begin, size_t end, double*) {
      edges.push_back(begin);
      edges.push_back(end);
    });
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  // counts[e * |C| + c]: segments of category c before edges[e].
  std::vector<uint32_t> counts(edges.size() * num_categories);
  std::vector<uint32_t> running(num_categories, 0);
  size_t i = 0;
  for (size_t e = 0; e < edges.size(); ++e) {
    category_sequence.CountInto(i, edges[e] - i, num_categories,
                                running.data());
    i = edges[e];
    std::copy(running.begin(), running.end(),
              counts.begin() + static_cast<ptrdiff_t>(e * num_categories));
  }
  auto counts_at = [&](size_t edge) {
    size_t e = static_cast<size_t>(
        std::lower_bound(edges.begin(), edges.end(), edge) - edges.begin());
    return counts.data() + e * num_categories;
  };
  // Normalized histogram of [begin, end) into `out`: the exact counts, then
  // the normalization the engine's features use.
  for (size_t row = 0; row < samples; ++row) {
    for_each_window(row, [&](size_t begin, size_t end, double* out) {
      const uint32_t* lo = counts_at(begin);
      const uint32_t* hi = counts_at(end);
      for (size_t c = 0; c < num_categories; ++c) {
        out[c] = static_cast<double>(hi[c] - lo[c]);
      }
      NormalizeHistogramInPlace(out, num_categories);
    });
  }
  return ForecastDataset{std::move(X), std::move(Y)};
}

Result<Forecaster> Forecaster::Train(
    const CategorySequence& category_sequence, double segment_seconds,
    size_t num_categories, const ForecasterOptions& options) {
  SKY_ASSIGN_OR_RETURN(
      ForecastDataset data,
      BuildForecastDataset(category_sequence, segment_seconds, num_categories,
                           options));
  Rng rng(options.seed);
  // Appendix K architecture: input -> 16 ReLU -> 8 ReLU -> |C| softmax.
  ml::FeedForwardNet net(data.inputs.cols(), {16, 8}, num_categories, &rng);
  SKY_ASSIGN_OR_RETURN(
      ml::TrainReport report,
      net.Train(data.inputs, data.targets, options.train_options));
  return Forecaster(std::move(net), options, num_categories,
                    std::move(report));
}

Result<Forecaster> Forecaster::FromParts(const ml::NetSnapshot& net_snapshot,
                                         const ForecasterOptions& options,
                                         size_t num_categories,
                                         ml::TrainReport report) {
  if (num_categories == 0) {
    return Status::InvalidArgument("forecaster needs at least one category");
  }
  SKY_ASSIGN_OR_RETURN(ml::FeedForwardNet net,
                       ml::FeedForwardNet::FromSnapshot(net_snapshot));
  if (net.output_dim() != num_categories ||
      net.input_dim() != options.input_splits * num_categories) {
    return Status::InvalidArgument(
        "forecaster network shape disagrees with its options");
  }
  return Forecaster(std::move(net), options, num_categories,
                    std::move(report));
}

size_t Forecaster::InputSegments(double segment_seconds) const {
  return InputSegmentsFor(options_, segment_seconds);
}

std::pair<size_t, size_t> Forecaster::SplitWindow(
    size_t split, size_t available, double segment_seconds) const {
  return SplitWindowFor(options_, split, available, segment_seconds);
}

void Forecaster::FeaturesFromSplitCountsInto(
    const std::vector<uint32_t>& split_counts,
    std::vector<double>* out) const {
  out->assign(split_counts.begin(), split_counts.end());
  for (size_t split = 0; split < options_.input_splits; ++split) {
    NormalizeHistogramInPlace(out->data() + split * num_categories_,
                              num_categories_);
  }
}

void Forecaster::ForecastInto(const std::vector<double>& features,
                              std::vector<double>* out) const {
  thread_local ml::PredictScratch scratch;
  net_.PredictInto(features, &scratch, out);
}

void Forecaster::OnlineUpdate(const std::vector<double>& features,
                              const std::vector<double>& realized_distribution,
                              double learning_rate) {
  net_.OnlineUpdate(features, realized_distribution, learning_rate);
}

Result<double> Forecaster::EvaluateMae(
    const CategorySequence& category_sequence,
    double segment_seconds) const {
  SKY_ASSIGN_OR_RETURN(ForecastDataset data,
                       BuildForecastDataset(category_sequence, segment_seconds,
                                            num_categories_, options_));
  if (data.inputs.rows() == 0) {
    return Status::InvalidArgument("no evaluation samples");
  }
  // One batched forward pass over the whole evaluation set.
  ml::Matrix preds;
  net_.PredictBatchInto(data.inputs, &preds);
  double total = 0.0;
  for (size_t i = 0; i < preds.rows(); ++i) {
    const double* p = preds.RowPtr(i);
    const double* t = data.targets.RowPtr(i);
    double mae = 0.0;
    for (size_t c = 0; c < num_categories_; ++c) mae += std::abs(p[c] - t[c]);
    total += mae / static_cast<double>(num_categories_);
  }
  return total / static_cast<double>(preds.rows());
}

}  // namespace sky::core
