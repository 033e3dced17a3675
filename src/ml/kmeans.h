#ifndef SKYSCRAPER_ML_KMEANS_H_
#define SKYSCRAPER_ML_KMEANS_H_

#include <cstddef>
#include <vector>

#include "dag/thread_pool.h"
#include "ml/matrix.h"
#include "util/result.h"
#include "util/rng.h"

namespace sky::ml {

struct KMeansOptions {
  size_t k = 4;
  size_t max_iterations = 100;
  size_t restarts = 4;  ///< best-of-n runs with k-means++ seeding
  uint64_t seed = 17;
};

struct KMeansModel {
  /// Cluster centers; centers[c] has the data dimensionality.
  std::vector<std::vector<double>> centers;
  /// Assignment of each input point to a center index.
  std::vector<size_t> assignments;
  /// Sum of squared distances to assigned centers.
  double inertia = 0.0;

  /// Index of the nearest center to `point` (full dimensionality).
  size_t Classify(const std::vector<double>& point) const;

  /// Classification using only a single vector dimension (Eq. 5 of the
  /// paper): the knob switcher observes the quality of the *current* knob
  /// configuration only, so it picks the center whose `dim`-th coordinate is
  /// closest to `value`.
  size_t ClassifyPartial(size_t dim, double value) const;
};

/// Lloyd's algorithm with k-means++ initialization, best of
/// `options.restarts` runs. The points are the columns of `points`: it holds
/// one row per dimension and one column per point, so the dispatched
/// nearest-center kernel (ml/kernels.h) runs its lanes across points. Fails
/// if there are fewer points than clusters or the points have no
/// dimensions.
///
/// Every restart's k-means++ seeds are drawn first, in restart order, from
/// one Rng seeded with `options.seed`; the restarts' Lloyd loops then run
/// concurrently on `pool` (null runs them serially), and the first restart
/// with the lowest inertia wins. The model is bit-identical for any pool
/// size and any kernel backend.
Result<KMeansModel> KMeansFit(const Matrix& points,
                              const KMeansOptions& options,
                              dag::ThreadPool* pool = nullptr);

}  // namespace sky::ml

#endif  // SKYSCRAPER_ML_KMEANS_H_
