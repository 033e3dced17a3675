#ifndef SKYSCRAPER_ML_GMM_H_
#define SKYSCRAPER_ML_GMM_H_

#include <cstddef>
#include <vector>

#include "dag/thread_pool.h"
#include "ml/matrix.h"
#include "util/result.h"

namespace sky::ml {

struct GmmOptions {
  size_t k = 4;
  size_t max_iterations = 100;
  double tolerance = 1e-6;  ///< convergence threshold on log-likelihood
  uint64_t seed = 17;
  double min_variance = 1e-6;
};

/// Diagonal-covariance Gaussian mixture fitted with EM. The paper's Appendix
/// B.2 compares this against KMeans as the content-categorization backend
/// (Figure 17) and finds no end-to-end difference.
struct GmmModel {
  std::vector<std::vector<double>> means;      // k x dim
  std::vector<std::vector<double>> variances;  // k x dim (diagonal)
  std::vector<double> weights;                 // k, sums to 1
  double log_likelihood = 0.0;

  /// Index of the most likely component for `point`.
  size_t Classify(const std::vector<double>& point) const;

  /// Most likely component looking only at coordinate `dim` (the knob
  /// switcher's one-dimensional classification, analogous to Eq. 5).
  size_t ClassifyPartial(size_t dim, double value) const;
};

/// Fits a diagonal GMM with EM, initialized from a KMeansFit on the same
/// point matrix (one row per dimension, one column per point), whose
/// restarts fan out on `pool`; EM itself runs on the calling thread.
Result<GmmModel> GmmFit(const Matrix& points, const GmmOptions& options,
                        dag::ThreadPool* pool = nullptr);

}  // namespace sky::ml

#endif  // SKYSCRAPER_ML_GMM_H_
