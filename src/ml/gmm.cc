#include "ml/gmm.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "ml/kmeans.h"

namespace sky::ml {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

/// Log density of a diagonal Gaussian at the `dim`-dimensional point whose
/// coordinate d is x[d * stride].
double LogGaussian(const double* x, size_t stride, size_t dim,
                   const std::vector<double>& mean,
                   const std::vector<double>& var) {
  double out = 0.0;
  for (size_t d = 0; d < dim; ++d) {
    double diff = x[d * stride] - mean[d];
    out += -0.5 * (kLog2Pi + std::log(var[d]) + diff * diff / var[d]);
  }
  return out;
}

double LogSumExp(const std::vector<double>& v) {
  double mx = *std::max_element(v.begin(), v.end());
  double s = 0.0;
  for (double x : v) s += std::exp(x - mx);
  return mx + std::log(s);
}

}  // namespace

size_t GmmModel::Classify(const std::vector<double>& point) const {
  assert(!means.empty());
  size_t best = 0;
  double best_ll = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < means.size(); ++c) {
    double ll = std::log(weights[c] + 1e-300) +
                LogGaussian(point.data(), 1, point.size(), means[c],
                            variances[c]);
    if (ll > best_ll) {
      best_ll = ll;
      best = c;
    }
  }
  return best;
}

size_t GmmModel::ClassifyPartial(size_t dim, double value) const {
  assert(!means.empty() && dim < means[0].size());
  size_t best = 0;
  double best_ll = -std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < means.size(); ++c) {
    double diff = value - means[c][dim];
    double var = variances[c][dim];
    double ll = std::log(weights[c] + 1e-300) -
                0.5 * (kLog2Pi + std::log(var) + diff * diff / var);
    if (ll > best_ll) {
      best_ll = ll;
      best = c;
    }
  }
  return best;
}

Result<GmmModel> GmmFit(const Matrix& points, const GmmOptions& options,
                        dag::ThreadPool* pool) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (points.cols() < options.k) {
    return Status::InvalidArgument("fewer points than components");
  }
  size_t dim = points.rows();

  // Initialize from KMeans.
  KMeansOptions km_opts;
  km_opts.k = options.k;
  km_opts.seed = options.seed;
  SKY_ASSIGN_OR_RETURN(KMeansModel km, KMeansFit(points, km_opts, pool));

  GmmModel model;
  model.means = km.centers;
  model.variances.assign(options.k, std::vector<double>(dim, 0.0));
  model.weights.assign(options.k, 0.0);

  std::vector<size_t> counts(options.k, 0);
  for (size_t i = 0; i < points.cols(); ++i) {
    size_t c = km.assignments[i];
    ++counts[c];
    for (size_t d = 0; d < dim; ++d) {
      double diff = points.At(d, i) - model.means[c][d];
      model.variances[c][d] += diff * diff;
    }
  }
  for (size_t c = 0; c < options.k; ++c) {
    model.weights[c] = static_cast<double>(std::max<size_t>(1, counts[c])) /
                       static_cast<double>(points.cols());
    for (size_t d = 0; d < dim; ++d) {
      model.variances[c][d] =
          std::max(options.min_variance,
                   model.variances[c][d] /
                       static_cast<double>(std::max<size_t>(1, counts[c])));
    }
  }

  size_t n = points.cols();
  std::vector<std::vector<double>> resp(n, std::vector<double>(options.k));
  double prev_ll = -std::numeric_limits<double>::infinity();

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    // E-step.
    double ll = 0.0;
    std::vector<double> logp(options.k);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < options.k; ++c) {
        logp[c] = std::log(model.weights[c] + 1e-300) +
                  LogGaussian(points.data().data() + i, n, dim,
                              model.means[c], model.variances[c]);
      }
      double lse = LogSumExp(logp);
      ll += lse;
      for (size_t c = 0; c < options.k; ++c) {
        resp[i][c] = std::exp(logp[c] - lse);
      }
    }
    model.log_likelihood = ll;
    if (std::abs(ll - prev_ll) < options.tolerance * std::abs(ll)) break;
    prev_ll = ll;

    // M-step.
    for (size_t c = 0; c < options.k; ++c) {
      double nc = 0.0;
      std::vector<double> mean(dim, 0.0);
      for (size_t i = 0; i < n; ++i) {
        nc += resp[i][c];
        for (size_t d = 0; d < dim; ++d) {
          mean[d] += resp[i][c] * points.At(d, i);
        }
      }
      nc = std::max(nc, 1e-12);
      for (size_t d = 0; d < dim; ++d) mean[d] /= nc;
      std::vector<double> var(dim, 0.0);
      for (size_t i = 0; i < n; ++i) {
        for (size_t d = 0; d < dim; ++d) {
          double diff = points.At(d, i) - mean[d];
          var[d] += resp[i][c] * diff * diff;
        }
      }
      for (size_t d = 0; d < dim; ++d) {
        var[d] = std::max(options.min_variance, var[d] / nc);
      }
      model.means[c] = std::move(mean);
      model.variances[c] = std::move(var);
      model.weights[c] = nc / static_cast<double>(n);
    }
  }
  return model;
}

}  // namespace sky::ml
