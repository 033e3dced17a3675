// The reference k-means for ml::KMeansFit: one std::vector per point,
// k-means++ seeding and Lloyd's loop run restart after restart on the
// calling thread.

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/oracles.h"
#include "util/rng.h"

namespace sky::oracle {

namespace {

double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

std::vector<std::vector<double>> KppInit(
    const std::vector<std::vector<double>>& points, size_t k, Rng* rng) {
  std::vector<std::vector<double>> centers;
  centers.reserve(k);
  size_t first = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(points.size()) - 1));
  centers.push_back(points[first]);
  std::vector<double> dist2(points.size(),
                            std::numeric_limits<double>::infinity());
  while (centers.size() < k) {
    double total = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
      dist2[i] = std::min(dist2[i], SquaredDistance(points[i], centers.back()));
      total += dist2[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with existing centers; duplicate one.
      centers.push_back(points[0]);
      continue;
    }
    double r = rng->Uniform(0.0, total);
    double acc = 0.0;
    size_t chosen = points.size() - 1;
    for (size_t i = 0; i < points.size(); ++i) {
      acc += dist2[i];
      if (acc >= r) {
        chosen = i;
        break;
      }
    }
    centers.push_back(points[chosen]);
  }
  return centers;
}

ml::KMeansModel LloydRun(const std::vector<std::vector<double>>& points,
                         size_t k, size_t max_iterations, Rng* rng) {
  size_t dim = points[0].size();
  ml::KMeansModel model;
  model.centers = KppInit(points, k, rng);
  model.assignments.assign(points.size(), 0);

  for (size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < points.size(); ++i) {
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        double d = SquaredDistance(points[i], model.centers[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (model.assignments[i] != best) {
        model.assignments[i] = best;
        changed = true;
      }
    }
    std::vector<std::vector<double>> sums(k, std::vector<double>(dim, 0.0));
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < points.size(); ++i) {
      size_t c = model.assignments[i];
      ++counts[c];
      for (size_t d = 0; d < dim; ++d) sums[c][d] += points[i][d];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the point farthest from its center.
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < points.size(); ++i) {
          double d = SquaredDistance(points[i],
                                     model.centers[model.assignments[i]]);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        model.centers[c] = points[far];
        changed = true;
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        model.centers[c][d] = sums[c][d] / static_cast<double>(counts[c]);
      }
    }
    if (!changed) break;
  }

  model.inertia = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    model.inertia +=
        SquaredDistance(points[i], model.centers[model.assignments[i]]);
  }
  return model;
}

}  // namespace

Result<ml::KMeansModel> KMeansFit(
    const std::vector<std::vector<double>>& points,
    const ml::KMeansOptions& options) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  if (points.size() < options.k) {
    return Status::InvalidArgument("fewer points than clusters");
  }
  size_t dim = points[0].size();
  if (dim == 0) return Status::InvalidArgument("zero-dimensional points");
  for (const auto& p : points) {
    if (p.size() != dim) {
      return Status::InvalidArgument("inconsistent point dimensionality");
    }
  }

  Rng rng(options.seed);
  ml::KMeansModel best;
  best.inertia = std::numeric_limits<double>::infinity();
  size_t restarts = std::max<size_t>(1, options.restarts);
  for (size_t r = 0; r < restarts; ++r) {
    ml::KMeansModel m =
        LloydRun(points, options.k, options.max_iterations, &rng);
    if (m.inertia < best.inertia) best = std::move(m);
  }
  return best;
}

std::vector<std::vector<double>> PointsOf(const ml::Matrix& columns) {
  std::vector<std::vector<double>> points(columns.cols(),
                                          std::vector<double>(columns.rows()));
  for (size_t i = 0; i < columns.cols(); ++i) {
    for (size_t d = 0; d < columns.rows(); ++d) {
      points[i][d] = columns.At(d, i);
    }
  }
  return points;
}

}  // namespace sky::oracle
