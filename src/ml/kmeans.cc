#include "ml/kmeans.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "ml/kernels.h"

namespace sky::ml {

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

/// SquaredDistance from point i (column i of `points`) to `center`.
double PointDistance(const Matrix& points, size_t i, const double* center) {
  const double* p = points.data().data() + i;
  const size_t n = points.cols();
  double s = 0.0;
  for (size_t d = 0; d < points.rows(); ++d) {
    double diff = p[d * n] - center[d];
    s += diff * diff;
  }
  return s;
}

void CopyPoint(const Matrix& points, size_t i, double* out) {
  for (size_t d = 0; d < points.rows(); ++d) out[d] = points.At(d, i);
}

/// One restart's state, sized before the restarts fan out so that no Lloyd
/// loop allocates. Centers and sums are k x dim, row-major.
struct Restart {
  std::vector<double> centers;
  std::vector<size_t> assignments;
  std::vector<double> sums;
  std::vector<size_t> counts;
  double inertia = 0.0;
};

/// k-means++ seeding of the k centers at `centers`, drawing from `rng`;
/// `dist2` is a work buffer.
void KppInit(const Matrix& points, size_t k, Rng* rng,
             std::vector<double>* dist2, double* centers) {
  const size_t n = points.cols();
  const size_t dim = points.rows();
  size_t first =
      static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
  CopyPoint(points, first, centers);
  dist2->assign(n, std::numeric_limits<double>::infinity());
  for (size_t have = 1; have < k; ++have) {
    const double* last = centers + (have - 1) * dim;
    double* next = centers + have * dim;
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      (*dist2)[i] = std::min((*dist2)[i], PointDistance(points, i, last));
      total += (*dist2)[i];
    }
    if (total <= 0.0) {
      // All remaining points coincide with existing centers; duplicate one.
      CopyPoint(points, 0, next);
      continue;
    }
    double r = rng->Uniform(0.0, total);
    double acc = 0.0;
    size_t chosen = n - 1;
    for (size_t i = 0; i < n; ++i) {
      acc += (*dist2)[i];
      if (acc >= r) {
        chosen = i;
        break;
      }
    }
    CopyPoint(points, chosen, next);
  }
}

/// Lloyd's loop from the seeded centers. Every sum runs in point order, so
/// the result does not depend on which thread runs it.
void LloydRun(const Matrix& points, size_t k, size_t max_iterations,
              const KernelOps& ops, Restart* run) {
  const size_t n = points.cols();
  const size_t dim = points.rows();
  const double* p = points.data().data();
  double* centers = run->centers.data();
  size_t* assign = run->assignments.data();
  double* sums = run->sums.data();
  size_t* counts = run->counts.data();

  for (size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = ops.nearest_center_f64(p, n, n, dim, centers, k, assign);
    std::fill(run->sums.begin(), run->sums.end(), 0.0);
    std::fill(run->counts.begin(), run->counts.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      double* sum = sums + assign[i] * dim;
      ++counts[assign[i]];
      for (size_t d = 0; d < dim; ++d) sum[d] += p[d * n + i];
    }
    for (size_t c = 0; c < k; ++c) {
      double* center = centers + c * dim;
      if (counts[c] == 0) {
        // Re-seed an empty cluster at the point farthest from its center.
        size_t far = 0;
        double far_d = -1.0;
        for (size_t i = 0; i < n; ++i) {
          double d = PointDistance(points, i, centers + assign[i] * dim);
          if (d > far_d) {
            far_d = d;
            far = i;
          }
        }
        CopyPoint(points, far, center);
        changed = true;
        continue;
      }
      for (size_t d = 0; d < dim; ++d) {
        center[d] = sums[c * dim + d] / static_cast<double>(counts[c]);
      }
    }
    if (!changed) break;
  }

  run->inertia = 0.0;
  for (size_t i = 0; i < n; ++i) {
    run->inertia += PointDistance(points, i, centers + assign[i] * dim);
  }
}

}  // namespace

size_t KMeansModel::Classify(const std::vector<double>& point) const {
  assert(!centers.empty());
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centers.size(); ++c) {
    double d = SquaredDistance(point, centers[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

size_t KMeansModel::ClassifyPartial(size_t dim, double value) const {
  assert(!centers.empty() && dim < centers[0].size());
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < centers.size(); ++c) {
    double d = std::abs(centers[c][dim] - value);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

Result<KMeansModel> KMeansFit(const Matrix& points,
                              const KMeansOptions& options,
                              dag::ThreadPool* pool) {
  if (options.k == 0) return Status::InvalidArgument("k must be positive");
  const size_t n = points.cols();
  const size_t dim = points.rows();
  if (n < options.k) {
    return Status::InvalidArgument("fewer points than clusters");
  }
  if (dim == 0) return Status::InvalidArgument("zero-dimensional points");

  // Seed every restart on this thread, in restart order, from the one Rng
  // (Lloyd's loop draws nothing), and size every buffer here too: pool
  // threads that allocate grow arenas of their own.
  const size_t k = options.k;
  std::vector<Restart> runs(std::max<size_t>(1, options.restarts));
  Rng rng(options.seed);
  std::vector<double> dist2;
  for (Restart& run : runs) {
    run.centers.resize(k * dim);
    run.assignments.assign(n, 0);
    run.sums.resize(k * dim);
    run.counts.resize(k);
    KppInit(points, k, &rng, &dist2, run.centers.data());
  }

  const KernelOps& ops = ActiveKernels();
  dag::ParallelFor(pool, runs.size(), [&](size_t r) {
    LloydRun(points, k, options.max_iterations, ops, &runs[r]);
  });

  KMeansModel best;
  best.inertia = std::numeric_limits<double>::infinity();
  for (Restart& run : runs) {
    if (run.inertia < best.inertia) {
      best.centers.assign(k, std::vector<double>(dim));
      for (size_t c = 0; c < k; ++c) {
        std::copy_n(run.centers.begin() + c * dim, dim,
                    best.centers[c].begin());
      }
      best.assignments = std::move(run.assignments);
      best.inertia = run.inertia;
    }
  }
  return best;
}

}  // namespace sky::ml
