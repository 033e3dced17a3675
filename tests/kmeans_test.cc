#include "ml/kmeans.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "dag/thread_pool.h"
#include "support/oracles.h"

namespace sky::ml {
namespace {

/// One column per point, as KMeansFit reads them.
Matrix Points(const std::vector<std::vector<double>>& pts) {
  Matrix m(pts.empty() ? 0 : pts[0].size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t d = 0; d < m.rows(); ++d) m.At(d, i) = pts[i][d];
  }
  return m;
}

Matrix ThreeBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  Matrix pts(2, 3 * per_blob);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < per_blob; ++i) {
      pts.At(0, b * per_blob + i) = centers[b][0] + rng.Normal(0, 0.5);
      pts.At(1, b * per_blob + i) = centers[b][1] + rng.Normal(0, 0.5);
    }
  }
  return pts;
}

TEST(KMeansTest, RecoversWellSeparatedBlobs) {
  Matrix pts = ThreeBlobs(50, 3);
  KMeansOptions opts;
  opts.k = 3;
  auto model = KMeansFit(pts, opts);
  ASSERT_TRUE(model.ok());
  // Every blob should map to a single distinct cluster.
  std::set<size_t> blob_clusters;
  for (int b = 0; b < 3; ++b) {
    size_t c = model->assignments[b * 50];
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(model->assignments[b * 50 + i], c);
    }
    blob_clusters.insert(c);
  }
  EXPECT_EQ(blob_clusters.size(), 3u);
}

TEST(KMeansTest, InertiaIsSumOfSquaredDistances) {
  Matrix pts = Points({{0.0}, {1.0}, {10.0}, {11.0}});
  KMeansOptions opts;
  opts.k = 2;
  auto model = KMeansFit(pts, opts);
  ASSERT_TRUE(model.ok());
  // Optimal clustering: {0,1} and {10,11}, centers 0.5 and 10.5.
  EXPECT_NEAR(model->inertia, 4 * 0.25, 1e-9);
}

TEST(KMeansTest, ClassifyMatchesNearestCenter) {
  Matrix pts = ThreeBlobs(30, 4);
  KMeansOptions opts;
  opts.k = 3;
  auto model = KMeansFit(pts, opts);
  ASSERT_TRUE(model.ok());
  size_t c = model->Classify({10.2, -0.1});
  EXPECT_NEAR(model->centers[c][0], 10.0, 1.0);
  EXPECT_NEAR(model->centers[c][1], 0.0, 1.0);
}

TEST(KMeansTest, ClassifyPartialUsesSingleDimension) {
  KMeansModel model;
  model.centers = {{0.9, 0.2}, {0.5, 0.8}, {0.1, 0.5}};
  // Using only dimension 0 (the current config's quality), value 0.45 is
  // closest to center 1 (0.5).
  EXPECT_EQ(model.ClassifyPartial(0, 0.45), 1u);
  EXPECT_EQ(model.ClassifyPartial(0, 0.95), 0u);
  EXPECT_EQ(model.ClassifyPartial(1, 0.55), 2u);
}

TEST(KMeansTest, RejectsBadInput) {
  KMeansOptions opts;
  opts.k = 5;
  EXPECT_FALSE(KMeansFit(Points({{1.0}, {2.0}}), opts).ok());
  opts.k = 0;
  EXPECT_FALSE(KMeansFit(Points({{1.0}}), opts).ok());
  // A matrix cannot hold points of different sizes; the remaining shape
  // error is points with no coordinates.
  opts.k = 1;
  EXPECT_FALSE(KMeansFit(Matrix(0, 2), opts).ok());
}

TEST(KMeansTest, DeterministicGivenSeed) {
  Matrix pts = ThreeBlobs(40, 5);
  KMeansOptions opts;
  opts.k = 3;
  opts.seed = 99;
  auto a = KMeansFit(pts, opts);
  auto b = KMeansFit(pts, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignments, b->assignments);
  EXPECT_DOUBLE_EQ(a->inertia, b->inertia);
}

TEST(KMeansTest, HandlesDuplicatePoints) {
  std::vector<std::vector<double>> dup(10, {1.0, 1.0});
  dup.push_back({5.0, 5.0});
  Matrix pts = Points(dup);
  KMeansOptions opts;
  opts.k = 2;
  auto model = KMeansFit(pts, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->centers.size(), 2u);
}

// Property sweep: inertia never increases with k.
class KMeansInertiaSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(KMeansInertiaSweep, MoreClustersNeverWorse) {
  Matrix pts = ThreeBlobs(30, 6);
  KMeansOptions small;
  small.k = GetParam();
  KMeansOptions big;
  big.k = GetParam() + 1;
  auto a = KMeansFit(pts, small);
  auto b = KMeansFit(pts, big);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(b->inertia, a->inertia + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(KRange, KMeansInertiaSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Fits `points` with the serial oracle and with KMeansFit on every pool,
/// and requires the same centers, assignments and inertia, bit for bit.
void ExpectOracleParity(const Matrix& points, const KMeansOptions& opts,
                        const std::vector<dag::ThreadPool*>& pools) {
  auto want = oracle::KMeansFit(oracle::PointsOf(points), opts);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  for (dag::ThreadPool* pool : pools) {
    SCOPED_TRACE(pool == nullptr ? 0 : pool->num_threads());
    auto got = KMeansFit(points, opts, pool);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->centers.size(), want->centers.size());
    for (size_t c = 0; c < want->centers.size(); ++c) {
      ASSERT_EQ(got->centers[c].size(), want->centers[c].size());
      for (size_t d = 0; d < want->centers[c].size(); ++d) {
        EXPECT_TRUE(SameBits(got->centers[c][d], want->centers[c][d]))
            << "center " << c << " dim " << d;
      }
    }
    EXPECT_EQ(got->assignments, want->assignments);
    EXPECT_TRUE(SameBits(got->inertia, want->inertia))
        << got->inertia << " vs " << want->inertia;
  }
}

// Property sweep: KMeansFit, with its restarts on any pool and its
// assignment step on the active kernel backend, is the serial oracle bit
// for bit. Shapes cover k in [1, 6], dim in [1, 20] and point counts in
// every remainder class of the kernel's 4- and 16-point steps. A third of
// the point sets are corners of a unit cube of 1 to 3 dimensions; their
// coincident points make k-means++ duplicate a center and Lloyd's loop
// re-seed the emptied clusters (11 of those 30 sets do both).
TEST(KMeansTest, MatchesTheSerialOracleBitwiseOnAnyPool) {
  dag::ThreadPool pool1(1), pool3(3), pool7(7);
  const std::vector<dag::ThreadPool*> pools = {nullptr, &pool1, &pool3,
                                               &pool7};
  Rng rng(2323);
  for (int trial = 0; trial < 90; ++trial) {
    SCOPED_TRACE(trial);
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 6));
    size_t dim = static_cast<size_t>(rng.UniformInt(1, 20));
    const size_t n = k + static_cast<size_t>(rng.UniformInt(0, 70));
    const bool corners = trial % 3 == 0;
    if (corners) dim = 1 + dim % 3;
    Matrix points(dim, n);
    for (double& v : points.data()) {
      v = corners ? static_cast<double>(rng.UniformInt(0, 1))
                  : rng.Normal(0.0, 1.0) * std::pow(10.0, rng.Normal(0.0, 1.0));
    }
    KMeansOptions opts;
    opts.k = k;
    opts.restarts = static_cast<size_t>(rng.UniformInt(0, 6));
    opts.max_iterations = static_cast<size_t>(rng.UniformInt(0, 40));
    opts.seed = static_cast<uint64_t>(trial) * 7919 + 1;
    ExpectOracleParity(points, opts, pools);
  }
}

TEST(KMeansTest, DegenerateStartsMatchTheSerialOracle) {
  dag::ThreadPool pool3(3);
  const std::vector<dag::ThreadPool*> pools = {nullptr, &pool3};
  KMeansOptions opts;
  opts.k = 3;
  // All points coincide: every k-means++ draw after the first finds a zero
  // total (the duplicate-center branch), and the duplicated centers' empty
  // clusters are re-seeded on every iteration.
  ExpectOracleParity(Matrix(5, 13, 0.7), opts, pools);
  // Nine copies of one point and one other: the third seed duplicates a
  // center, so the start empties a cluster, and Lloyd's loop re-seeds it.
  std::vector<std::vector<double>> heavy(9, {0.25, 4.0});
  heavy.push_back({3.0, -1.0});
  ExpectOracleParity(Points(heavy), opts, pools);
  // Distinct seeds, but the first update moves a center past its only
  // points, and the emptied cluster is re-seeded at the point farthest
  // from its own center.
  opts.restarts = 1;
  opts.seed = 767278;
  ExpectOracleParity(Points({{20}, {8}, {14}, {8}, {15}, {7}, {8}}), opts,
                     pools);
}

}  // namespace
}  // namespace sky::ml
