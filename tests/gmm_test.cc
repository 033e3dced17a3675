#include "ml/gmm.h"

#include <gtest/gtest.h>

#include "dag/thread_pool.h"
#include "util/rng.h"

namespace sky::ml {
namespace {

/// One column per point, as GmmFit reads them.
Matrix Points(const std::vector<std::vector<double>>& pts) {
  Matrix m(pts.empty() ? 0 : pts[0].size(), pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    for (size_t d = 0; d < m.rows(); ++d) m.At(d, i) = pts[i][d];
  }
  return m;
}

Matrix TwoBlobs(size_t per_blob, uint64_t seed) {
  Rng rng(seed);
  Matrix pts(2, 2 * per_blob);
  for (size_t i = 0; i < per_blob; ++i) {
    pts.At(0, i) = rng.Normal(0, 0.4);
    pts.At(1, i) = rng.Normal(0, 0.4);
  }
  for (size_t i = per_blob; i < 2 * per_blob; ++i) {
    pts.At(0, i) = rng.Normal(6, 0.8);
    pts.At(1, i) = rng.Normal(6, 0.8);
  }
  return pts;
}

TEST(GmmTest, RecoversTwoComponents) {
  auto pts = TwoBlobs(120, 11);
  GmmOptions opts;
  opts.k = 2;
  auto model = GmmFit(pts, opts);
  ASSERT_TRUE(model.ok());
  // One mean near (0,0), one near (6,6), weights about equal.
  size_t near_origin = model->means[0][0] < 3.0 ? 0 : 1;
  size_t other = 1 - near_origin;
  EXPECT_NEAR(model->means[near_origin][0], 0.0, 0.3);
  EXPECT_NEAR(model->means[other][0], 6.0, 0.4);
  EXPECT_NEAR(model->weights[0], 0.5, 0.1);
}

TEST(GmmTest, ClassifyAssignsToRightComponent) {
  auto pts = TwoBlobs(100, 12);
  GmmOptions opts;
  opts.k = 2;
  auto model = GmmFit(pts, opts);
  ASSERT_TRUE(model.ok());
  size_t a = model->Classify({0.1, -0.2});
  size_t b = model->Classify({6.2, 5.9});
  EXPECT_NE(a, b);
}

TEST(GmmTest, ClassifyPartialSingleDimension) {
  auto pts = TwoBlobs(100, 13);
  GmmOptions opts;
  opts.k = 2;
  auto model = GmmFit(pts, opts);
  ASSERT_TRUE(model.ok());
  size_t a = model->ClassifyPartial(0, 0.0);
  size_t b = model->ClassifyPartial(0, 6.0);
  EXPECT_NE(a, b);
}

TEST(GmmTest, VarianceFloorRespected) {
  // All identical points: variance must not collapse to zero.
  Matrix pts = Points(std::vector<std::vector<double>>(20, {1.0, 2.0}));
  GmmOptions opts;
  opts.k = 1;
  opts.min_variance = 1e-4;
  auto model = GmmFit(pts, opts);
  ASSERT_TRUE(model.ok());
  EXPECT_GE(model->variances[0][0], 1e-4);
  EXPECT_GE(model->variances[0][1], 1e-4);
}

TEST(GmmTest, WeightsSumToOne) {
  auto pts = TwoBlobs(80, 14);
  GmmOptions opts;
  opts.k = 3;
  auto model = GmmFit(pts, opts);
  ASSERT_TRUE(model.ok());
  double sum = 0.0;
  for (double w : model->weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(GmmTest, RejectsBadInput) {
  GmmOptions opts;
  opts.k = 3;
  EXPECT_FALSE(GmmFit(Points({{1.0}, {2.0}}), opts).ok());
  opts.k = 0;
  EXPECT_FALSE(GmmFit(Points({{1.0}}), opts).ok());
}

TEST(GmmTest, LogLikelihoodImprovesOverKMeansInit) {
  auto pts = TwoBlobs(100, 15);
  GmmOptions one_iter;
  one_iter.k = 2;
  one_iter.max_iterations = 1;
  GmmOptions many;
  many.k = 2;
  many.max_iterations = 100;
  auto a = GmmFit(pts, one_iter);
  auto b = GmmFit(pts, many);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GE(b->log_likelihood, a->log_likelihood - 1e-6);
}

TEST(GmmTest, FitIsBitIdenticalOnAnyPool) {
  // The k-means initialization fans its restarts out on the pool; the
  // fitted mixture must not depend on it.
  Matrix pts = TwoBlobs(90, 16);
  GmmOptions opts;
  opts.k = 3;
  auto serial = GmmFit(pts, opts);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {1u, 3u, 7u}) {
    dag::ThreadPool pool(threads);
    auto pooled = GmmFit(pts, opts, &pool);
    ASSERT_TRUE(pooled.ok());
    EXPECT_EQ(pooled->means, serial->means) << threads << " threads";
    EXPECT_EQ(pooled->variances, serial->variances);
    EXPECT_EQ(pooled->weights, serial->weights);
    EXPECT_EQ(pooled->log_likelihood, serial->log_likelihood);
  }
}

}  // namespace
}  // namespace sky::ml
