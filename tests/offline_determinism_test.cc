// The parallel offline phase must be a pure wall-clock knob: for a fixed
// seed, RunOfflinePhase produces a bit-identical OfflineModel for any thread
// count (per-index/per-chunk RNG forks, ordered result collection).

#include <gtest/gtest.h>

#include <cmath>

#include "core/offline.h"
#include "workloads/covid.h"

namespace sky::core {
namespace {

OfflineOptions SmallOffline(size_t num_threads) {
  OfflineOptions opts;
  opts.segment_seconds = 4.0;
  opts.train_horizon = Days(2);
  opts.num_categories = 3;
  // Skip forecaster training to keep the suite fast; the test below
  // trains it at every thread count.
  opts.train_forecaster = false;
  opts.num_threads = num_threads;
  return opts;
}

void ExpectModelsIdentical(const OfflineModel& a, const OfflineModel& b) {
  // Step 1a: filtered configurations.
  EXPECT_EQ(a.configs, b.configs);

  // Step 1b: placement profiles (bitwise on every simulated number).
  ASSERT_EQ(a.profiles.size(), b.profiles.size());
  for (size_t k = 0; k < a.profiles.size(); ++k) {
    const ConfigProfile& pa = a.profiles[k];
    const ConfigProfile& pb = b.profiles[k];
    EXPECT_EQ(pa.config_id, pb.config_id);
    EXPECT_EQ(pa.work_core_s_per_video_s, pb.work_core_s_per_video_s);
    ASSERT_EQ(pa.placements.size(), pb.placements.size());
    for (size_t p = 0; p < pa.placements.size(); ++p) {
      EXPECT_EQ(pa.placements[p].placement.node_loc,
                pb.placements[p].placement.node_loc);
      EXPECT_EQ(pa.placements[p].runtime_s, pb.placements[p].runtime_s);
      EXPECT_EQ(pa.placements[p].cloud_usd, pb.placements[p].cloud_usd);
      EXPECT_EQ(pa.placements[p].onprem_core_s, pb.placements[p].onprem_core_s);
      EXPECT_EQ(pa.placements[p].uplink_bytes, pb.placements[p].uplink_bytes);
    }
  }

  // Step 2: the clustering: centers and inertia.
  ASSERT_EQ(a.categories.NumCategories(), b.categories.NumCategories());
  ASSERT_EQ(a.categories.NumConfigs(), b.categories.NumConfigs());
  for (size_t c = 0; c < a.categories.NumCategories(); ++c) {
    for (size_t k = 0; k < a.categories.NumConfigs(); ++k) {
      EXPECT_EQ(a.categories.CenterQuality(c, k),
                b.categories.CenterQuality(c, k));
    }
  }
  EXPECT_EQ(a.categories.kmeans_model().inertia,
            b.categories.kmeans_model().inertia);

  // Step 3a: forecast training sequence.
  EXPECT_EQ(a.train_category_sequence, b.train_category_sequence);

  // The shared comparator (used by bench_table3_offline_runtime) must agree
  // with the granular checks above.
  EXPECT_TRUE(OfflineModelsIdentical(a, b));
}

TEST(OfflineDeterminismTest, IdenticalModelForThreadCounts1_2_8) {
  workloads::CovidWorkload covid;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);

  auto serial = RunOfflinePhase(covid, cluster, cost_model, SmallOffline(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (size_t threads : {2u, 8u}) {
    auto parallel =
        RunOfflinePhase(covid, cluster, cost_model, SmallOffline(threads));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectModelsIdentical(*serial, *parallel);
  }
}

TEST(OfflineDeterminismTest, BatchedForecasterIsBitIdenticalFor1_2_8Threads) {
  // The training sequence comes from the pooled steps and the net trains
  // on the calling thread, so the trained network — not just the training
  // data — must be bit-identical for every pool size.
  workloads::CovidWorkload covid;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);

  OfflineOptions opts = SmallOffline(1);
  opts.train_forecaster = true;
  // Forecaster windows sized to the 2-day training horizon.
  opts.forecaster.input_span = Hours(12);
  opts.forecaster.planned_interval = Hours(6);
  opts.forecaster.training_stride = Minutes(15);
  opts.forecaster.train_options.epochs = 8;

  auto serial = RunOfflinePhase(covid, cluster, cost_model, opts);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(serial->forecaster.has_value());
  std::vector<double> reference = serial->forecaster->ModelParameters();

  for (size_t threads : {2u, 8u}) {
    opts.num_threads = threads;
    auto parallel = RunOfflinePhase(covid, cluster, cost_model, opts);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_TRUE(parallel->forecaster.has_value());
    EXPECT_EQ(parallel->forecaster->ModelParameters(), reference)
        << threads << " threads";
    // The shared comparator (used by the benches) sees the forecaster too.
    EXPECT_TRUE(OfflineModelsIdentical(*serial, *parallel));
  }
}

TEST(OfflineDeterminismTest, ExternalPoolMatchesOwnedPool) {
  workloads::CovidWorkload covid;
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);

  auto serial = RunOfflinePhase(covid, cluster, cost_model, SmallOffline(1));
  ASSERT_TRUE(serial.ok());

  dag::ThreadPool pool(4);
  OfflineOptions opts = SmallOffline(1);
  opts.pool = &pool;
  auto pooled = RunOfflinePhase(covid, cluster, cost_model, opts);
  ASSERT_TRUE(pooled.ok());
  ExpectModelsIdentical(*serial, *pooled);
}

TEST(OfflineDeterminismTest, ComparatorSeesEveryPersistedClusteringField) {
  // The CATG chunk persists the k-means inertia and the GMM's variances,
  // weights and log-likelihood beside the centers, and GMM classification
  // reads the variances and weights; one changed value in any of them makes
  // two models differ. The fit's k-means assignments are not kept.
  ml::Matrix points(2, 40);
  Rng rng(7);
  for (double& v : points.data()) v = rng.Normal(0.0, 1.0);

  ml::KMeansOptions km;
  km.k = 3;
  auto kmeans = ml::KMeansFit(points, km);
  ASSERT_TRUE(kmeans.ok());
  OfflineModel a;
  a.categories = ContentCategories::FromKMeans(*kmeans);
  OfflineModel b = a;
  EXPECT_TRUE(OfflineModelsIdentical(a, b));
  EXPECT_TRUE(a.categories.kmeans_model().assignments.empty());
  ml::KMeansModel moved = *kmeans;
  moved.centers[1][0] = std::nextafter(moved.centers[1][0], 1e300);
  b.categories = ContentCategories::FromKMeans(moved);
  EXPECT_FALSE(OfflineModelsIdentical(a, b));
  ml::KMeansModel heavier = *kmeans;
  heavier.inertia = std::nextafter(heavier.inertia, 1e300);
  b.categories = ContentCategories::FromKMeans(heavier);
  EXPECT_FALSE(OfflineModelsIdentical(a, b));

  ml::GmmOptions gm;
  gm.k = 3;
  auto gmm = ml::GmmFit(points, gm);
  ASSERT_TRUE(gmm.ok());
  a.categories = ContentCategories::FromGmm(*gmm);
  b = a;
  EXPECT_TRUE(OfflineModelsIdentical(a, b));
  ml::GmmModel wider = *gmm;
  wider.variances[1][0] = std::nextafter(wider.variances[1][0], 1e300);
  b.categories = ContentCategories::FromGmm(wider);
  EXPECT_FALSE(OfflineModelsIdentical(a, b));
  ml::GmmModel reweighted = *gmm;
  reweighted.weights[2] = std::nextafter(reweighted.weights[2], 0.0);
  b.categories = ContentCategories::FromGmm(reweighted);
  EXPECT_FALSE(OfflineModelsIdentical(a, b));
  ml::GmmModel likelier = *gmm;
  likelier.log_likelihood = std::nextafter(likelier.log_likelihood, 1e300);
  b.categories = ContentCategories::FromGmm(likelier);
  EXPECT_FALSE(OfflineModelsIdentical(a, b));
}

}  // namespace
}  // namespace sky::core
