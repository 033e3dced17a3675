#include "core/categorizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/config_filter.h"
#include "core/offline.h"
#include "workloads/covid.h"

namespace sky::core {
namespace {

std::vector<KnobConfig> FilteredCovid(const workloads::CovidWorkload& covid) {
  ConfigFilterOptions opts;
  opts.presample_count = 30;
  opts.search_segment_count = 4;
  opts.train_horizon = Days(4);
  auto filtered = FilterKnobConfigs(covid, opts);
  EXPECT_TRUE(filtered.ok());
  return *filtered;
}

TEST(CategorizerTest, BuildsRequestedNumberOfCategories) {
  workloads::CovidWorkload covid;
  std::vector<KnobConfig> configs = FilteredCovid(covid);
  CategorizerOptions opts;
  opts.num_categories = 3;
  opts.train_horizon = Days(4);
  opts.segment_seconds = 4.0;
  auto cats = BuildContentCategories(covid, configs, opts);
  ASSERT_TRUE(cats.ok());
  EXPECT_EQ(cats->NumCategories(), 3u);
  EXPECT_EQ(cats->NumConfigs(), configs.size());
  for (size_t c = 0; c < 3; ++c) {
    for (size_t k = 0; k < configs.size(); ++k) {
      EXPECT_GE(cats->CenterQuality(c, k), 0.0);
      EXPECT_LE(cats->CenterQuality(c, k), 1.0);
    }
  }
}

TEST(CategorizerTest, CategoriesSeparateEasyFromHardContent) {
  workloads::CovidWorkload covid;
  std::vector<KnobConfig> configs = FilteredCovid(covid);
  CategorizerOptions opts;
  opts.num_categories = 3;
  opts.train_horizon = Days(6);
  opts.segment_seconds = 4.0;
  auto cats = BuildContentCategories(covid, configs, opts);
  ASSERT_TRUE(cats.ok());
  video::ContentState easy;
  easy.density = 0.03;
  easy.occlusion = 0.02;
  video::ContentState hard;
  hard.density = 0.9;
  hard.occlusion = 0.85;
  size_t easy_cat = cats->ClassifyFull(TrueQualityVector(covid, configs, easy));
  size_t hard_cat = cats->ClassifyFull(TrueQualityVector(covid, configs, hard));
  EXPECT_NE(easy_cat, hard_cat);
}

TEST(CategorizerTest, PartialClassificationMostlyMatchesFull) {
  // §4.2 / §5.6: one quality dimension should discriminate categories well
  // (Type-A errors are rare).
  workloads::CovidWorkload covid;
  std::vector<KnobConfig> configs = FilteredCovid(covid);
  CategorizerOptions opts;
  opts.num_categories = 3;
  opts.train_horizon = Days(6);
  opts.segment_seconds = 4.0;
  auto cats = BuildContentCategories(covid, configs, opts);
  ASSERT_TRUE(cats.ok());

  // Use a discriminating config dimension: the cheapest (index 0 after
  // cost-sorting) typically spreads across categories.
  size_t agree = 0, total = 0;
  for (double t = 0; t < Days(2); t += 120.0) {
    video::ContentState s = covid.content_process().At(Days(6) + t);
    std::vector<double> quals = TrueQualityVector(covid, configs, s);
    size_t full = cats->ClassifyFull(quals);
    size_t partial = cats->ClassifyPartial(0, quals[0]);
    agree += full == partial ? 1 : 0;
    ++total;
  }
  EXPECT_GT(static_cast<double>(agree) / total, 0.85);
}

TEST(CategorizerTest, GmmBackendWorks) {
  workloads::CovidWorkload covid;
  std::vector<KnobConfig> configs = FilteredCovid(covid);
  CategorizerOptions opts;
  opts.num_categories = 3;
  opts.train_horizon = Days(4);
  opts.segment_seconds = 4.0;
  opts.backend = CategorizerBackend::kGmm;
  auto cats = BuildContentCategories(covid, configs, opts);
  ASSERT_TRUE(cats.ok());
  EXPECT_EQ(cats->backend(), CategorizerBackend::kGmm);
  EXPECT_EQ(cats->NumCategories(), 3u);
  video::ContentState mid = covid.content_process().At(Hours(15));
  std::vector<double> q = TrueQualityVector(covid, configs, mid);
  EXPECT_LT(cats->ClassifyFull(q), 3u);
  EXPECT_LT(cats->ClassifyPartial(0, q[0]), 3u);
}

TEST(CategorizerTest, RejectsBadOptions) {
  workloads::CovidWorkload covid;
  std::vector<KnobConfig> configs = FilteredCovid(covid);
  CategorizerOptions opts;
  opts.num_categories = 0;
  EXPECT_FALSE(BuildContentCategories(covid, configs, opts).ok());
  CategorizerOptions opts2;
  EXPECT_FALSE(BuildContentCategories(covid, {}, opts2).ok());
}

TEST(CategorizerTest, OfflinePhaseRefusesMoreThanMaxCategories) {
  workloads::CovidWorkload covid;
  sim::ClusterSpec cluster;
  sim::CostModel cost_model(1.8);
  OfflineOptions opts;
  opts.num_categories = kMaxCategories + 1;
  auto model = RunOfflinePhase(covid, cluster, cost_model, opts);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(CategorizerTest, OfflinePhaseRefusesZeroCategoriesBeforeAnyStep) {
  workloads::CovidWorkload covid;
  sim::ClusterSpec cluster;
  sim::CostModel cost_model(1.8);
  OfflineOptions opts;
  opts.num_categories = 0;
  auto model = RunOfflinePhase(covid, cluster, cost_model, opts);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  // The phase's own range check, not the categorizer's after the
  // configuration filter and placement search have run.
  EXPECT_NE(model.status().message().find("num_categories 0"),
            std::string::npos)
      << model.status().ToString();
}

TEST(CategorizerTest, OfflinePhaseRefusesSegmentCountsOutsideInt64) {
  // horizon / segment_seconds becomes an int64 segment count; a zero,
  // negative or vanishing segment, or a NaN horizon, is refused before any
  // step runs instead of reaching that cast.
  workloads::CovidWorkload covid;
  sim::ClusterSpec cluster;
  sim::CostModel cost_model(1.8);
  for (double seconds : {0.0, -4.0, 1e-300}) {
    OfflineOptions opts;
    opts.segment_seconds = seconds;
    auto model = RunOfflinePhase(covid, cluster, cost_model, opts);
    ASSERT_FALSE(model.ok()) << seconds;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(model.status().message().find(
                  seconds == 1e-300 ? "train_horizon" : "segment_seconds"),
              std::string::npos)
        << model.status().ToString();
  }
  OfflineOptions opts;
  opts.train_horizon = std::nan("");
  auto model = RunOfflinePhase(covid, cluster, cost_model, opts);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(model.status().message().find("train_horizon"), std::string::npos)
      << model.status().ToString();
}

TEST(CategorizerTest, CategoriesAreIdenticalOnAnyPool) {
  // The quality scan and the clustering's restarts both fan out on the
  // pool; neither backend's fit may depend on it.
  workloads::CovidWorkload covid;
  std::vector<KnobConfig> configs = FilteredCovid(covid);
  for (CategorizerBackend backend :
       {CategorizerBackend::kKMeans, CategorizerBackend::kGmm}) {
    CategorizerOptions opts;
    opts.num_categories = 3;
    opts.train_horizon = Days(2);
    opts.segment_seconds = 4.0;
    opts.backend = backend;
    auto serial = BuildContentCategories(covid, configs, opts);
    ASSERT_TRUE(serial.ok());
    dag::ThreadPool pool(3);
    opts.pool = &pool;
    auto pooled = BuildContentCategories(covid, configs, opts);
    ASSERT_TRUE(pooled.ok());
    OfflineModel a, b;
    a.categories = std::move(serial).value();
    b.categories = std::move(pooled).value();
    EXPECT_TRUE(OfflineModelsIdentical(a, b));
  }
}

TEST(CategorizerTest, QualityVectorHelpers) {
  workloads::CovidWorkload covid;
  std::vector<KnobConfig> configs = FilteredCovid(covid);
  video::ContentState s = covid.content_process().At(Hours(12));
  std::vector<double> true_q = TrueQualityVector(covid, configs, s);
  EXPECT_EQ(true_q.size(), configs.size());
  Rng rng(3);
  std::vector<double> measured;
  for (const KnobConfig& k : configs) {
    measured.push_back(covid.MeasuredQuality(k, s, &rng));
  }
  EXPECT_EQ(measured.size(), configs.size());
  double diff = 0;
  for (size_t i = 0; i < true_q.size(); ++i) {
    diff += std::abs(measured[i] - true_q[i]);
  }
  EXPECT_GT(diff, 0.0);       // noise present
  EXPECT_LT(diff / true_q.size(), 0.15);  // but small
}

}  // namespace
}  // namespace sky::core
