#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/rng.h"
#include "util/sim_time.h"
#include "util/stats.h"
#include "util/table.h"

namespace sky {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng(3);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(std::sqrt(stats.variance()), 2.0, 0.1);
}

TEST(RngTest, PoissonMean) {
  Rng rng(4);
  OnlineStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(static_cast<double>(rng.Poisson(3.5)));
  }
  EXPECT_NEAR(stats.mean(), 3.5, 0.1);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, BernoulliClampsOutOfRangeP) {
  Rng rng(6);
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(7), b(7);
  Rng fa = a.Fork("child");
  Rng fb = b.Fork("child");
  EXPECT_DOUBLE_EQ(fa.Uniform(0, 1), fb.Uniform(0, 1));
  Rng other = a.Fork("different");
  // Different tags should (overwhelmingly) diverge.
  bool diverged = false;
  Rng same = b.Fork("child");
  for (int i = 0; i < 10; ++i) {
    if (other.Uniform(0, 1) != same.Uniform(0, 1)) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(StatsTest, MeanAbsoluteError) {
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1, 2}, {2, 4}), 1.5);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 2.5);
}

TEST(StatsTest, OnlineStatsTracksExtremes) {
  OnlineStats s;
  s.Add(3);
  s.Add(-1);
  s.Add(10);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.min(), -1);
  EXPECT_DOUBLE_EQ(s.max(), 10);
  EXPECT_DOUBLE_EQ(s.sum(), 12);
  EXPECT_NEAR(s.mean(), 4.0, 1e-12);
}

TEST(StatsTest, NormalizeHistogram) {
  std::vector<double> h = NormalizeHistogram({1, 3});
  EXPECT_DOUBLE_EQ(h[0], 0.25);
  EXPECT_DOUBLE_EQ(h[1], 0.75);
  std::vector<double> zero = NormalizeHistogram({0, 0, 0, 0});
  for (double v : zero) EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(NormalizeHistogram({}).empty());
}

TEST(SimTimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(Minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(Hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(Days(1), 86400.0);
  EXPECT_DOUBLE_EQ(HourOfDay(Days(1) + Hours(5)), 5.0);
  EXPECT_DOUBLE_EQ(TimeOfDay(Days(3)), 0.0);
}

TEST(TableTest, PrintsAlignedRows) {
  TablePrinter t("demo");
  t.SetHeader({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({TablePrinter::Fmt(1.5, 1), TablePrinter::Pct(0.5, 0)});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("demo"), std::string::npos);
  EXPECT_NE(os.str().find("bb"), std::string::npos);
  EXPECT_NE(os.str().find("50%"), std::string::npos);
  EXPECT_EQ(TablePrinter::Fmt(1.5, 1), "1.5");
  EXPECT_EQ(TablePrinter::Usd(14.9), "$14.90");
}

}  // namespace
}  // namespace sky
