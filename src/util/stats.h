#ifndef SKYSCRAPER_UTIL_STATS_H_
#define SKYSCRAPER_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace sky {

/// Mean absolute error between two equally sized vectors.
double MeanAbsoluteError(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Linear-interpolated percentile, p in [0, 100].
double Percentile(std::vector<double> xs, double p);

/// Streaming accumulator for mean / min / max / variance (Welford).
class OnlineStats {
 public:
  void Add(double x);
  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Normalizes a non-negative vector to sum to 1. A zero vector becomes
/// uniform. Used for content-category histograms throughout the system.
std::vector<double> NormalizeHistogram(std::vector<double> h);

/// NormalizeHistogram on the n values at `h`, in place: the one definition
/// of the rule, which the forecaster's features and training rows share.
/// The sum runs in index order, so integer counts normalize bitwise alike
/// however they were counted.
void NormalizeHistogramInPlace(double* h, size_t n);

}  // namespace sky

#endif  // SKYSCRAPER_UTIL_STATS_H_
