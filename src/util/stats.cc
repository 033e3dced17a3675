#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace sky {

double MeanAbsoluteError(const std::vector<double>& a,
                         const std::vector<double>& b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
  return s / static_cast<double>(a.size());
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double rank = (p / 100.0) * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

std::vector<double> NormalizeHistogram(std::vector<double> h) {
  NormalizeHistogramInPlace(h.data(), h.size());
  return h;
}

void NormalizeHistogramInPlace(double* h, size_t n) {
  if (n == 0) return;
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += h[i];
  if (s <= 0.0) {
    double u = 1.0 / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) h[i] = u;
    return;
  }
  for (size_t i = 0; i < n; ++i) h[i] /= s;
}

}  // namespace sky
