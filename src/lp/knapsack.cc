#include "lp/knapsack.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

namespace sky::lp {

namespace {

/// Lower convex hull of a group's (weight, value) options in increasing
/// weight with strictly increasing value and decreasing marginal ratio.
/// Returns indices into the group's option arrays.
std::vector<size_t> EfficientFrontier(const std::vector<double>& values,
                                      const std::vector<double>& weights) {
  size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (weights[a] != weights[b]) return weights[a] < weights[b];
    return values[a] > values[b];
  });
  // Keep only Pareto-optimal options (strictly more value for more weight).
  std::vector<size_t> pareto;
  double best_v = -std::numeric_limits<double>::infinity();
  for (size_t i : order) {
    if (values[i] > best_v + 1e-15) {
      pareto.push_back(i);
      best_v = values[i];
    }
  }
  // Upper concave hull so marginal ratios are non-increasing.
  std::vector<size_t> hull;
  for (size_t i : pareto) {
    while (hull.size() >= 2) {
      size_t a = hull[hull.size() - 2];
      size_t b = hull[hull.size() - 1];
      double r1 = (values[b] - values[a]) /
                  std::max(1e-15, weights[b] - weights[a]);
      double r2 = (values[i] - values[b]) /
                  std::max(1e-15, weights[i] - weights[b]);
      if (r2 >= r1) {
        hull.pop_back();
      } else {
        break;
      }
    }
    hull.push_back(i);
  }
  return hull;
}

}  // namespace

Result<ChoiceSolution> MultipleChoiceKnapsackGreedy(
    const std::vector<std::vector<double>>& values,
    const std::vector<std::vector<double>>& weights, double capacity) {
  size_t groups = values.size();
  if (weights.size() != groups) {
    return Status::InvalidArgument("values/weights group count mismatch");
  }

  ChoiceSolution sol;
  sol.choice.assign(groups, 0);

  // Per-group hulls; current position on the hull.
  std::vector<std::vector<size_t>> hulls(groups);
  std::vector<size_t> pos(groups, 0);
  for (size_t g = 0; g < groups; ++g) {
    if (values[g].empty() || values[g].size() != weights[g].size()) {
      return Status::InvalidArgument("empty or mismatched option group");
    }
    hulls[g] = EfficientFrontier(values[g], weights[g]);
    sol.choice[g] = hulls[g][0];
    sol.total_value += values[g][hulls[g][0]];
    sol.total_weight += weights[g][hulls[g][0]];
  }
  if (sol.total_weight > capacity + 1e-9) {
    return Status::ResourceExhausted(
        "even the cheapest per-group selection exceeds capacity");
  }

  struct Upgrade {
    double ratio;
    double d_weight;
    double d_value;
    size_t group;
    size_t hull_pos;  // upgrade moves the group to hulls[group][hull_pos]
    bool operator<(const Upgrade& o) const { return ratio < o.ratio; }
  };
  std::priority_queue<Upgrade> pq;
  auto push_next = [&](size_t g) {
    size_t p = pos[g];
    if (p + 1 >= hulls[g].size()) return;
    size_t cur = hulls[g][p];
    size_t nxt = hulls[g][p + 1];
    double dw = weights[g][nxt] - weights[g][cur];
    double dv = values[g][nxt] - values[g][cur];
    pq.push(Upgrade{dv / std::max(1e-15, dw), dw, dv, g, p + 1});
  };
  for (size_t g = 0; g < groups; ++g) push_next(g);

  double remaining = capacity - sol.total_weight;
  while (!pq.empty()) {
    Upgrade u = pq.top();
    pq.pop();
    if (u.hull_pos != pos[u.group] + 1) continue;  // stale entry
    if (u.d_weight > remaining + 1e-12) continue;  // does not fit; skip
    pos[u.group] = u.hull_pos;
    sol.choice[u.group] = hulls[u.group][u.hull_pos];
    sol.total_value += u.d_value;
    sol.total_weight += u.d_weight;
    remaining -= u.d_weight;
    push_next(u.group);
  }
  return sol;
}

}  // namespace sky::lp
