#include "lp/mckp.h"

#include <algorithm>
#include <cmath>

namespace sky::lp {

namespace {

constexpr double kEps = 1e-9;

/// Builds the upper concave hull over points [beg, end) of the flat
/// (costs, values) arrays — cost strictly increasing, value strictly
/// increasing, slopes strictly decreasing along it. `order` must have size
/// >= end ([beg, end) is used as sorting scratch); hull point indices (into
/// the flat arrays) are written to `hull`, replacing its contents.
void BuildUpperHull(const double* costs, const double* values, size_t beg,
                    size_t end, std::vector<size_t>* order,
                    std::vector<size_t>* hull) {
  for (size_t j = beg; j < end; ++j) (*order)[j] = j;
  // Cost ascending; on equal cost the most valuable first, so every later
  // equal-cost point is dominated and skipped by the hull scan.
  std::sort(order->begin() + static_cast<ptrdiff_t>(beg),
            order->begin() + static_cast<ptrdiff_t>(end),
            [&](size_t a, size_t b) {
              if (costs[a] != costs[b]) return costs[a] < costs[b];
              return values[a] > values[b];
            });

  hull->clear();
  for (size_t i = beg; i < end; ++i) {
    size_t p = (*order)[i];
    if (!hull->empty()) {
      // Cost never decreases along the sort, so a point that is not more
      // valuable than the hull tip is dominated.
      if (values[p] <= values[hull->back()] + kEps) continue;
      // Same cost as the tip (within eps) but strictly more valuable:
      // the tip is dominated, not p.
      if (costs[p] <= costs[hull->back()] + kEps) hull->pop_back();
    }
    // Pop hull points that fall under the chord to p: keep slopes
    // strictly decreasing, merging collinear edges.
    while (hull->size() >= 2) {
      size_t b = (*hull)[hull->size() - 1];
      size_t a = (*hull)[hull->size() - 2];
      double lhs = (values[b] - values[a]) * (costs[p] - costs[b]);
      double rhs = (values[p] - values[b]) * (costs[b] - costs[a]);
      if (lhs <= rhs) {
        hull->pop_back();
      } else {
        break;
      }
    }
    hull->push_back(p);
  }
}

}  // namespace

Status MckpSolver::Solve(const double* costs, const double* values,
                         const size_t* offsets, size_t num_groups,
                         double budget, MckpSolution* out) {
  if (costs == nullptr || values == nullptr || offsets == nullptr ||
      out == nullptr) {
    return Status::InvalidArgument("null MCKP input");
  }
  if (num_groups == 0) {
    return Status::InvalidArgument("MCKP has no groups");
  }
  if (!std::isfinite(budget)) {
    return Status::InvalidArgument("MCKP budget must be finite");
  }
  for (size_t g = 0; g < num_groups; ++g) {
    if (offsets[g] >= offsets[g + 1]) {
      return Status::InvalidArgument("empty or malformed MCKP group");
    }
  }
  size_t n = offsets[num_groups];
  for (size_t j = 0; j < n; ++j) {
    if (costs[j] < 0.0 || !std::isfinite(costs[j]) ||
        !std::isfinite(values[j])) {
      return Status::InvalidArgument("MCKP costs must be finite and >= 0");
    }
  }

  out->choice.assign(num_groups, MckpGroupChoice{});
  out->objective = 0.0;
  out->total_cost = 0.0;
  out->lambda = 0.0;

  order_.resize(n);
  edges_.clear();
  double base_cost = 0.0;
  double base_value = 0.0;

  for (size_t g = 0; g < num_groups; ++g) {
    BuildUpperHull(costs, values, offsets[g], offsets[g + 1], &order_, &hull_);

    size_t base = hull_.front();
    (*out).choice[g] = MckpGroupChoice{base, base, 0.0};
    base_cost += costs[base];
    base_value += values[base];
    for (size_t h = 0; h + 1 < hull_.size(); ++h) {
      Edge e;
      e.from = hull_[h];
      e.to = hull_[h + 1];
      e.dc = costs[e.to] - costs[e.from];
      e.dv = values[e.to] - values[e.from];
      e.group = g;
      edges_.push_back(e);
    }
  }

  if (base_cost > budget + kEps) {
    out->status = MckpStatus::kInfeasible;
    return Status::Ok();
  }

  // Dual sweep: the edge ratios dv/dc are the breakpoints of the Lagrangian
  // dual in lambda. Visiting them in decreasing order applies every upgrade
  // priced above lambda*, and the edge that crosses the budget is split
  // exactly — within one group ratios strictly decrease along the hull, so
  // the global order always upgrades a group through adjacent hull points.
  edge_order_.resize(edges_.size());
  for (size_t i = 0; i < edges_.size(); ++i) edge_order_[i] = i;
  std::sort(edge_order_.begin(), edge_order_.end(), [&](size_t a, size_t b) {
    const Edge& ea = edges_[a];
    const Edge& eb = edges_[b];
    double lhs = ea.dv * eb.dc;
    double rhs = eb.dv * ea.dc;
    if (lhs != rhs) return lhs > rhs;
    // Tie-break (group asc, edge asc): a canonical total order, so
    // equal-ratio instances always resolve to the same optimum.
    if (ea.group != eb.group) return ea.group < eb.group;
    return ea.from < eb.from;
  });

  double remaining = budget - base_cost;
  out->objective = base_value;
  out->total_cost = base_cost;
  for (size_t i : edge_order_) {
    const Edge& e = edges_[i];
    if (e.dc <= remaining + kEps) {
      remaining -= e.dc;
      if (remaining < 0.0) remaining = 0.0;
      out->objective += e.dv;
      out->total_cost += e.dc;
      out->choice[e.group] = MckpGroupChoice{e.to, e.to, 0.0};
    } else {
      double frac = remaining / e.dc;
      out->objective += frac * e.dv;
      out->total_cost += remaining;
      out->choice[e.group] = MckpGroupChoice{e.from, e.to, frac};
      out->lambda = e.dv / e.dc;
      remaining = 0.0;
      break;
    }
  }

  out->status = MckpStatus::kOptimal;
  return Status::Ok();
}

}  // namespace sky::lp
