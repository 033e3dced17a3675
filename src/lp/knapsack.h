#ifndef SKYSCRAPER_LP_KNAPSACK_H_
#define SKYSCRAPER_LP_KNAPSACK_H_

#include <cstddef>
#include <vector>

#include "util/result.h"

namespace sky::lp {

struct ChoiceSolution {
  /// choice[g] = selected option index within group g.
  std::vector<size_t> choice;
  double total_value = 0.0;
  double total_weight = 0.0;
};

/// Greedy multiple-choice knapsack: every group must pick exactly one option;
/// maximize summed value subject to summed weight <= capacity. Starts from
/// the cheapest option per group and greedily applies the upgrade with the
/// best marginal value/weight ratio while budget remains. This is the
/// "greedy 0-1 knapsack approximation" the paper's Optimum baseline and
/// idealized system (Appendix B) use to assign a knob configuration to every
/// video segment under a work budget.
///
/// Fails if any group is empty or even the all-cheapest selection exceeds
/// capacity (in that case there is no feasible assignment).
Result<ChoiceSolution> MultipleChoiceKnapsackGreedy(
    const std::vector<std::vector<double>>& values,
    const std::vector<std::vector<double>>& weights, double capacity);

}  // namespace sky::lp

#endif  // SKYSCRAPER_LP_KNAPSACK_H_
