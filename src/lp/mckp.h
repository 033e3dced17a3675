#ifndef SKYSCRAPER_LP_MCKP_H_
#define SKYSCRAPER_LP_MCKP_H_

#include <cstddef>
#include <vector>

#include "util/result.h"

namespace sky::lp {

enum class MckpStatus { kOptimal, kInfeasible };

/// One group's share of a fractional MCKP solution. The LP optimum puts all
/// of a group's mass on at most two adjacent hull points: `lo` carries
/// 1 - frac_hi and `hi` carries frac_hi (lo == hi for an integral choice).
/// Indices are flat option indices into the problem's cost/value arrays.
struct MckpGroupChoice {
  size_t lo = 0;
  size_t hi = 0;
  double frac_hi = 0.0;
};

struct MckpSolution {
  MckpStatus status = MckpStatus::kInfeasible;
  std::vector<MckpGroupChoice> choice;  ///< one entry per group
  double objective = 0.0;
  double total_cost = 0.0;
  /// Dual price of the budget row at the optimum (marginal value per unit of
  /// extra budget); 0 when the budget is not binding.
  double lambda = 0.0;
};

/// Exact solver for the fractional multiple-choice knapsack problem — the
/// knob-planning LP of §4.1 without its generic-LP disguise:
///
///   maximize   sum_g sum_j value[g][j] * x[g][j]
///   subject to sum_j x[g][j] = 1 for every group g
///              sum_{g,j} cost[g][j] * x[g][j] <= budget,  x >= 0
///
/// Per group it builds the upper concave hull over (cost, value) points; the
/// optimum then follows from the Lagrangian dual of the budget row: hull
/// edges, taken anywhere in decreasing value/cost ratio, are exactly the
/// upgrades worth buying while their ratio exceeds the budget multiplier
/// lambda. Instead of numerically bisecting lambda, the solver sorts the
/// edge ratios (the dual's breakpoints) and sweeps to the budget crossing,
/// splitting the crossing edge exactly — same fixpoint, no tolerance.
/// O(n log n) in the total option count, versus simplex pivots on a dense
/// (#groups + 1) x n tableau.
///
/// Matches the dense simplex oracle in tests/support (oracle::SolveLp) on
/// the equivalent program to fp round-off (both are exact);
/// tests/mckp_test.cc enforces parity on randomized instances.
///
/// Related but deliberately separate: lp/knapsack.h's
/// MultipleChoiceKnapsackGreedy is the *integral* greedy approximation the
/// paper's Optimum/Idealized baselines use (no fractional split, its own
/// frontier epsilons); this solver is the exact LP optimum the online
/// planner needs. Their hulls are not shared so the baselines' published
/// behavior cannot drift when the planner's tolerances change.
class MckpSolver {
 public:
  /// Groups are flat: group g owns options [offsets[g], offsets[g+1]) of
  /// `costs`/`values` and must be non-empty. Costs must be non-negative.
  /// kInfeasible when even the cheapest choice per group exceeds `budget`.
  /// Scratch arrays (and the solution's) are reused across calls, so a
  /// long-lived solver allocates nothing at steady state.
  Status Solve(const double* costs, const double* values,
               const size_t* offsets, size_t num_groups, double budget,
               MckpSolution* out);

 private:
  struct Edge {
    double dc = 0.0;  ///< cost increase along the hull edge (> 0)
    double dv = 0.0;  ///< value increase along the hull edge (> 0)
    size_t group = 0;
    size_t from = 0;  ///< flat option indices
    size_t to = 0;
  };

  std::vector<size_t> order_;  ///< per-group cost-sorted option indices
  std::vector<size_t> hull_;   ///< scratch: one group's hull, flat indices
  std::vector<Edge> edges_;
  std::vector<size_t> edge_order_;
};

}  // namespace sky::lp

#endif  // SKYSCRAPER_LP_MCKP_H_
