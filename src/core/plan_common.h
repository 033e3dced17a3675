#ifndef SKYSCRAPER_CORE_PLAN_COMMON_H_
#define SKYSCRAPER_CORE_PLAN_COMMON_H_

#include <cstddef>
#include <vector>

#include "core/categorizer.h"
#include "lp/mckp.h"
#include "util/result.h"

namespace sky::core {

struct KnobPlan;  // core/planner.h

/// The knob planners have one solver, lp::MckpSolver. This one-value enum
/// survives only as EngineOptions::planner_backend and ComputeKnobPlan's
/// ignored parameter, which ROADMAP item 4 step 5 removes.
enum class PlannerBackend { kStructured };

/// Reusable coefficient + solver state shared by ComputeKnobPlan and
/// ComputeJointKnobPlan (and tests/support's dense-simplex oracles). One
/// group per (stream, category), one option per configuration, laid out
/// flat in append order. A caller that keeps a workspace alive across plan
/// intervals (the ingestion engine does) makes planning allocation-free at
/// steady state: every buffer here is reused.
struct PlanWorkspace {
  std::vector<double> costs;          ///< flat: r_c * cost(k) per option
  std::vector<double> values;         ///< flat: r_c * qual(c, k) per option
  std::vector<size_t> group_offsets;  ///< size num_groups + 1
  size_t num_groups = 0;

  lp::MckpSolver mckp;
  lp::MckpSolution mckp_solution;
  std::vector<double> x;  ///< flat alphas, filled by SolvePlanProblem

  void Clear();
};

/// Appends one stream's planning coefficients — C groups of K options with
/// value r_c * qual(c, k) and cost r_c * cost(k) — the objective/budget-row
/// assembly both planners share. Returns the stream's first group index.
/// Fails on shape mismatches (forecast vs categories, costs vs configs).
Result<size_t> AppendPlanCoefficients(const ContentCategories& categories,
                                      const std::vector<double>& forecast,
                                      const std::vector<double>& config_costs,
                                      PlanWorkspace* ws);

/// Solves the assembled program against `budget` with lp::MckpSolver,
/// filling ws->x (flat per-option alphas; each group sums to 1).
/// kResourceExhausted when even the cheapest options exceed the budget.
Status SolvePlanProblem(double budget, PlanWorkspace* ws);

/// Extracts the plan of the stream whose categories start at `first_group`
/// from ws->x: the alpha matrix plus expected quality/work recomputed from
/// the same coefficients, whichever solver filled ws->x. A category whose
/// forecast is exactly 0 enters neither the objective nor the budget row,
/// so any row is optimal for it; its row goes to the cheapest configuration
/// (lowest index on ties) whatever the solver returned.
KnobPlan ExtractPlan(const PlanWorkspace& ws, size_t first_group,
                     const ContentCategories& categories,
                     const std::vector<double>& forecast,
                     const std::vector<double>& config_costs);

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_PLAN_COMMON_H_
