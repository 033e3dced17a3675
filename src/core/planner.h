#ifndef SKYSCRAPER_CORE_PLANNER_H_
#define SKYSCRAPER_CORE_PLANNER_H_

#include <vector>

#include "core/categorizer.h"
#include "core/plan_common.h"
#include "ml/matrix.h"
#include "util/result.h"

namespace sky::core {

/// A knob plan P (§4.1): one histogram alpha_c over configurations per
/// content category, telling the switcher how often to use each
/// configuration on content of that category.
struct KnobPlan {
  /// alpha(c, k): row per category, column per (filtered) configuration;
  /// rows sum to 1.
  ml::Matrix alpha;
  /// The forecast r_c the plan was computed for.
  std::vector<double> forecast;
  /// Expected quality under the plan (LP objective).
  double expected_quality = 0.0;
  /// Expected work under the plan, core-seconds per video-second.
  double expected_work = 0.0;
};

/// Solves the knob-planning linear program of §4.1:
///
///   maximize   sum_{k,c} alpha_{k,c} * r_c * qual(k, c)
///   subject to sum_{k,c} alpha_{k,c} * r_c * cost(k) <= budget
///              sum_k alpha_{k,c} = 1,  alpha >= 0        (for every c)
///
/// `config_costs[k]` is cost(k) in on-premise core-seconds per video-second;
/// `budget` uses the same unit (the engine folds the cloud-credit budget
/// into it, §4.1 footnote 4). Fails on shape mismatches; the LP itself is
/// always feasible (alpha uniform rows satisfy the equalities, and the
/// budget row is satisfiable whenever the cheapest configuration fits —
/// otherwise kResourceExhausted is surfaced to the caller).
///
/// The program is a fractional multiple-choice knapsack, solved exactly by
/// lp::MckpSolver in O(|C|·|K| log); tests/support's oracle::ComputeKnobPlan
/// solves it by dense simplex and returns the same optimum. Passing a
/// long-lived `workspace` makes repeated planning allocation-free; with
/// nullptr a temporary workspace is used.
Result<KnobPlan> ComputeKnobPlan(
    const ContentCategories& categories, const std::vector<double>& forecast,
    const std::vector<double>& config_costs, double budget_core_s_per_video_s,
    PlanWorkspace* workspace = nullptr);

/// Backend ignored; kept for bench/e2e/src/single.cc to ROADMAP item 4 step 5.
inline Result<KnobPlan> ComputeKnobPlan(
    const ContentCategories& categories, const std::vector<double>& forecast,
    const std::vector<double>& config_costs, double budget_core_s_per_video_s,
    PlannerBackend /*ignored*/, PlanWorkspace* workspace) {
  return ComputeKnobPlan(categories, forecast, config_costs,
                         budget_core_s_per_video_s, workspace);
}

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_PLANNER_H_
