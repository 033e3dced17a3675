#include "core/planner.h"

#include <cmath>

namespace sky::core {

Result<KnobPlan> ComputeKnobPlan(const ContentCategories& categories,
                                 const std::vector<double>& forecast,
                                 const std::vector<double>& config_costs,
                                 double budget_core_s_per_video_s,
                                 PlanWorkspace* workspace) {
  if (!(budget_core_s_per_video_s > 0) ||
      !std::isfinite(budget_core_s_per_video_s)) {
    return Status::InvalidArgument("budget must be positive and finite");
  }
  PlanWorkspace local;
  PlanWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.Clear();
  SKY_ASSIGN_OR_RETURN(
      size_t first_group,
      AppendPlanCoefficients(categories, forecast, config_costs, &ws));
  // SolvePlanProblem's kResourceExhausted already carries the single-stream
  // infeasibility message; only the joint planner rewords it.
  Status solved = SolvePlanProblem(budget_core_s_per_video_s, &ws);
  if (!solved.ok()) return solved;
  return ExtractPlan(ws, first_group, categories, forecast, config_costs);
}

}  // namespace sky::core
