#include "core/plan_common.h"

#include <algorithm>

#include "core/planner.h"

namespace sky::core {

void PlanWorkspace::Clear() {
  costs.clear();
  values.clear();
  group_offsets.clear();
  num_groups = 0;
  x.clear();
}

Result<size_t> AppendPlanCoefficients(const ContentCategories& categories,
                                      const std::vector<double>& forecast,
                                      const std::vector<double>& config_costs,
                                      PlanWorkspace* ws) {
  size_t num_c = categories.NumCategories();
  size_t num_k = categories.NumConfigs();
  if (forecast.size() != num_c) {
    return Status::InvalidArgument("forecast size != number of categories");
  }
  if (config_costs.size() != num_k) {
    return Status::InvalidArgument("cost vector size != number of configs");
  }
  if (num_c == 0 || num_k == 0) {
    return Status::InvalidArgument("empty categories or configuration set");
  }
  if (ws->group_offsets.empty()) ws->group_offsets.push_back(0);
  size_t first_group = ws->num_groups;
  for (size_t c = 0; c < num_c; ++c) {
    for (size_t k = 0; k < num_k; ++k) {
      ws->values.push_back(forecast[c] * categories.CenterQuality(c, k));
      ws->costs.push_back(forecast[c] * config_costs[k]);
    }
    ws->group_offsets.push_back(ws->costs.size());
    ++ws->num_groups;
  }
  return first_group;
}

Status SolvePlanProblem(double budget, PlanWorkspace* ws) {
  if (ws->num_groups == 0) {
    return Status::InvalidArgument("no plan coefficients assembled");
  }
  SKY_RETURN_NOT_OK(ws->mckp.Solve(ws->costs.data(), ws->values.data(),
                                   ws->group_offsets.data(), ws->num_groups,
                                   budget, &ws->mckp_solution));
  if (ws->mckp_solution.status == lp::MckpStatus::kInfeasible) {
    return Status::ResourceExhausted(
        "knob plan infeasible: even the cheapest configurations exceed "
        "the budget");
  }
  ws->x.assign(ws->costs.size(), 0.0);
  for (const lp::MckpGroupChoice& c : ws->mckp_solution.choice) {
    ws->x[c.lo] += 1.0 - c.frac_hi;
    ws->x[c.hi] += c.frac_hi;
  }
  return Status::Ok();
}

KnobPlan ExtractPlan(const PlanWorkspace& ws, size_t first_group,
                     const ContentCategories& categories,
                     const std::vector<double>& forecast,
                     const std::vector<double>& config_costs) {
  size_t num_c = categories.NumCategories();
  size_t num_k = categories.NumConfigs();
  KnobPlan plan;
  plan.alpha = ml::Matrix(num_c, num_k, 0.0);
  plan.forecast = forecast;
  for (size_t c = 0; c < num_c; ++c) {
    if (forecast[c] == 0.0) {
      size_t cheapest = static_cast<size_t>(
          std::min_element(config_costs.begin(), config_costs.end()) -
          config_costs.begin());
      plan.alpha.At(c, cheapest) = 1.0;
      continue;
    }
    size_t base = ws.group_offsets[first_group + c];
    for (size_t k = 0; k < num_k; ++k) {
      double a = ws.x[base + k];
      plan.alpha.At(c, k) = a;
      plan.expected_quality += a * ws.values[base + k];
      plan.expected_work += a * forecast[c] * config_costs[k];
    }
  }
  return plan;
}

}  // namespace sky::core
