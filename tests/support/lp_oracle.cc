#include <algorithm>
#include <cmath>
#include <limits>

#include "support/oracles.h"

namespace sky::oracle {

namespace {

constexpr double kEps = 1e-9;

/// Dense simplex tableau. Column layout: [structural | slack | artificial],
/// rhs kept separately. The objective row holds reduced costs for a
/// maximization problem: an entering column j has obj[j] < -kEps.
struct Tableau {
  std::vector<std::vector<double>> rows;  // m x ncols
  std::vector<double> rhs;                // m
  std::vector<double> obj;                // ncols
  double obj_value = 0.0;
  std::vector<size_t> basis;              // m; column of the basic variable

  size_t NumCols() const { return obj.size(); }

  void Pivot(size_t pivot_row, size_t pivot_col) {
    std::vector<double>& pr = rows[pivot_row];
    double pv = pr[pivot_col];
    for (double& v : pr) v /= pv;
    rhs[pivot_row] /= pv;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (r == pivot_row) continue;
      double factor = rows[r][pivot_col];
      if (std::abs(factor) < kEps) continue;
      for (size_t c = 0; c < pr.size(); ++c) rows[r][c] -= factor * pr[c];
      rhs[r] -= factor * rhs[pivot_row];
    }
    double factor = obj[pivot_col];
    if (std::abs(factor) > 0.0) {
      for (size_t c = 0; c < pr.size(); ++c) obj[c] -= factor * pr[c];
      obj_value -= factor * rhs[pivot_row];
    }
    basis[pivot_row] = pivot_col;
  }

  /// Makes the objective row canonical w.r.t. the current basis.
  void CanonicalizeObjective() {
    for (size_t r = 0; r < rows.size(); ++r) {
      double factor = obj[basis[r]];
      if (std::abs(factor) < kEps) continue;
      for (size_t c = 0; c < obj.size(); ++c) obj[c] -= factor * rows[r][c];
      obj_value -= factor * rhs[r];
    }
  }

  /// Runs simplex iterations until optimal, unbounded, or the iteration
  /// guard (`max_iters_override`, or an automatic size-scaled cap when 0) is
  /// exhausted — the latter is reported as kIterationLimit, never silently
  /// as optimality. Dantzig rule with a switch to Bland's rule
  /// (anti-cycling) after `bland_after` iterations. `active_cols` limits the
  /// candidate entering columns.
  LpStatus Iterate(size_t active_cols, size_t max_iters_override = 0) {
    size_t m = rows.size();
    size_t max_iters = max_iters_override > 0 ? max_iters_override
                                              : 200 * (m + active_cols) + 1000;
    size_t bland_after = 20 * (m + active_cols) + 200;
    for (size_t iter = 0; iter < max_iters; ++iter) {
      bool bland = iter >= bland_after;
      // Entering column.
      size_t enter = active_cols;
      double best = -kEps;
      for (size_t c = 0; c < active_cols; ++c) {
        if (obj[c] < -kEps) {
          if (bland) {
            enter = c;
            break;
          }
          if (obj[c] < best) {
            best = obj[c];
            enter = c;
          }
        }
      }
      if (enter == active_cols) return LpStatus::kOptimal;
      // Leaving row: minimum ratio test.
      size_t leave = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (size_t r = 0; r < m; ++r) {
        double a = rows[r][enter];
        if (a > kEps) {
          double ratio = rhs[r] / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leave < m &&
               basis[r] < basis[leave])) {
            best_ratio = ratio;
            leave = r;
          }
        }
      }
      if (leave == m) return LpStatus::kUnbounded;
      Pivot(leave, enter);
    }
    return LpStatus::kIterationLimit;
  }
};

}  // namespace

Result<LpSolution> SolveLp(const LinearProgram& lp, const LpOptions& options) {
  size_t n = lp.NumVariables();
  if (n == 0) return Status::InvalidArgument("LP has no variables");
  if (lp.a_ub.size() != lp.b_ub.size() || lp.a_eq.size() != lp.b_eq.size()) {
    return Status::InvalidArgument("constraint matrix/vector size mismatch");
  }
  for (const auto& row : lp.a_ub) {
    if (row.size() != n) {
      return Status::InvalidArgument("A_ub row width != #variables");
    }
  }
  for (const auto& row : lp.a_eq) {
    if (row.size() != n) {
      return Status::InvalidArgument("A_eq row width != #variables");
    }
  }

  size_t m_ub = lp.a_ub.size();
  size_t m_eq = lp.a_eq.size();
  size_t m = m_ub + m_eq;
  if (m == 0) {
    // Unconstrained except x >= 0: optimal at x = 0 unless some c_j > 0.
    for (double c : lp.objective) {
      if (c > kEps) {
        LpSolution sol;
        sol.status = LpStatus::kUnbounded;
        return sol;
      }
    }
    LpSolution sol;
    sol.status = LpStatus::kOptimal;
    sol.x.assign(n, 0.0);
    sol.objective_value = 0.0;
    return sol;
  }

  size_t n_slack = m_ub;
  // Build rows with slacks; flip rows to make rhs non-negative; rows whose
  // slack coefficient is not +1 (flipped ub rows) and all eq rows get an
  // artificial variable.
  std::vector<std::vector<double>> raw(m);
  std::vector<double> rhs(m);
  std::vector<bool> needs_artificial(m, false);
  for (size_t i = 0; i < m_ub; ++i) {
    std::vector<double> row(n + n_slack, 0.0);
    double b = lp.b_ub[i];
    double sign = b < 0 ? -1.0 : 1.0;
    for (size_t j = 0; j < n; ++j) row[j] = sign * lp.a_ub[i][j];
    row[n + i] = sign;  // slack
    raw[i] = std::move(row);
    rhs[i] = sign * b;
    needs_artificial[i] = sign < 0;
  }
  for (size_t i = 0; i < m_eq; ++i) {
    std::vector<double> row(n + n_slack, 0.0);
    double b = lp.b_eq[i];
    double sign = b < 0 ? -1.0 : 1.0;
    for (size_t j = 0; j < n; ++j) row[j] = sign * lp.a_eq[i][j];
    raw[m_ub + i] = std::move(row);
    rhs[m_ub + i] = sign * b;
    needs_artificial[m_ub + i] = true;
  }

  size_t n_art = 0;
  for (bool b : needs_artificial) n_art += b ? 1 : 0;
  size_t total = n + n_slack + n_art;

  Tableau t;
  t.rows.assign(m, std::vector<double>(total, 0.0));
  t.rhs = rhs;
  t.basis.assign(m, 0);
  size_t art_col = n + n_slack;
  for (size_t r = 0; r < m; ++r) {
    std::copy(raw[r].begin(), raw[r].end(), t.rows[r].begin());
    if (needs_artificial[r]) {
      t.rows[r][art_col] = 1.0;
      t.basis[r] = art_col;
      ++art_col;
    } else {
      t.basis[r] = n + r;  // the slack of this ub row
    }
  }

  // Phase 1: maximize -(sum of artificials).
  if (n_art > 0) {
    t.obj.assign(total, 0.0);
    for (size_t c = n + n_slack; c < total; ++c) t.obj[c] = 1.0;
    t.obj_value = 0.0;
    t.CanonicalizeObjective();
    LpStatus st = t.Iterate(total, options.max_iterations);
    if (st == LpStatus::kUnbounded) {
      return Status::Internal("phase-1 LP unbounded (should be impossible)");
    }
    if (st == LpStatus::kIterationLimit && t.obj_value < -1e-6) {
      // Guard exhausted before a feasible basis was found: feasibility is
      // undetermined, so surface the limit instead of claiming anything.
      LpSolution sol;
      sol.status = LpStatus::kIterationLimit;
      return sol;
    }
    if (t.obj_value < -1e-6) {
      LpSolution sol;
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
    // Pivot remaining artificials out of the basis (degenerate rows).
    for (size_t r = 0; r < m; ++r) {
      if (t.basis[r] < n + n_slack) continue;
      size_t pivot_col = total;
      for (size_t c = 0; c < n + n_slack; ++c) {
        if (std::abs(t.rows[r][c]) > kEps) {
          pivot_col = c;
          break;
        }
      }
      if (pivot_col < total) {
        t.Pivot(r, pivot_col);
      }
      // Otherwise the row is redundant (all-zero in structural columns);
      // leaving the zero-valued artificial basic is harmless because phase 2
      // never lets it re-enter (artificial columns are excluded below).
    }
  }

  // Phase 2: maximize the real objective over structural + slack columns.
  t.obj.assign(total, 0.0);
  for (size_t j = 0; j < n; ++j) t.obj[j] = -lp.objective[j];
  t.obj_value = 0.0;
  t.CanonicalizeObjective();
  LpStatus st = t.Iterate(n + n_slack, options.max_iterations);

  LpSolution sol;
  sol.status = st;
  // A phase-2 iteration limit still leaves a feasible basic point: extract
  // it (flagged kIterationLimit) so callers can use it best-effort.
  if (st == LpStatus::kOptimal || st == LpStatus::kIterationLimit) {
    sol.x.assign(n, 0.0);
    for (size_t r = 0; r < m; ++r) {
      if (t.basis[r] < n) sol.x[t.basis[r]] = t.rhs[r];
    }
    sol.objective_value = 0.0;
    for (size_t j = 0; j < n; ++j) {
      sol.objective_value += lp.objective[j] * sol.x[j];
    }
  }
  return sol;
}

namespace {

/// The workspace's coefficients as one dense program, solved by SolveLp
/// into ws->x: the objective and the budget row are the flat value and cost
/// arrays, plus one normalization equality per group.
Status SolvePlanProgram(double budget, core::PlanWorkspace* ws) {
  size_t n = ws->costs.size();
  LinearProgram program;
  program.objective = ws->values;
  program.a_ub.assign(1, ws->costs);
  program.b_ub.assign(1, budget);
  program.a_eq.assign(ws->num_groups, std::vector<double>(n, 0.0));
  program.b_eq.assign(ws->num_groups, 1.0);
  for (size_t g = 0; g < ws->num_groups; ++g) {
    for (size_t j = ws->group_offsets[g]; j < ws->group_offsets[g + 1]; ++j) {
      program.a_eq[g][j] = 1.0;
    }
  }

  SKY_ASSIGN_OR_RETURN(LpSolution solution, SolveLp(program));
  if (solution.status == LpStatus::kInfeasible) {
    return Status::ResourceExhausted(
        "knob plan infeasible: even the cheapest configurations exceed "
        "the budget");
  }
  if (solution.status == LpStatus::kUnbounded) {
    return Status::Internal("knob-planning LP unbounded");
  }
  if (solution.status == LpStatus::kIterationLimit) {
    // Never accept an unproven point: the oracle's whole job is to be exact.
    return Status::Internal(
        "knob-planning LP hit the simplex iteration limit before proving "
        "optimality");
  }
  ws->x = std::move(solution.x);
  return Status::Ok();
}

Status CheckBudget(double budget) {
  if (!(budget > 0) || !std::isfinite(budget)) {
    return Status::InvalidArgument("budget must be positive and finite");
  }
  return Status::Ok();
}

}  // namespace

Result<core::KnobPlan> ComputeKnobPlan(
    const core::ContentCategories& categories,
    const std::vector<double>& forecast,
    const std::vector<double>& config_costs, double budget) {
  SKY_RETURN_NOT_OK(CheckBudget(budget));
  core::PlanWorkspace ws;
  SKY_ASSIGN_OR_RETURN(
      size_t first_group,
      core::AppendPlanCoefficients(categories, forecast, config_costs, &ws));
  SKY_RETURN_NOT_OK(SolvePlanProgram(budget, &ws));
  return core::ExtractPlan(ws, first_group, categories, forecast,
                           config_costs);
}

Result<std::vector<core::KnobPlan>> ComputeJointKnobPlan(
    const std::vector<core::StreamPlanInput>& streams, double budget) {
  if (streams.empty()) {
    return Status::InvalidArgument("no streams to plan for");
  }
  SKY_RETURN_NOT_OK(CheckBudget(budget));
  core::PlanWorkspace ws;
  std::vector<size_t> first_groups;
  for (const core::StreamPlanInput& s : streams) {
    if (s.categories == nullptr) {
      return Status::InvalidArgument("null categories in stream input");
    }
    SKY_ASSIGN_OR_RETURN(size_t first,
                         core::AppendPlanCoefficients(
                             *s.categories, s.forecast, s.config_costs, &ws));
    first_groups.push_back(first);
  }
  SKY_RETURN_NOT_OK(SolvePlanProgram(budget, &ws));
  std::vector<core::KnobPlan> plans;
  for (size_t v = 0; v < streams.size(); ++v) {
    const core::StreamPlanInput& s = streams[v];
    plans.push_back(core::ExtractPlan(ws, first_groups[v], *s.categories,
                                      s.forecast, s.config_costs));
  }
  return plans;
}

}  // namespace sky::oracle
