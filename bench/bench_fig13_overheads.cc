// Figure 13: decision overheads. Left: knob-switcher runtime versus the
// total number of placements (worst case is linear — the switcher must scan
// every configuration-placement pair before falling back). Right: knob-
// planner runtime (forecast inference + LP solve) over a grid of content
// categories x knob configurations, plus the actual workload sizes.

#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "core/planner.h"
#include "core/switcher.h"
#include "ml/kmeans.h"
#include "util/rng.h"
#include "util/table.h"

namespace sky::bench13 {

using Clock = std::chrono::steady_clock;

/// Synthetic decision problem: `num_k` configurations with
/// `placements_per_config` placements each, category centers spread evenly.
struct Problem {
  core::ContentCategories categories;
  std::vector<core::ConfigProfile> profiles;
  core::KnobPlan plan;
};

Problem MakeProblem(size_t num_c, size_t num_k, size_t placements_per_config,
                    bool feasible_last_only) {
  Problem p;
  ml::KMeansModel km;
  for (size_t c = 0; c < num_c; ++c) {
    std::vector<double> center(num_k);
    for (size_t k = 0; k < num_k; ++k) {
      center[k] = 0.2 + 0.8 * (static_cast<double>(k) + 1) / num_k -
                  0.15 * (static_cast<double>(c) / num_c);
    }
    km.centers.push_back(std::move(center));
  }
  p.categories = core::ContentCategories::FromKMeans(std::move(km));

  p.profiles.resize(num_k);
  Rng rng(5);
  for (size_t k = 0; k < num_k; ++k) {
    p.profiles[k].work_core_s_per_video_s = 1.0 + static_cast<double>(k);
    for (size_t i = 0; i < placements_per_config; ++i) {
      core::PlacementProfile pl;
      bool last = k + 1 == num_k && i + 1 == placements_per_config;
      // Worst case: every placement overruns the buffer except the very
      // last one scanned.
      pl.runtime_s = feasible_last_only && !last ? 100.0 : 1.0;
      pl.cloud_usd = 1e-4 * static_cast<double>(i);
      pl.placement.node_loc.assign(2, dag::Loc::kOnPrem);
      p.profiles[k].placements.push_back(pl);
    }
  }
  p.plan.alpha = ml::Matrix(num_c, num_k, 1.0 / static_cast<double>(num_k));
  return p;
}

void SwitcherTiming() {
  TablePrinter table(
      "Knob switcher runtime vs total placements (worst case + average)");
  table.SetHeader({"total placements", "worst case (ms)", "average (ms)"});
  // The table reports only times; the fingerprint holds what was decided.
  bench::Fingerprint fp;
  for (size_t total : {100, 500, 1000, 2500, 5000, 10000}) {
    size_t num_k = 10;
    size_t per_config = total / num_k;
    Problem worst = MakeProblem(4, num_k, per_config, true);
    Problem average = MakeProblem(4, num_k, per_config, false);

    auto time_decide = [&fp](Problem* p, double quality) {
      core::KnobSwitcher switcher(&p->categories, &p->profiles);
      switcher.SetPlan(p->plan);
      core::SwitchContext ctx;
      ctx.current_config_idx = 0;
      ctx.measured_quality = quality;
      ctx.segment_seconds = 2.0;
      ctx.buffer_capacity_bytes = 1;  // nothing that lags fits
      ctx.cloud_credits_remaining_usd = 10.0;
      constexpr int kIters = 200;
      auto start = Clock::now();
      for (int i = 0; i < kIters; ++i) {
        auto d = switcher.Decide(ctx);
        if (d.ok()) switcher.RecordUsage(d->category, d->config_idx);
      }
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count() /
          kIters;
      // The decision after the timed ones, outside the timing.
      auto d = switcher.Decide(ctx);
      fp.Add(d.ok());
      if (d.ok()) {
        fp.Add(d->category, d->config_idx, d->placement_idx, d->degraded,
               d->pairs_scanned);
      }
      return ms;
    };
    table.AddRow({std::to_string(total),
                  TablePrinter::Fmt(time_decide(&worst, 0.5), 4),
                  TablePrinter::Fmt(time_decide(&average, 0.5), 4)});
  }
  table.Print(std::cout);
  fp.Print(table.title());
  std::printf("(paper: <1 ms for the COVID/MOT/MOSEI sizes, linear worst "
              "case in the number of placements)\n");
}

void PlannerTiming() {
  TablePrinter table(
      "Knob planner runtime (ms): categories x configurations");
  table.SetHeader({"categories \\ configs", "3", "7", "11", "15"});
  bench::Fingerprint fp;
  for (size_t num_c : {5, 35, 65, 95, 125, 155}) {
    std::vector<std::string> row = {std::to_string(num_c)};
    for (size_t num_k : {3, 7, 11, 15}) {
      Problem p = MakeProblem(num_c, num_k, 1, false);
      std::vector<double> forecast(num_c, 1.0 / static_cast<double>(num_c));
      std::vector<double> costs(num_k);
      for (size_t k = 0; k < num_k; ++k) {
        costs[k] = p.profiles[k].work_core_s_per_video_s;
      }
      double budget = costs[num_k / 2];
      auto start = Clock::now();
      constexpr int kIters = 5;
      for (int i = 0; i < kIters; ++i) {
        auto plan = core::ComputeKnobPlan(p.categories, forecast, costs,
                                          budget);
        if (i == 0) {
          fp.Add(plan.ok());
          if (plan.ok()) fp.Add(plan->expected_quality, plan->expected_work);
        }
        if (!plan.ok()) {
          row.push_back("err");
          break;
        }
      }
      row.push_back(TablePrinter::Fmt(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count() /
              kIters,
          1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  fp.Print(table.title());
  std::printf("(paper: <1 s even at 155 categories x 15 configurations; "
              "runs once every couple of days)\n");
}

}  // namespace sky::bench13

int main() {
  std::printf("=== Figure 13: knob switcher / knob planner overheads ===\n");
  sky::bench13::SwitcherTiming();
  sky::bench13::PlannerTiming();
  return 0;
}
