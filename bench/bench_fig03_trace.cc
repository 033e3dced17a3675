// Figure 3: running the EV example workload over 24 hours of a traffic
// camera. Reproduces the four stacked time series: per-configuration quality
// (expensive / medium / cheap), the induced workload in TFLOP/s, buffer use
// against the 4 GB capacity, and cloud spending against the plan.

#include <iostream>

#include "bench_common.h"
#include "core/engine.h"
#include "util/table.h"
#include "workloads/ev_counting.h"
#include "workloads/udf_costs.h"

int main() {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Figure 3: 24 h EV-counting trace ===\n");

  workloads::EvCountingWorkload ev;
  ExperimentSetup setup = EvSetup();
  sim::ClusterSpec cluster;
  cluster.cores = 4;
  sim::CostModel cost_model(1.8);
  auto model = FitOffline(ev, setup, cluster, cost_model);
  if (!model.ok()) {
    std::printf("offline failed: %s\n", model.status().ToString().c_str());
    return 1;
  }

  // Reference configurations for the top plot: cheapest, middle, most
  // qualitative of the filtered set.
  size_t num_k = model->configs.size();
  size_t cheap = 0, mid = num_k / 2, expensive = num_k - 1;

  core::EngineOptions run;
  run.duration = setup.test_duration;
  run.plan_interval = setup.plan_interval;
  run.cloud_budget_usd_per_interval = 1.0;
  run.record_trace = true;
  run.trace_resolution_s = 3600.0;
  core::IngestionEngine engine(&ev, &*model, cluster, &cost_model, run);
  auto result = engine.Run(setup.test_start);
  if (!result.ok()) {
    std::printf("engine failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  TablePrinter table("EV workload, 24 h on 4 vCPUs + 4 GB buffer");
  table.SetHeader({"hour", "qual(exp)", "qual(med)", "qual(cheap)",
                   "workload TFLOP/s", "buffer GB", "cloud spent/plan"});
  Fingerprint fp;
  fp.Add(*result);
  for (const core::TracePoint& p : result->trace) {
    video::ContentState content = ev.content_process().At(p.t);
    for (size_t k : {expensive, mid, cheap}) {
      fp.Add(ev.TrueQuality(model->configs[k], content));
    }
    char hour[16], tflops[16], buffer[16], spend[24];
    std::snprintf(hour, sizeof(hour), "%02.0f:00", HourOfDay(p.t));
    std::snprintf(tflops, sizeof(tflops), "%.2f",
                  p.work_core_s_per_s * workloads::kTflopPerCoreSecond);
    std::snprintf(buffer, sizeof(buffer), "%.2f", p.buffer_bytes / 1e9);
    std::snprintf(spend, sizeof(spend), "$%.2f / $%.2f",
                  p.cloud_usd_cumulative, p.cloud_usd_planned);
    table.AddRow(
        {hour,
         TablePrinter::Pct(ev.TrueQuality(model->configs[expensive], content), 0),
         TablePrinter::Pct(ev.TrueQuality(model->configs[mid], content), 0),
         TablePrinter::Pct(ev.TrueQuality(model->configs[cheap], content), 0),
         tflops, buffer, spend});
  }
  table.Print(std::cout);
  fp.Print(table.title());

  double expensive_tflops =
      ev.CostCoreSecondsPerVideoSecond(model->configs[expensive]) *
      workloads::kTflopPerCoreSecond;
  std::printf("\nalways-most-expensive would be a constant %.1f TFLOP/s "
              "(paper: 5.2); Skyscraper switched %zu times over the day "
              "(paper: ~4500)\n",
              expensive_tflops, result->switch_count);
  std::printf("buffer peak %.2f GB of %.0f GB; cloud spend $%.2f\n",
              result->buffer_high_water_bytes / 1e9, 4.0, result->cloud_usd);
  return 0;
}
