// Figure 20 + Table 4 (Appendix I.1): sensitivity to the number of content
// categories (the k of KMeans). End-to-end quality across server sizes and
// the knob switcher's classification accuracy per category count.

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "util/table.h"
#include "workloads/covid.h"

int main() {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Figure 20 / Table 4: number of content categories ===\n");

  workloads::CovidWorkload covid;
  ExperimentSetup setup = CovidSetup();
  setup.test_duration = Days(2);
  sim::CostModel cost_model(1.8);
  std::vector<StaticEntry> totals = StaticConfigTotals(covid, setup);
  double denom = BestEntry(totals).total_quality;

  TablePrinter fig("COVID quality by category count (Fig. 20)");
  fig.SetHeader({"vCPUs", "1 cat", "2 cats", "3 cats", "4 cats", "8 cats"});
  TablePrinter tab("Switcher accuracy by category count (Table 4)");
  tab.SetHeader({"categories", "switcher accuracy"});
  Fingerprint fig_fp;
  Fingerprint tab_fp;
  fig_fp.Add(denom);

  const std::vector<size_t> kCategoryCounts = {1, 2, 3, 4, 8};
  std::vector<double> accuracy(kCategoryCounts.size(), 0.0);

  for (int vcpus : {4, 8, 16, 32}) {
    sim::ClusterSpec cluster;
    cluster.cores = vcpus;
    std::vector<std::string> row = {std::to_string(vcpus)};
    for (size_t ci = 0; ci < kCategoryCounts.size(); ++ci) {
      core::OfflineOptions offline;
      offline.segment_seconds = setup.segment_seconds;
      offline.train_horizon = setup.train_horizon;
      offline.num_categories = kCategoryCounts[ci];
      offline.train_forecaster = false;
      auto model =
          core::RunOfflinePhase(covid, cluster, cost_model, offline);
      if (!model.ok()) {
        row.push_back("-");
        continue;
      }
      core::EngineOptions run;
      run.duration = setup.test_duration;
      run.plan_interval = setup.plan_interval;
      run.cloud_budget_usd_per_interval = 3.0;
      core::IngestionEngine engine(&covid, &*model, cluster, &cost_model,
                                   run);
      auto result = engine.Run(setup.test_start);
      fig_fp.Add(result);
      if (!result.ok()) {
        row.push_back("-");
        continue;
      }
      row.push_back(TablePrinter::Pct(result->total_quality / denom, 0));
      if (vcpus == 8) accuracy[ci] = 1.0 - result->MisclassificationRate();
    }
    fig.AddRow(std::move(row));
  }
  for (size_t ci = 0; ci < kCategoryCounts.size(); ++ci) {
    tab_fp.Add(accuracy[ci]);
    tab.AddRow({std::to_string(kCategoryCounts[ci]),
                TablePrinter::Pct(accuracy[ci])});
  }
  fig.Print(std::cout);
  fig_fp.Print(fig.title());
  tab.Print(std::cout);
  tab_fp.Print(tab.title());
  std::printf("\n(paper: insensitive for >= 3 categories; accuracy drops "
              "mildly as categories increase — 100%%/98.8%%/97.9%%/97.2%%/"
              "95.9%% for 1/2/3/4/8)\n");
  return 0;
}
