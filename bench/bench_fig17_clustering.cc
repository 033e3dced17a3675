// Figure 17 (Appendix B.2): KMeans vs Gaussian-mixture content categories.
// Runs COVID end-to-end with both clustering backends across server sizes;
// the paper finds no end-to-end difference and recommends KMeans for
// simplicity.

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "util/table.h"
#include "workloads/covid.h"

int main() {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Figure 17: KMeans vs Gaussian mixture categories ===\n");

  workloads::CovidWorkload covid;
  ExperimentSetup setup = CovidSetup();
  setup.test_duration = Days(2);
  sim::CostModel cost_model(1.8);
  std::vector<StaticEntry> totals = StaticConfigTotals(covid, setup);
  double denom = BestEntry(totals).total_quality;

  TablePrinter table("COVID quality by clustering backend");
  table.SetHeader({"vCPUs", "KMeans", "Gaussian mixture"});
  Fingerprint fp;
  fp.Add(denom);

  for (int vcpus : {4, 8, 16, 32, 60}) {
    sim::ClusterSpec cluster;
    cluster.cores = vcpus;
    std::vector<std::string> row = {std::to_string(vcpus)};
    for (auto backend : {core::CategorizerBackend::kKMeans,
                         core::CategorizerBackend::kGmm}) {
      core::OfflineOptions offline;
      offline.segment_seconds = setup.segment_seconds;
      offline.train_horizon = setup.train_horizon;
      offline.num_categories = setup.num_categories;
      offline.categorizer_backend = backend;
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
      fp.Add(result);
      row.push_back(result.ok()
                        ? TablePrinter::Pct(result->total_quality / denom, 0)
                        : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  fp.Print(table.title());
  std::printf("\n(paper: no end-to-end difference; KMeans preferred for "
              "simplicity)\n");
  return 0;
}
