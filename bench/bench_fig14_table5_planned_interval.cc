// Figure 14 + Table 5: effect of the planned-interval length. Trains the
// forecaster to predict {1, 2, 4, 8} days ahead, reports the forecast MAE on
// held-out data (Table 5), and runs end-to-end ingestion with each planned
// interval against a ground-truth-forecast baseline (Fig. 14).

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "util/table.h"
#include "workloads/covid.h"
#include "workloads/mot.h"

namespace sky::bench {
namespace {

void RunWorkload(const core::Workload& workload, ExperimentSetup setup,
                 double cloud_budget) {
  sim::ClusterSpec cluster;
  cluster.cores = 8;
  sim::CostModel cost_model(1.8);

  TablePrinter mae_table(std::string(workload.name()) +
                         " — forecast MAE (Table 5)");
  mae_table.SetHeader({"days forecast", "MAE (held-out 8 d)"});

  TablePrinter e2e_table(std::string(workload.name()) +
                         " — end-to-end quality (Fig. 14, 8 vCPUs)");
  e2e_table.SetHeader({"planned interval", "forecaster", "ground truth"});

  for (double days : {1.0, 2.0, 4.0, 8.0}) {
    core::OfflineOptions offline;
    offline.segment_seconds = setup.segment_seconds;
    offline.train_horizon = setup.train_horizon;
    offline.num_categories = setup.num_categories;
    offline.forecaster.input_span = Days(2);
    offline.forecaster.planned_interval = Days(days);
    auto model = core::RunOfflinePhase(workload, cluster, cost_model, offline);
    if (!model.ok()) {
      std::printf("offline failed: %s\n", model.status().ToString().c_str());
      return;
    }

    // MAE over the full recorded horizon (training + the 8 test days): the
    // 8-day-ahead windows need more history than the test window alone.
    std::vector<uint8_t> full_seq = core::BuildTrainCategorySequence(
        workload, model->configs, model->categories, setup.segment_seconds,
        setup.test_start + setup.test_duration, /*seed=*/4242);
    std::string mae = "-";
    if (model->forecaster.has_value()) {
      auto result =
          model->forecaster->EvaluateMae(full_seq, setup.segment_seconds);
      if (result.ok()) mae = TablePrinter::Fmt(*result, 3);
    }
    mae_table.AddRow({TablePrinter::Fmt(days, 0), mae});

    // End-to-end with the trained forecaster vs the ground-truth forecast.
    double quality[2] = {0.0, 0.0};
    for (int truth = 0; truth < 2; ++truth) {
      core::EngineOptions run;
      run.duration = setup.test_duration;
      run.plan_interval = Days(days);
      run.cloud_budget_usd_per_interval = cloud_budget * days / 2.0;
      run.use_ground_truth_forecast = truth == 1;
      core::IngestionEngine engine(&workload, &*model, cluster, &cost_model,
                                   run);
      auto result = engine.Run(setup.test_start);
      if (result.ok()) quality[truth] = result->mean_quality;
    }
    e2e_table.AddRow({TablePrinter::Fmt(days, 0) + " days",
                      TablePrinter::Pct(quality[0]),
                      TablePrinter::Pct(quality[1])});
  }
  mae_table.Print(std::cout);
  e2e_table.Print(std::cout);
}

}  // namespace
}  // namespace sky::bench

int main() {
  using namespace sky::bench;
  std::printf("=== Figure 14 / Table 5: planned-interval length ===\n");
  {
    sky::workloads::CovidWorkload covid;
    RunWorkload(covid, CovidSetup(), 3.0);
  }
  {
    sky::workloads::MotWorkload mot;
    RunWorkload(mot, MotSetup(), 2.0);
  }
  std::printf("\n(paper: MAE lowest at 2 days, highest at 8; end-to-end "
              "matches ground truth for 1-4 day horizons and degrades at "
              "8 days)\n");
  return 0;
}
