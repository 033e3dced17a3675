// Table 6 (Appendix I.3): forecast MAE depending on the input featurization
// — how many days of history feed the model and how many histograms the
// history is split into.

#include <iostream>

#include "bench_common.h"
#include "core/offline.h"
#include "util/table.h"
#include "workloads/covid.h"

int main() {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Table 6: forecast MAE vs input features (COVID) ===\n");

  workloads::CovidWorkload covid;
  ExperimentSetup setup = CovidSetup();
  sim::ClusterSpec cluster;
  cluster.cores = 8;
  sim::CostModel cost_model(1.8);
  auto model = FitOffline(covid, setup, cluster, cost_model,
                          /*train_forecaster=*/false);
  if (!model.ok()) {
    std::printf("offline failed: %s\n", model.status().ToString().c_str());
    return 1;
  }
  // Evaluate over the full recorded horizon: long input spans need more
  // history than the 8-day test window alone provides.
  std::vector<uint8_t> test_seq = core::BuildTrainCategorySequence(
      covid, model->configs, model->categories, setup.segment_seconds,
      setup.test_start + setup.test_duration, /*seed=*/4242);

  TablePrinter table("MAE, 2-day forecast: input days x splits");
  table.SetHeader({"input days \\ splits", "1", "2", "4", "8"});
  for (double input_days : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    std::vector<std::string> row = {TablePrinter::Fmt(input_days, 1)};
    for (size_t splits : {1, 2, 4, 8}) {
      core::ForecasterOptions opts;
      opts.input_span = Days(input_days);
      opts.input_splits = splits;
      opts.planned_interval = Days(2);
      auto forecaster = core::Forecaster::Train(
          model->train_category_sequence, setup.segment_seconds,
          setup.num_categories, opts);
      if (!forecaster.ok()) {
        row.push_back("-");
        continue;
      }
      auto mae = forecaster->EvaluateMae(test_seq, setup.segment_seconds);
      row.push_back(mae.ok() ? TablePrinter::Fmt(*mae, 3) : "-");
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  std::printf("\n(paper: with 8 splits the MAE stays low for every input "
              "span; coarse single-histogram inputs are noticeably worse)\n");
  return 0;
}
