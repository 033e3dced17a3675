// Figure 18 (Appendix E): forecaster MAE versus the number of training
// samples. The paper generated 1200 samples from 16 days of video in 1.3 h
// and found that ~700 samples already saturate accuracy.

#include <iostream>

#include "bench_common.h"
#include "core/offline.h"
#include "util/table.h"
#include "workloads/covid.h"

int main() {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Figure 18: forecast MAE vs training samples ===\n");

  workloads::CovidWorkload covid;
  ExperimentSetup setup = CovidSetup();
  sim::ClusterSpec cluster;
  cluster.cores = 8;
  sim::CostModel cost_model(1.8);

  // One offline pass for configs/categories; the forecaster is retrained
  // below with varying amounts of data.
  auto model = FitOffline(covid, setup, cluster, cost_model,
                          /*train_forecaster=*/false);
  if (!model.ok()) {
    std::printf("offline failed: %s\n", model.status().ToString().c_str());
    return 1;
  }
  const core::CategorySequence& train_seq = model->train_category_sequence;
  // The held-out 8 days: the recorded horizon's sequence past the test
  // start.
  const core::CategorySequence recorded = core::BuildTrainCategorySequence(
      covid, model->configs, model->categories, setup.segment_seconds,
      setup.test_start + setup.test_duration, /*seed=*/4242);
  const size_t skip =
      static_cast<size_t>(setup.test_start / setup.segment_seconds);
  core::CategorySequence test_seq(model->categories.NumCategories(),
                                  recorded.size() - skip);
  for (size_t i = 0; i < test_seq.size(); ++i) {
    test_seq.Set(i, recorded.Get(skip + i));
  }

  TablePrinter table("COVID forecaster (2-day horizon)");
  table.SetHeader({"training samples", "MAE (held-out 8 d)"});
  Fingerprint fp;

  for (size_t target_samples : {50, 100, 200, 400, 700, 1200}) {
    core::ForecasterOptions opts;
    opts.input_span = Days(2);
    opts.planned_interval = Days(2);
    // Adjust the stride so the available history yields ~target samples.
    size_t in_segs = static_cast<size_t>(opts.input_span /
                                         setup.segment_seconds);
    size_t out_segs = static_cast<size_t>(opts.planned_interval /
                                          setup.segment_seconds);
    size_t usable = train_seq.size() - in_segs - out_segs;
    opts.training_stride =
        std::max(1.0, static_cast<double>(usable) /
                          static_cast<double>(target_samples)) *
        setup.segment_seconds;
    auto forecaster =
        core::Forecaster::Train(train_seq, setup.segment_seconds,
                                setup.num_categories, opts);
    fp.Add(forecaster.ok());
    if (!forecaster.ok()) {
      table.AddRow({std::to_string(target_samples), "-"});
      continue;
    }
    auto mae = forecaster->EvaluateMae(test_seq, setup.segment_seconds);
    fp.Add(mae.ok(), mae.ok() ? *mae : 0.0);
    table.AddRow({std::to_string(target_samples),
                  mae.ok() ? TablePrinter::Fmt(*mae, 3) : "-"});
  }
  table.Print(std::cout);
  fp.Print(table.title());
  std::printf("\n(paper: the MAE flattens around ~700 samples; training "
              "with fewer samples cuts the offline phase by 35%%)\n");
  return 0;
}
