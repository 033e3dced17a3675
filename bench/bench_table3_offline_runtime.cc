// Table 3 (Appendix E): runtime of the offline-phase steps for the COVID
// workload. The paper measures 6 min / 4 min / 5 min / 1.3 h / 1 min on two
// c2-standard-60 machines; our substrate is analytic, so absolute times are
// seconds — the table reports both and the paper's dominant-step structure
// (creating forecast training data dwarfs everything else there because it
// processes 16 days of video with real CV models).
//
// The offline phase fans out on a thread pool; this bench runs it twice —
// single-threaded baseline, then on all hardware threads — verifies the two
// OfflineModels are identical (parallelism is a pure wall-clock knob), and
// records both wall times in BENCH_table3_offline_runtime.json.

#include <iostream>

#include "bench_common.h"
#include "core/offline.h"
#include "io/model_io.h"
#include "ml/kernels.h"
#include "util/table.h"
#include "workloads/covid.h"

int main(int argc, char** argv) {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Table 3: offline-phase step runtimes (COVID) ===\n");

  workloads::CovidWorkload covid;
  ExperimentSetup setup = CovidSetup();
  sim::ClusterSpec cluster;
  cluster.cores = 60;
  sim::CostModel cost_model(1.8);
  size_t hw_threads = BenchThreads(argc, argv);

  WallTimer serial_timer;
  auto serial = FitOffline(covid, setup, cluster, cost_model,
                           /*train_forecaster=*/true, /*pool=*/nullptr,
                           /*num_threads=*/1);
  double serial_s = serial_timer.Seconds();
  if (!serial.ok()) {
    std::printf("offline failed: %s\n", serial.status().ToString().c_str());
    return 1;
  }

  WallTimer parallel_timer;
  auto parallel = FitOffline(covid, setup, cluster, cost_model,
                             /*train_forecaster=*/true, /*pool=*/nullptr,
                             /*num_threads=*/hw_threads);
  double parallel_s = parallel_timer.Seconds();
  if (!parallel.ok()) {
    std::printf("offline failed: %s\n", parallel.status().ToString().c_str());
    return 1;
  }
  bool identical = core::OfflineModelsIdentical(*serial, *parallel);

  const core::OfflineStepRuntimes& st = serial->step_runtimes;
  const core::OfflineStepRuntimes& pt = parallel->step_runtimes;

  TablePrinter table("Offline steps: serial vs " +
                     std::to_string(hw_threads) + " threads vs paper");
  table.SetHeader({"step", "serial", "parallel", "paper (real CV models)"});
  table.AddRow({"Filter knob configurations",
                TablePrinter::Fmt(st.filter_configs_s, 3) + " s",
                TablePrinter::Fmt(pt.filter_configs_s, 3) + " s", "6 min"});
  table.AddRow({"Filter task placements",
                TablePrinter::Fmt(st.filter_placements_s, 3) + " s",
                TablePrinter::Fmt(pt.filter_placements_s, 3) + " s", "4 min"});
  table.AddRow({"Compute content categories",
                TablePrinter::Fmt(st.content_categories_s, 3) + " s",
                TablePrinter::Fmt(pt.content_categories_s, 3) + " s",
                "5 min"});
  table.AddRow({"Create forecast training data",
                TablePrinter::Fmt(st.forecast_training_data_s, 3) + " s",
                TablePrinter::Fmt(pt.forecast_training_data_s, 3) + " s",
                "1.3 h"});
  table.AddRow({"Train forecast model",
                TablePrinter::Fmt(st.forecast_training_s, 3) + " s",
                TablePrinter::Fmt(pt.forecast_training_s, 3) + " s", "1 min"});
  table.Print(std::cout);

  double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
  std::printf("\ntotal: serial %.2f s, parallel %.2f s on %zu threads "
              "(%.2fx); models %s\n",
              serial_s, parallel_s, hw_threads, speedup,
              identical ? "bit-identical" : "DIFFER (bug!)");
  std::printf("dominant step: %s (paper: creating the forecast training "
              "data at 83%% of 1.6 h)\n",
              st.forecast_training_data_s + st.forecast_training_s >
                      st.filter_configs_s + st.filter_placements_s
                  ? "forecaster data/training"
                  : "knob/placement filtering");
  std::printf("model footprint: %zu configurations, %zu categories, "
              "%zu-sample training sequence\n",
              serial->configs.size(), serial->categories.NumCategories(),
              serial->train_category_sequence.size());

  // Persistence overhead (tracked from day one): what `sky offline` pays to
  // save the model and `sky ingest` pays to load it, relative to the
  // retraining both of them avoid.
  WallTimer save_timer;
  std::string serialized;
  Status ser = io::SerializeOfflineModel(*serial, "COVID", &serialized);
  double save_s = save_timer.Seconds();
  bool roundtrip_identical = false;
  double load_s = 0.0;
  if (!ser.ok()) {
    std::printf("model serialization failed: %s\n", ser.ToString().c_str());
  } else {
    WallTimer load_timer;
    auto reloaded = io::DeserializeOfflineModel(serialized);
    load_s = load_timer.Seconds();
    if (!reloaded.ok()) {
      std::printf("model deserialization failed: %s\n",
                  reloaded.status().ToString().c_str());
    } else {
      roundtrip_identical = core::OfflineModelsIdentical(*serial, *reloaded);
    }
  }
  std::printf("persistence: save %.4f s, load %.4f s, %.2f MiB serialized; "
              "round trip %s\n",
              save_s, load_s,
              static_cast<double>(serialized.size()) / (1 << 20),
              roundtrip_identical ? "bit-identical" : "DIFFERS (bug!)");

  BenchJson json("table3_offline_runtime");
  json.Set("kernel_backend",
           sky::ml::KernelBackendName(sky::ml::ActiveKernelBackend()));
  json.Set("threads", static_cast<double>(hw_threads));
  json.Set("serial_wall_s", serial_s);
  json.Set("parallel_wall_s", parallel_s);
  json.Set("speedup", speedup);
  json.Set("models_identical", identical ? "yes" : "no");
  json.Set("serial_filter_configs_s", st.filter_configs_s);
  json.Set("serial_filter_placements_s", st.filter_placements_s);
  json.Set("serial_content_categories_s", st.content_categories_s);
  json.Set("serial_forecast_training_data_s", st.forecast_training_data_s);
  json.Set("serial_forecast_training_s", st.forecast_training_s);
  json.Set("parallel_filter_configs_s", pt.filter_configs_s);
  json.Set("parallel_filter_placements_s", pt.filter_placements_s);
  json.Set("parallel_content_categories_s", pt.content_categories_s);
  json.Set("parallel_forecast_training_data_s", pt.forecast_training_data_s);
  json.Set("parallel_forecast_training_s", pt.forecast_training_s);
  json.Set("model_save_s", save_s);
  json.Set("model_load_s", load_s);
  json.Set("model_serialized_bytes", static_cast<double>(serialized.size()));
  json.Set("model_roundtrip_identical", roundtrip_identical ? "yes" : "no");
  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics written to %s\n", path.c_str());
  return identical && roundtrip_identical ? 0 : 1;
}
