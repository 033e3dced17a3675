// Figures 22-23 (Appendix M.2): accuracy of the cluster simulator.
//   Left of Fig. 22: on-premise DAGs — 60 YOLO tasks, 60 KCF tasks, and a
//   combined DAG, executed for real on thread pools of {2, 4, 8, 16} workers
//   and compared against the simulator's makespan estimate.
//   Right of Fig. 22: cloud round trips — emulated with a jittered-latency
//   worker (AWS Lambda is unavailable offline) against the simulator.
//   Fig. 23: end-to-end — per-segment DAGs chosen by a Skyscraper run,
//   executed for real (time-scaled) vs simulated.
//
// Substitution note: real runtimes use the synthetic BusyWork kernel at
// millisecond scale (1 simulated core-second = 1 real millisecond), so the
// scheduling behaviour — waves, dependencies, core contention — is measured
// for real while each run stays fast.

#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "dag/executor.h"
#include "sim/cluster_sim.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "workloads/covid.h"

namespace sky::bench2223 {

// Time scaling between the simulated world and real execution: one
// simulated second of UDF work runs as kScale real seconds of BusyWork, so
// scheduling behaviour is measured for real while runs stay fast.
constexpr double kMicroScale = 0.1;   // Fig. 22 micro-DAGs: 86 ms -> 8.6 ms
constexpr double kE2eScale = 0.02;    // Fig. 23 full segment DAGs

/// Builds the Appendix M.2 micro-DAGs: n independent "YOLO" tasks, n
/// independent "KCF" tasks, or YOLO->KCF pairs.
dag::TaskGraph MicroDag(const char* kind, int n) {
  dag::TaskGraph g;
  for (int i = 0; i < n; ++i) {
    dag::TaskNode yolo;
    yolo.name = "yolo";
    yolo.onprem_runtime_s = 0.086;  // 86 ms inference
    yolo.work = [] { dag::BusyWorkMillis(0.086 * kMicroScale * 1e3); };
    dag::TaskNode kcf;
    kcf.name = "kcf";
    kcf.onprem_runtime_s = 0.012;
    kcf.work = [] { dag::BusyWorkMillis(0.012 * kMicroScale * 1e3); };
    if (std::string(kind) == "YOLO") {
      g.AddNode(yolo);
    } else if (std::string(kind) == "KCF") {
      g.AddNode(kcf);
    } else {
      size_t a = g.AddNode(yolo);
      size_t b = g.AddNode(kcf);
      (void)g.AddEdge(a, b);
    }
  }
  return g;
}

void OnPremAccuracy() {
  TablePrinter table("Fig. 22 left: on-premise simulation error");
  table.SetHeader({"DAG", "2 cores", "4 cores", "8 cores", "16 cores"});
  // Measured makespans are wall times; the fingerprint holds the
  // simulator's side of each comparison.
  bench::Fingerprint fp;
  for (const char* kind : {"YOLO", "KCF", "Combined"}) {
    std::vector<std::string> row = {kind};
    for (int cores : {2, 4, 8, 16}) {
      dag::TaskGraph g = MicroDag(kind, 60);
      sim::ClusterSpec cluster;
      cluster.cores = cores;
      auto predicted =
          sim::SimulateDag(g, dag::Placement::AllOnPrem(g.NumNodes()),
                           cluster);
      fp.Add(predicted.ok(), predicted.ok() ? predicted->makespan_s : 0.0);
      dag::ThreadPool pool(static_cast<size_t>(cores));
      auto measured = ExecuteDag(g, &pool);
      if (!predicted.ok() || !measured.ok()) {
        row.push_back("-");
        continue;
      }
      double pred_real = predicted->makespan_s * kMicroScale;
      double err = (pred_real - measured->makespan_s) / measured->makespan_s;
      row.push_back(TablePrinter::Pct(err));
    }
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);
  fp.Print(table.title());
  std::printf("(paper: all errors below 9%%, runtimes only overestimated)\n");
}

void CloudAccuracy() {
  // Emulated Lambda round trips: base RTT plus occasional latency spikes.
  Rng rng(77);
  OnlineStats err_stats;
  size_t spike_count = 0;
  constexpr int kCalls = 600;
  double base_rtt = 0.223;  // 86 ms / 2 + 180 ms warm-start overhead
  for (int i = 0; i < kCalls; ++i) {
    double measured = base_rtt * rng.Uniform(0.97, 1.05);
    if (rng.Bernoulli(0.01)) {  // rare cold start / network spike
      measured += rng.Uniform(0.2, 0.8);
      ++spike_count;
    }
    double predicted = base_rtt;
    err_stats.Add((predicted - measured) / measured);
  }
  TablePrinter table("Fig. 22 right: cloud round-trip simulation error "
                     "(emulated Lambda)");
  table.SetHeader({"calls", "mean error", "max |error|", "latency spikes"});
  table.AddRow({std::to_string(kCalls), TablePrinter::Pct(err_stats.mean()),
                TablePrinter::Pct(std::abs(err_stats.min()) >
                                          std::abs(err_stats.max())
                                      ? err_stats.min()
                                      : err_stats.max()),
                std::to_string(spike_count)});
  table.Print(std::cout);
  bench::Fingerprint fp;
  fp.Add(err_stats.mean(), err_stats.min(), err_stats.max(), spike_count);
  fp.Print(table.title());
  std::printf("(paper: occasional spikes, insignificant for provisioning; "
              "absorbed by the buffer online)\n");
}

void EndToEndAccuracy() {
  using namespace sky::bench;
  workloads::CovidWorkload covid;
  ExperimentSetup setup = CovidSetup();
  sim::ClusterSpec cluster;
  cluster.cores = 8;
  sim::CostModel cost_model(1.8);
  auto model = FitOffline(covid, setup, cluster, cost_model,
                          /*train_forecaster=*/false);
  if (!model.ok()) return;

  // Execute forty of the profiled per-segment DAGs for real (time-scaled)
  // and compare with the simulator's estimates.
  dag::ThreadPool pool(8);
  OnlineStats err_stats;
  Fingerprint fp;
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const core::ConfigProfile& profile =
        model->profiles[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(model->profiles.size()) - 1))];
    dag::TaskGraph g = covid.BuildTaskGraph(
        profile.config, setup.segment_seconds, cost_model);
    for (size_t i = 0; i < g.NumNodes(); ++i) {
      double ms = g.node(i).onprem_runtime_s * kE2eScale * 1e3;
      g.node(i).work = [ms] { dag::BusyWorkMillis(ms); };
    }
    auto predicted = sim::SimulateDag(
        g, dag::Placement::AllOnPrem(g.NumNodes()), cluster);
    fp.Add(predicted.ok(), predicted.ok() ? predicted->makespan_s : 0.0);
    auto measured = ExecuteDag(g, &pool);
    if (!predicted.ok() || !measured.ok()) continue;
    double pred_real = predicted->makespan_s * kE2eScale;
    err_stats.Add((pred_real - measured->makespan_s) /
                  measured->makespan_s);
  }
  TablePrinter table("Fig. 23: end-to-end simulation error (COVID DAGs)");
  table.SetHeader({"DAG executions", "mean error", "min", "max"});
  table.AddRow({std::to_string(err_stats.count()),
                TablePrinter::Pct(err_stats.mean()),
                TablePrinter::Pct(err_stats.min()),
                TablePrinter::Pct(err_stats.max())});
  table.Print(std::cout);
  fp.Print(table.title());
  std::printf("(paper: under 10%% error, larger during rush hours)\n");
}

}  // namespace sky::bench2223

int main() {
  std::printf("=== Figures 22-23: simulator accuracy ===\n");
  sky::bench2223::OnPremAccuracy();
  sky::bench2223::CloudAccuracy();
  sky::bench2223::EndToEndAccuracy();
  return 0;
}
