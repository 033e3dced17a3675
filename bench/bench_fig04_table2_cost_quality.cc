// Figure 4 + Table 2: end-to-end cost-quality trade-off of Skyscraper,
// Chameleon* and the static baseline on COVID, MOT, MOSEI-HIGH and
// MOSEI-LONG, across the Google Cloud server catalog of §5.3.
//
// Quality is normalized to the most qualitative static configuration (run
// with unlimited hardware); total cost follows Appendix L: VM rent / 1.8
// plus cloud credits.

#include <iostream>
#include <memory>

#include "baselines/chameleon.h"
#include "bench_common.h"
#include "core/engine.h"
#include "util/table.h"
#include "workloads/covid.h"
#include "workloads/mosei.h"
#include "workloads/mot.h"

namespace sky::bench {
namespace {

void RunWorkload(const core::Workload& workload, const ExperimentSetup& setup,
                 double sky_cloud_budget_per_interval) {
  sim::CostModel cost_model(1.8);
  std::vector<StaticEntry> totals = StaticConfigTotals(workload, setup);
  double denom = BestEntry(totals).total_quality;
  double segments = setup.test_duration / setup.segment_seconds;
  (void)segments;

  TablePrinter table(std::string(workload.name()) + " (" +
                     TablePrinter::Fmt(setup.test_duration / Days(1), 0) +
                     " days ingested)");
  table.SetHeader({"method", "quality", "server vCPUs", "cloud $",
                   "total cost"});
  Fingerprint fp;
  fp.Add(denom);

  for (const sim::ServerType& server : sim::ServerCatalog()) {
    sim::ClusterSpec cluster;
    cluster.cores = server.vcpus;

    // --- Static ---
    auto st = BestStaticOnServer(workload, setup, totals, cluster,
                                 cost_model);
    fp.Add(st.ok(), st.ok() ? st->total_quality : 0.0);
    if (st.ok()) {
      table.AddRow({"Static", TablePrinter::Pct(st->total_quality / denom, 0),
                    std::to_string(server.vcpus), "-",
                    TablePrinter::Usd(DeploymentCostUsd(
                        server, cost_model, setup.test_duration, 0.0))});
    } else {
      table.AddRow({"Static", "(no real-time config)",
                    std::to_string(server.vcpus), "-", "-"});
    }
  }

  // Offline models are per-server (placement profiles depend on cores).
  for (const sim::ServerType& server : sim::ServerCatalog()) {
    sim::ClusterSpec cluster;
    cluster.cores = server.vcpus;
    auto model = FitOffline(workload, setup, cluster, cost_model,
                            /*train_forecaster=*/false);
    if (!model.ok()) continue;

    // --- Chameleon* : best non-crashing run over its quality-target SLO
    // sweep (the paper only reports setups where it did not crash). ---
    double best_quality = -1.0;
    bool crashed_everywhere = true;
    for (double target : {0.75, 0.85, 0.90, 0.94, 0.97}) {
      baselines::ChameleonOptions copts;
      copts.quality_target = target;
      auto ch = baselines::RunChameleonBaseline(
          workload, model->profiles, cluster, setup.segment_seconds,
          setup.test_duration, setup.test_start, copts);
      if (ch.ok() && !ch->crashed) {
        crashed_everywhere = false;
        best_quality = std::max(best_quality, ch->total_quality);
      }
    }
    fp.Add(crashed_everywhere, best_quality);
    if (crashed_everywhere) {
      table.AddRow({"Chameleon*", "(crashed: buffer overflow)",
                    std::to_string(server.vcpus), "-", "-"});
    } else {
      table.AddRow({"Chameleon*", TablePrinter::Pct(best_quality / denom, 0),
                    std::to_string(server.vcpus), "-",
                    TablePrinter::Usd(DeploymentCostUsd(
                        server, cost_model, setup.test_duration, 0.0))});
    }
  }

  for (const sim::ServerType& server : sim::ServerCatalog()) {
    sim::ClusterSpec cluster;
    cluster.cores = server.vcpus;
    auto model = FitOffline(workload, setup, cluster, cost_model);
    if (!model.ok()) continue;

    // --- Skyscraper ---
    core::EngineOptions run;
    run.duration = setup.test_duration;
    run.plan_interval = setup.plan_interval;
    run.cloud_budget_usd_per_interval = sky_cloud_budget_per_interval;
    core::IngestionEngine engine(&workload, &*model, cluster, &cost_model,
                                 run);
    auto result = engine.Run(setup.test_start);
    fp.Add(result);
    if (!result.ok()) continue;
    table.AddRow(
        {"Skyscraper", TablePrinter::Pct(result->total_quality / denom, 0),
         std::to_string(server.vcpus),
         TablePrinter::Usd(result->cloud_usd),
         TablePrinter::Usd(DeploymentCostUsd(server, cost_model,
                                             setup.test_duration,
                                             result->cloud_usd))});
  }

  table.Print(std::cout);
  fp.Print(table.title());
}

}  // namespace
}  // namespace sky::bench

int main() {
  using namespace sky::bench;
  std::printf("=== Figure 4 / Table 2: cost-quality trade-offs ===\n");
  {
    sky::workloads::CovidWorkload covid;
    RunWorkload(covid, CovidSetup(), /*cloud budget $/interval=*/3.0);
  }
  {
    sky::workloads::MotWorkload mot;
    RunWorkload(mot, MotSetup(), 2.0);
  }
  {
    sky::workloads::MoseiWorkload high(
        sky::workloads::MoseiWorkload::SpikeKind::kHigh);
    RunWorkload(high, MoseiSetup(), 4.0);
  }
  {
    sky::workloads::MoseiWorkload lng(
        sky::workloads::MoseiWorkload::SpikeKind::kLong);
    RunWorkload(lng, MoseiSetup(), 4.0);
  }
  return 0;
}
