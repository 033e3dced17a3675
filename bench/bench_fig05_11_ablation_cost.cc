// Figures 5, 7, 9, 11: monetary-cost ablation. For each workload and each
// cloud/on-prem cost ratio {1:1, 1.8:1, 5:2}, compares four variants of
// Skyscraper: no buffering & no cloud (the best real-time static config),
// only buffering, only cloud, and buffering & cloud — across the server
// catalog. Costs are normalized to the most expensive deployment in the
// sweep (the paper's "normalized cost" axis).

#include <functional>
#include <iostream>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "util/table.h"
#include "workloads/covid.h"
#include "workloads/mosei.h"
#include "workloads/mot.h"

namespace sky::bench {
namespace {

struct Variant {
  const char* name;
  bool buffer;
  bool cloud;
};

constexpr Variant kVariants[] = {
    {"no buf, no cloud", false, false},
    {"only buffering", true, false},
    {"only cloud", false, true},
    {"buffering & cloud", true, true},
};

void RunWorkload(const core::Workload& workload, ExperimentSetup setup,
                 double cloud_budget) {
  // The ablation study runs on the simulator (§5.4); two ingested days keep
  // the full sweep fast while preserving the diurnal structure.
  setup.test_duration = Days(2);
  std::vector<StaticEntry> totals = StaticConfigTotals(workload, setup);
  double denom = BestEntry(totals).total_quality;

  for (double ratio : {1.0, 1.8, 2.5}) {
    sim::CostModel cost_model(ratio);
    TablePrinter table(std::string(workload.name()) + " — cloud/on-prem " +
                       TablePrinter::Fmt(ratio, 1) + ":1");
    table.SetHeader({"variant", "vCPUs", "quality", "cloud $", "norm. cost"});
    Fingerprint fp;
    double max_cost = 0.0;
    struct Row {
      std::string variant;
      int vcpus;
      double quality;
      double cloud_usd;
      double cost;
    };
    std::vector<Row> rows;

    for (const sim::ServerType& server : sim::ServerCatalog()) {
      sim::ClusterSpec cluster;
      cluster.cores = server.vcpus;
      auto model = FitOffline(workload, setup, cluster, cost_model,
                              /*train_forecaster=*/false);
      if (!model.ok()) continue;
      for (const Variant& v : kVariants) {
        double quality = 0.0;
        double cloud_usd = 0.0;
        if (!v.buffer && !v.cloud) {
          auto st =
              BestStaticOnServer(workload, setup, totals, cluster, cost_model);
          if (!st.ok()) continue;
          quality = st->total_quality;
        } else {
          core::EngineOptions run;
          run.duration = setup.test_duration;
          run.plan_interval = setup.plan_interval;
          run.enable_buffer = v.buffer;
          run.enable_cloud = v.cloud;
          run.cloud_budget_usd_per_interval = v.cloud ? cloud_budget : 0.0;
          core::IngestionEngine engine(&workload, &*model, cluster,
                                       &cost_model, run);
          auto result = engine.Run(setup.test_start);
          fp.Add(result);
          if (!result.ok()) continue;
          quality = result->total_quality;
          cloud_usd = result->cloud_usd;
        }
        double cost = DeploymentCostUsd(server, cost_model,
                                        setup.test_duration, cloud_usd);
        max_cost = std::max(max_cost, cost);
        rows.push_back({v.name, server.vcpus, quality / denom, cloud_usd,
                        cost});
      }
    }
    for (const Row& r : rows) {
      fp.Add(r.vcpus, r.quality, r.cloud_usd, r.cost / max_cost);
      table.AddRow({r.variant, std::to_string(r.vcpus),
                    TablePrinter::Pct(r.quality, 0),
                    TablePrinter::Usd(r.cloud_usd),
                    TablePrinter::Fmt(r.cost / max_cost, 2)});
    }
    table.Print(std::cout);
    fp.Print(table.title());
  }
}

}  // namespace
}  // namespace sky::bench

int main() {
  using namespace sky::bench;
  std::printf("=== Figures 5/7/9/11: monetary-cost ablation ===\n");
  {
    sky::workloads::CovidWorkload covid;
    RunWorkload(covid, CovidSetup(), 3.0);
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
