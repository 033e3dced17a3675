// Fault robustness: quality under injected failures, and recovery parity.
//
// A four-camera jointly-planned fleet runs the same half-day window five
// times: fault-free (the baseline), under transient cloud-upload failures,
// under a sustained cloud outage, with a throwing UDF healed by the
// StreamSet supervisor, and through a simulated crash restored from a fleet
// checkpoint. Everything is driven by the deterministic fault injector
// (sim/faults.h), so each scenario is replayable bitwise.
//
// Gates (exit non-zero on violation):
//   - every scenario completes on every stream at workers {1, 2, 8} — no
//     deadlocks, no quarantined streams outside the scenarios that earn one;
//   - the fault-free baseline is bitwise identical across worker counts;
//   - the supervised UDF-throw run is bitwise identical to the baseline
//     (replay-from-boundary heals the fault completely);
//   - crash + RecoverFromCheckpoint completes bitwise identical to the
//     uninterrupted baseline;
//   - mean quality under transient failures and under the outage stays
//     above kQualityFloor of the fault-free baseline (graceful degradation,
//     not collapse).
//
// Results land in BENCH_fault_robustness.json.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "core/multi_stream.h"
#include "core/planner.h"
#include "dag/thread_pool.h"
#include "sim/faults.h"
#include "util/table.h"
#include "workloads/ev_counting.h"

namespace {

using namespace sky;
using namespace sky::bench;

constexpr size_t kStreams = 4;
// Degraded runs must keep at least this fraction of fault-free quality.
constexpr double kQualityFloor = 0.7;

ExperimentSetup FastSetup() {
  ExperimentSetup s;
  s.segment_seconds = 4.0;
  s.train_horizon = Days(3);
  s.test_start = Days(3);
  s.test_duration = Hours(12);
  s.num_categories = 3;
  s.plan_interval = Hours(2);
  return s;
}

struct Fleet {
  std::vector<std::unique_ptr<workloads::EvCountingWorkload>> workloads;
  std::vector<core::OfflineModel> models;
  sim::ClusterSpec cluster;
  sim::CostModel cost_model{1.8};

  std::vector<core::StreamEngineJob> Jobs(
      const ExperimentSetup& setup,
      std::vector<std::unique_ptr<sim::FaultInjector>>* injectors =
          nullptr) const {
    std::vector<core::StreamEngineJob> jobs;
    for (size_t s = 0; s < workloads.size(); ++s) {
      core::StreamEngineJob job;
      job.workload = workloads[s].get();
      job.model = &models[s];
      job.cluster = cluster;
      job.cost_model = &cost_model;
      job.options.duration = setup.test_duration;
      job.options.plan_interval = setup.plan_interval;
      job.options.cloud_budget_usd_per_interval = 1.0;
      job.start_time = setup.test_start;
      if (injectors != nullptr) {
        job.options.fault_injector = (*injectors)[s].get();
      }
      jobs.push_back(job);
    }
    return jobs;
  }
};

struct ScenarioRun {
  std::vector<Result<core::EngineResult>> results;
  size_t restarts = 0;
  double wall_s = 0.0;
};

/// Runs one jointly-planned fleet to completion and returns its results.
/// Exits the process on any setup failure (bench harness, not a library).
ScenarioRun RunFleet(const std::vector<core::StreamEngineJob>& jobs,
                     dag::ThreadPool* pool, core::StreamSetOptions options,
                     const char* label) {
  WallTimer timer;
  auto set = core::StreamSet::Create(jobs, options);
  if (!set.ok()) {
    std::printf("%s: StreamSet::Create failed: %s\n", label,
                set.status().ToString().c_str());
    std::exit(1);
  }
  Status run = set->RunToCompletion(pool);
  if (!run.ok()) {
    std::printf("%s: RunToCompletion failed: %s\n", label,
                run.ToString().c_str());
    std::exit(1);
  }
  ScenarioRun out;
  out.results = set->Results();
  out.restarts = set->total_restarts();
  out.wall_s = timer.Seconds();
  return out;
}

double MeanQuality(const ScenarioRun& run) {
  double sum = 0.0;
  for (const auto& r : run.results) {
    if (r.ok()) sum += r->mean_quality;
  }
  return sum / static_cast<double>(run.results.size());
}

bool AllOk(const ScenarioRun& run) {
  for (const auto& r : run.results) {
    if (!r.ok()) return false;
  }
  return true;
}

bool Bitwise(const ScenarioRun& a, const ScenarioRun& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t s = 0; s < a.results.size(); ++s) {
    if (!a.results[s].ok() || !b.results[s].ok()) return false;
    if (!core::EngineResultsIdentical(*a.results[s], *b.results[s])) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("=== Fault robustness: injected failures + recovery ===\n");
  ExperimentSetup setup = FastSetup();

  Fleet fleet;
  fleet.cluster.cores = core::FairCoreShare(16, kStreams);
  dag::ThreadPool pool(BenchThreads(argc, argv));
  for (size_t s = 0; s < kStreams; ++s) {
    fleet.workloads.push_back(
        std::make_unique<workloads::EvCountingWorkload>(8600 + s));
  }
  WallTimer offline_timer;
  fleet.models.resize(kStreams);
  std::vector<Status> fit_statuses(kStreams, Status::Ok());
  dag::ParallelFor(&pool, kStreams, [&](size_t s) {
    auto model = FitOffline(*fleet.workloads[s], setup, fleet.cluster,
                            fleet.cost_model, /*train_forecaster=*/false,
                            &pool);
    if (model.ok()) {
      fleet.models[s] = std::move(*model);
    } else {
      fit_statuses[s] = model.status();
    }
  });
  for (const Status& st : fit_statuses) {
    if (!st.ok()) {
      std::printf("offline failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  double offline_s = offline_timer.Seconds();

  bool gates_ok = true;
  auto gate = [&gates_ok](bool ok, const char* what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what);
      gates_ok = false;
    }
  };

  // --- Scenario 1: fault-free baseline, bitwise across worker counts -----
  std::vector<core::StreamEngineJob> base_jobs = fleet.Jobs(setup);
  dag::ThreadPool pool2(2), pool8(8);
  ScenarioRun baseline = RunFleet(base_jobs, nullptr, {}, "baseline w1");
  ScenarioRun baseline2 = RunFleet(base_jobs, &pool2, {}, "baseline w2");
  ScenarioRun baseline8 = RunFleet(base_jobs, &pool8, {}, "baseline w8");
  gate(AllOk(baseline), "baseline completes on every stream");
  gate(Bitwise(baseline, baseline2) && Bitwise(baseline, baseline8),
       "baseline bitwise identical at workers {1,2,8}");
  double base_quality = MeanQuality(baseline);

  // Fault windows sit inside the second plan interval; one-shot events fire
  // mid-run. All seeds fixed so every invocation replays the same faults.
  const SimTime fault_at = setup.test_start + setup.plan_interval;
  const SimTime fault_len = setup.plan_interval;

  // --- Scenario 2: transient cloud-upload failures (retry + degrade) -----
  // The window covers the whole run: WHERE the planner bursts depends on
  // forecast content, so a narrow window can miss every cloud segment and
  // exercise nothing (the liveness gate below would catch that).
  std::vector<std::unique_ptr<sim::FaultInjector>> transient_inj;
  for (size_t s = 0; s < kStreams; ++s) {
    sim::FaultPlan plan;
    plan.AddTransientCloudFailures(setup.test_start, setup.test_duration,
                                   /*fail_probability=*/0.5);
    transient_inj.push_back(
        std::make_unique<sim::FaultInjector>(plan, /*seed=*/9100 + s));
  }
  ScenarioRun transient = RunFleet(fleet.Jobs(setup, &transient_inj), &pool8,
                                   {}, "transient_cloud");
  gate(AllOk(transient), "transient_cloud completes on every stream");
  double transient_quality = MeanQuality(transient);
  size_t retries = 0, giveups = 0;
  double backoff_s = 0.0;
  for (const auto& r : transient.results) {
    retries += r->cloud_retries;
    giveups += r->cloud_giveups;
    backoff_s += r->fault_backoff_s;
  }
  gate(retries + giveups > 0,
       "transient_cloud scenario actually hit cloud uploads");

  // --- Scenario 3: sustained cloud outage (degrade on-prem, resume) ------
  std::vector<std::unique_ptr<sim::FaultInjector>> outage_inj;
  for (size_t s = 0; s < kStreams; ++s) {
    sim::FaultPlan plan;
    plan.AddCloudOutage(fault_at, fault_len);
    outage_inj.push_back(
        std::make_unique<sim::FaultInjector>(plan, /*seed=*/9200 + s));
  }
  ScenarioRun outage =
      RunFleet(fleet.Jobs(setup, &outage_inj), &pool8, {}, "outage");
  gate(AllOk(outage), "outage completes on every stream");
  double outage_quality = MeanQuality(outage);
  size_t outage_segments = 0, outage_intervals = 0;
  for (const auto& r : outage.results) {
    outage_segments += r->outage_segments;
    outage_intervals += r->outage_intervals;
  }

  // --- Scenario 4: throwing UDF healed by the supervisor -----------------
  // Stream 2's UDF throws once mid-interval; the supervisor replays it from
  // its last boundary checkpoint, which must heal the run bitwise.
  core::StreamSetOptions supervised;
  supervised.max_stream_restarts = 2;
  bool throw_all_ok = true, throw_bitwise = true;
  size_t throw_restarts = 0;
  double throw_wall_s = 0.0;
  for (dag::ThreadPool* p : {static_cast<dag::ThreadPool*>(nullptr), &pool2,
                             &pool8}) {
    std::vector<std::unique_ptr<sim::FaultInjector>> throw_inj;
    for (size_t s = 0; s < kStreams; ++s) {
      sim::FaultPlan plan;
      if (s == 2) plan.AddUdfThrow(fault_at + Hours(1));
      throw_inj.push_back(
          std::make_unique<sim::FaultInjector>(plan, /*seed=*/9300 + s));
    }
    ScenarioRun run = RunFleet(fleet.Jobs(setup, &throw_inj), p, supervised,
                               "udf_throw");
    throw_all_ok &= AllOk(run);
    throw_bitwise &= Bitwise(run, baseline);
    throw_restarts = run.restarts;
    throw_wall_s = run.wall_s;
  }
  gate(throw_all_ok, "udf_throw completes on every stream at workers {1,2,8}");
  gate(throw_restarts >= 1, "supervisor restarted the throwing stream");
  gate(throw_bitwise, "supervised udf_throw run bitwise == fault-free");

  // --- Scenario 5: crash mid-run, recover from the fleet checkpoint ------
  std::string ckpt_path = "BENCH_fault_robustness.ckpt";
  WallTimer crash_timer;
  bool crash_ok = false, crash_bitwise = false;
  do {
    // Half the 12-h run: end it at boundary 3 of its 2-h intervals.
    auto half = core::StreamSet::Create(base_jobs, {});
    size_t seen = 0;
    if (!half.ok() ||
        !half->RunToCompletion(&pool8, [&] { return seen++ < 3; }).ok()) {
      break;
    }
    if (!half->SaveCheckpoint(ckpt_path).ok()) break;
    // The StreamSet (the "process") is dropped here; a fresh one recovers.
    auto recovered =
        core::StreamSet::RecoverFromCheckpoint(base_jobs, ckpt_path);
    if (!recovered.ok() || !recovered->RunToCompletion(&pool8).ok()) break;
    ScenarioRun rec;
    rec.results = recovered->Results();
    crash_ok = AllOk(rec);
    crash_bitwise = Bitwise(rec, baseline);
  } while (false);
  double crash_wall_s = crash_timer.Seconds();
  std::remove(ckpt_path.c_str());
  gate(crash_ok, "crash_recover completes on every stream");
  gate(crash_bitwise, "recovered run bitwise == uninterrupted");

  // --- Quality floor gates ----------------------------------------------
  double transient_rel =
      base_quality > 0 ? transient_quality / base_quality : 0.0;
  double outage_rel = base_quality > 0 ? outage_quality / base_quality : 0.0;
  gate(transient_rel >= kQualityFloor,
       "transient_cloud quality >= floor of baseline");
  gate(outage_rel >= kQualityFloor, "outage quality >= floor of baseline");

  TablePrinter table("Injected-fault scenarios (4 jointly-planned streams)");
  table.SetHeader({"scenario", "mean quality", "rel. to fault-free",
                   "evidence"});
  table.AddRow({"fault-free", TablePrinter::Pct(base_quality), "1.00",
                "bitwise @ workers {1,2,8}"});
  table.AddRow({"transient cloud p=0.5", TablePrinter::Pct(transient_quality),
                TablePrinter::Fmt(transient_rel, 2),
                std::to_string(retries) + " retries, " +
                    std::to_string(giveups) + " giveups"});
  table.AddRow({"cloud outage (1 interval)", TablePrinter::Pct(outage_quality),
                TablePrinter::Fmt(outage_rel, 2),
                std::to_string(outage_segments) + " outage segments"});
  table.AddRow({"UDF throw + supervisor", TablePrinter::Pct(base_quality),
                throw_bitwise ? "1.00 (bitwise)" : "DIVERGED",
                std::to_string(throw_restarts) + " restart(s)"});
  table.AddRow({"crash + recover", TablePrinter::Pct(base_quality),
                crash_bitwise ? "1.00 (bitwise)" : "DIVERGED",
                "fleet checkpoint round trip"});
  table.Print(std::cout);
  std::printf("\noffline fits %.2f s; baseline run %.2f s serial / %.2f s on "
              "8 workers\n",
              offline_s, baseline.wall_s, baseline8.wall_s);

  BenchJson json("fault_robustness");
  json.Set("threads", static_cast<double>(pool.num_threads()));
  json.Set("streams", static_cast<double>(kStreams));
  json.Set("quality_floor", kQualityFloor);
  json.Set("baseline_mean_quality", base_quality);
  json.Set("transient_mean_quality", transient_quality);
  json.Set("transient_quality_rel", transient_rel);
  json.Set("transient_retries", static_cast<double>(retries));
  json.Set("transient_giveups", static_cast<double>(giveups));
  json.Set("transient_backoff_s", backoff_s);
  json.Set("outage_mean_quality", outage_quality);
  json.Set("outage_quality_rel", outage_rel);
  json.Set("outage_segments", static_cast<double>(outage_segments));
  json.Set("outage_intervals", static_cast<double>(outage_intervals));
  json.Set("udf_throw_restarts", static_cast<double>(throw_restarts));
  json.Set("udf_throw_bitwise", throw_bitwise ? 1.0 : 0.0);
  json.Set("crash_recover_bitwise", crash_bitwise ? 1.0 : 0.0);
  json.Set("baseline_bitwise_across_workers",
           Bitwise(baseline, baseline2) && Bitwise(baseline, baseline8)
               ? 1.0
               : 0.0);
  json.Set("offline_wall_s", offline_s);
  json.Set("baseline_wall_s_serial", baseline.wall_s);
  json.Set("baseline_wall_s_w8", baseline8.wall_s);
  json.Set("udf_throw_wall_s", throw_wall_s);
  json.Set("crash_recover_wall_s", crash_wall_s);
  std::string written = json.Write();
  if (!written.empty()) std::printf("wrote %s\n", written.c_str());

  if (!gates_ok) {
    std::printf("\nFAULT ROBUSTNESS GATES FAILED\n");
    return 1;
  }
  std::printf("\nall fault-robustness gates passed\n");
  return 0;
}
