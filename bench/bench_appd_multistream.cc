// Appendix D: multi-stream ingestion. Joint knob planning across streams
// sharing one cloud-credit budget, versus splitting the budget evenly and
// planning each stream independently. The joint LP (Eqs. 7-9) allocates
// credits to the streams whose hard content benefits most.
//
// The per-stream offline phases and the per-stream ingestion engines are
// independent simulations, so both fan out on one shared thread pool; the
// serial-vs-concurrent engine wall times land in
// BENCH_appd_multistream.json.

#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "bench_common.h"
#include "core/multi_stream.h"
#include "core/planner.h"
#include "dag/thread_pool.h"
#include "util/stats.h"
#include "util/table.h"
#include "workloads/ev_counting.h"
#include "workloads/scenarios.h"

int main(int argc, char** argv) {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Appendix D: multi-stream joint planning ===\n");

  // Four cameras with different content mixes.
  std::vector<std::unique_ptr<workloads::EvCountingWorkload>> streams;
  std::vector<std::vector<double>> forecasts = {
      {0.85, 0.12, 0.03},   // quiet residential street
      {0.60, 0.25, 0.15},   // side street
      {0.35, 0.35, 0.30},   // arterial road
      {0.10, 0.30, 0.60}};  // busy intersection
  for (uint64_t s = 0; s < forecasts.size(); ++s) {
    streams.push_back(
        std::make_unique<workloads::EvCountingWorkload>(7100 + s));
  }

  sim::ClusterSpec cluster;
  cluster.cores = core::FairCoreShare(16, streams.size());
  sim::CostModel cost_model(1.8);

  dag::ThreadPool pool(BenchThreads(argc, argv));

  // Per-stream offline phases are independent: one stream per pool slot.
  ExperimentSetup setup = EvSetup();
  std::vector<core::OfflineModel> models(streams.size());
  std::vector<Status> fit_statuses(streams.size(), Status::Ok());
  WallTimer offline_timer;
  dag::ParallelFor(&pool, streams.size(), [&](size_t s) {
    auto model = FitOffline(*streams[s], setup, cluster, cost_model,
                            /*train_forecaster=*/false, &pool);
    if (model.ok()) {
      models[s] = std::move(*model);
    } else {
      fit_statuses[s] = model.status();
    }
  });
  double offline_s = offline_timer.Seconds();
  for (const Status& s : fit_statuses) {
    if (!s.ok()) {
      std::printf("offline failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::vector<core::StreamPlanInput> inputs;
  for (size_t s = 0; s < streams.size(); ++s) {
    core::StreamPlanInput in;
    in.categories = &models[s].categories;
    in.forecast = forecasts[s];
    for (const core::ConfigProfile& p : models[s].profiles) {
      in.config_costs.push_back(p.work_core_s_per_video_s);
    }
    inputs.push_back(std::move(in));
  }

  TablePrinter table("Joint vs split planning, expected quality per budget");
  table.SetHeader({"shared budget (core-s/s)", "joint plan", "even split",
                   "joint advantage"});
  for (double budget : {4.0, 8.0, 12.0, 20.0, 32.0}) {
    auto joint = core::ComputeJointKnobPlan(inputs, budget);
    double joint_q = 0.0;
    if (joint.ok()) {
      for (const core::KnobPlan& p : *joint) joint_q += p.expected_quality;
    }
    double split_q = 0.0;
    bool split_ok = true;
    for (const core::StreamPlanInput& in : inputs) {
      auto plan = core::ComputeKnobPlan(
          *in.categories, in.forecast, in.config_costs,
          budget / static_cast<double>(inputs.size()));
      if (!plan.ok()) {
        split_ok = false;
        break;
      }
      split_q += plan->expected_quality;
    }
    table.AddRow(
        {TablePrinter::Fmt(budget, 0),
         joint.ok() ? TablePrinter::Pct(joint_q / inputs.size()) : "-",
         split_ok ? TablePrinter::Pct(split_q / inputs.size()) : "-",
         joint.ok() && split_ok
             ? TablePrinter::Pct((joint_q - split_q) / inputs.size())
             : "-"});
  }
  table.Print(std::cout);
  std::printf("\n(joint planning always >= even split: the LP moves credits "
              "to streams whose hard content gains the most; gains shrink "
              "as the budget saturates)\n");

  // Full ingestion: every camera runs its own engine over the test day.
  // The engines are independent simulations — an independent-mode StreamSet
  // runs them serially, then concurrently on the pool, and the concurrent
  // run must change nothing.
  std::vector<core::StreamEngineJob> jobs;
  for (size_t s = 0; s < streams.size(); ++s) {
    core::StreamEngineJob job;
    job.workload = streams[s].get();
    job.model = &models[s];
    job.cluster = cluster;
    job.cost_model = &cost_model;
    job.options.duration = setup.test_duration;
    job.options.plan_interval = setup.plan_interval;
    job.options.cloud_budget_usd_per_interval = 2.0;
    job.start_time = setup.test_start;
    jobs.push_back(job);
  }

  core::StreamSetOptions independent;
  independent.planning = core::MultiStreamPlanning::kIndependent;

  WallTimer serial_timer;
  Result<core::StreamSet> serial_set =
      core::StreamSet::Create(jobs, independent);
  Status serial_ran = serial_set.ok() ? serial_set->RunToCompletion(nullptr)
                                      : serial_set.status();
  double serial_s = serial_timer.Seconds();

  WallTimer concurrent_timer;
  Result<core::StreamSet> concurrent_set =
      core::StreamSet::Create(jobs, independent);
  Status concurrent_ran = concurrent_set.ok()
                              ? concurrent_set->RunToCompletion(&pool)
                              : concurrent_set.status();
  double concurrent_s = concurrent_timer.Seconds();

  if (!serial_ran.ok() || !concurrent_ran.ok()) {
    std::printf("stream set failed: %s\n",
                serial_ran.ok() ? concurrent_ran.ToString().c_str()
                                : serial_ran.ToString().c_str());
    return 1;
  }
  std::vector<Result<core::EngineResult>> serial_runs = serial_set->Results();
  std::vector<Result<core::EngineResult>> concurrent_runs =
      concurrent_set->Results();

  TablePrinter engines("Per-stream ingestion engines (1 test day each)");
  engines.SetHeader({"stream", "mean quality", "switches", "identical"});
  bool all_identical = true;
  for (size_t s = 0; s < jobs.size(); ++s) {
    if (!serial_runs[s].ok() || !concurrent_runs[s].ok()) {
      std::printf("engine failed: %s\n",
                  serial_runs[s].ok()
                      ? concurrent_runs[s].status().ToString().c_str()
                      : serial_runs[s].status().ToString().c_str());
      return 1;
    }
    bool same =
        serial_runs[s]->total_quality == concurrent_runs[s]->total_quality &&
        serial_runs[s]->switch_count == concurrent_runs[s]->switch_count;
    all_identical &= same;
    engines.AddRow({"camera " + std::to_string(s),
                    TablePrinter::Pct(serial_runs[s]->mean_quality),
                    TablePrinter::Fmt(
                        static_cast<double>(serial_runs[s]->switch_count), 0),
                    same ? "yes" : "NO"});
  }
  engines.Print(std::cout);
  double engine_speedup = concurrent_s > 0 ? serial_s / concurrent_s : 0.0;
  std::printf("\nengines: serial %.2f s, concurrent %.2f s on %zu threads "
              "(%.2fx); offline fits took %.2f s in parallel\n",
              serial_s, concurrent_s, pool.num_threads(), engine_speedup,
              offline_s);

  // Jointly-planned ingestion: the same jobs multiplexed on one shared
  // clock by a StreamSet. Joint mode pools the per-stream budgets and
  // solves Appendix D's program live at every lockstep plan boundary;
  // independent mode must reproduce the per-engine runs above bitwise
  // (parity gate).
  WallTimer joint_timer;
  auto joint_set = core::StreamSet::Create(
      jobs, {core::MultiStreamPlanning::kJoint});
  if (!joint_set.ok() || !joint_set->RunToCompletion(&pool).ok()) {
    std::printf("joint stream set failed\n");
    return 1;
  }
  double joint_s = joint_timer.Seconds();

  WallTimer indep_timer;
  auto indep_set = core::StreamSet::Create(
      jobs, {core::MultiStreamPlanning::kIndependent});
  if (!indep_set.ok() || !indep_set->RunToCompletion(&pool).ok()) {
    std::printf("independent stream set failed\n");
    return 1;
  }
  double indep_s = indep_timer.Seconds();

  auto joint_runs = joint_set->Results();
  auto indep_runs = indep_set->Results();
  TablePrinter modes("StreamSet ingestion: joint vs independent planning");
  modes.SetHeader({"stream", "joint quality", "indep quality",
                   "joint cloud $", "indep cloud $", "indep == engines"});
  bool streamset_parity = true;
  double joint_quality = 0.0, indep_quality = 0.0;
  double joint_usd = 0.0, indep_usd = 0.0;
  for (size_t s = 0; s < jobs.size(); ++s) {
    if (!joint_runs[s].ok() || !indep_runs[s].ok()) {
      std::printf("stream set run failed on stream %zu\n", s);
      return 1;
    }
    // Independent planning is defined as "exactly the standalone engines":
    // anything but bitwise equality with the serial runs above is a bug.
    bool same = core::EngineResultsIdentical(*serial_runs[s], *indep_runs[s]);
    streamset_parity &= same;
    joint_quality += joint_runs[s]->mean_quality;
    indep_quality += indep_runs[s]->mean_quality;
    joint_usd += joint_runs[s]->cloud_usd;
    indep_usd += indep_runs[s]->cloud_usd;
    modes.AddRow({"camera " + std::to_string(s),
                  TablePrinter::Pct(joint_runs[s]->mean_quality),
                  TablePrinter::Pct(indep_runs[s]->mean_quality),
                  TablePrinter::Fmt(joint_runs[s]->cloud_usd, 2),
                  TablePrinter::Fmt(indep_runs[s]->cloud_usd, 2),
                  same ? "yes" : "NO"});
  }
  modes.Print(std::cout);
  joint_quality /= static_cast<double>(jobs.size());
  indep_quality /= static_cast<double>(jobs.size());
  std::printf("\njoint planning: mean quality %.2f%% vs %.2f%% independent "
              "(%+.2f pp) at $%.2f vs $%.2f cloud spend; walls %.2f / %.2f "
              "s\n",
              100 * joint_quality, 100 * indep_quality,
              100 * (joint_quality - indep_quality), joint_usd, indep_usd,
              joint_s, indep_s);

  // Flash-crowd scenario: the same joint-vs-independent comparison when the
  // cameras ingest the adversarial burst stream instead of the steady-state
  // diurnal source. Bursts hit the cameras at different times (distinct
  // content seeds) and are invisible to the offline forecast, so the joint
  // LP reallocates pooled credits on stale information — the realized delta
  // (recorded in the JSON, sign and all) measures how much that costs or
  // gains versus locking every camera to its even split.
  std::printf("\n=== Flash-crowd scenario: joint planning under bursts ===\n");
  ExperimentSetup fc_setup = CovidSetup();
  fc_setup.test_duration = Days(1);
  std::vector<std::unique_ptr<workloads::FlashCrowdWorkload>> fc_streams;
  for (uint64_t s = 0; s < 4; ++s) {
    fc_streams.push_back(
        std::make_unique<workloads::FlashCrowdWorkload>(7300 + s));
  }
  std::vector<core::OfflineModel> fc_models(fc_streams.size());
  std::vector<Status> fc_statuses(fc_streams.size(), Status::Ok());
  dag::ParallelFor(&pool, fc_streams.size(), [&](size_t s) {
    auto model = FitOffline(*fc_streams[s], fc_setup, cluster, cost_model,
                            /*train_forecaster=*/false, &pool);
    if (model.ok()) {
      fc_models[s] = std::move(*model);
    } else {
      fc_statuses[s] = model.status();
    }
  });
  for (const Status& s : fc_statuses) {
    if (!s.ok()) {
      std::printf("flash-crowd offline failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::vector<core::StreamEngineJob> fc_jobs;
  for (size_t s = 0; s < fc_streams.size(); ++s) {
    core::StreamEngineJob job;
    job.workload = fc_streams[s].get();
    job.model = &fc_models[s];
    job.cluster = cluster;
    job.cost_model = &cost_model;
    job.options.duration = fc_setup.test_duration;
    job.options.plan_interval = Hours(6);
    job.options.cloud_budget_usd_per_interval = 2.0;
    job.start_time = fc_setup.test_start;
    fc_jobs.push_back(job);
  }
  auto fc_joint = core::StreamSet::Create(
      fc_jobs, {core::MultiStreamPlanning::kJoint});
  auto fc_indep = core::StreamSet::Create(
      fc_jobs, {core::MultiStreamPlanning::kIndependent});
  if (!fc_joint.ok() || !fc_joint->RunToCompletion(&pool).ok() ||
      !fc_indep.ok() || !fc_indep->RunToCompletion(&pool).ok()) {
    std::printf("flash-crowd stream set failed\n");
    return 1;
  }
  auto fc_joint_runs = fc_joint->Results();
  auto fc_indep_runs = fc_indep->Results();
  TablePrinter fc_table("Flash-crowd cameras: joint vs independent planning");
  fc_table.SetHeader({"stream", "joint quality", "indep quality",
                      "joint cloud $", "indep cloud $"});
  double fc_joint_q = 0.0, fc_indep_q = 0.0;
  double fc_joint_usd = 0.0, fc_indep_usd = 0.0;
  for (size_t s = 0; s < fc_jobs.size(); ++s) {
    if (!fc_joint_runs[s].ok() || !fc_indep_runs[s].ok()) {
      std::printf("flash-crowd run failed on stream %zu\n", s);
      return 1;
    }
    fc_joint_q += fc_joint_runs[s]->mean_quality;
    fc_indep_q += fc_indep_runs[s]->mean_quality;
    fc_joint_usd += fc_joint_runs[s]->cloud_usd;
    fc_indep_usd += fc_indep_runs[s]->cloud_usd;
    fc_table.AddRow({"burst cam " + std::to_string(s),
                     TablePrinter::Pct(fc_joint_runs[s]->mean_quality),
                     TablePrinter::Pct(fc_indep_runs[s]->mean_quality),
                     TablePrinter::Fmt(fc_joint_runs[s]->cloud_usd, 2),
                     TablePrinter::Fmt(fc_indep_runs[s]->cloud_usd, 2)});
  }
  fc_table.Print(std::cout);
  fc_joint_q /= static_cast<double>(fc_jobs.size());
  fc_indep_q /= static_cast<double>(fc_jobs.size());
  std::printf("\nflash-crowd joint advantage: %+.2f pp (%.2f%% vs %.2f%%) at "
              "$%.2f vs $%.2f cloud spend%s\n",
              100 * (fc_joint_q - fc_indep_q), 100 * fc_joint_q,
              100 * fc_indep_q, fc_joint_usd, fc_indep_usd,
              fc_joint_q < fc_indep_q
                  ? " (bursts violate the forecast: joint reallocation "
                    "misfires under this adversarial stream)"
                  : "");

  // Fleet sweep: the sharded barrier scheduler at {4, 64, 256} streams x
  // {1, 2, 4, 8, 16} workers. Joint-mode results must be bitwise identical
  // at every worker count (hard gate). Plan-boundary latency percentiles
  // come from the 1-worker run (boundary solves are serial at the barrier
  // regardless of worker count).
  std::printf("\n=== Fleet sweep: sharded barrier scheduler ===\n");
  const size_t sweep_counts[] = {4, 64, 256};
  const size_t sweep_workers[] = {1, 2, 4, 8, 16};
  bool sweep_identical = true;
  std::vector<std::pair<std::string, double>> sweep_metrics;
  TablePrinter sweep_table(
      "Joint StreamSet wall seconds by worker count (speedup vs 1 worker)");
  sweep_table.SetHeader({"streams", "1 wkr", "2 wkrs", "4 wkrs", "8 wkrs",
                         "16 wkrs", "bnd p50 ms", "bnd p99 ms"});
  // Large fleets reuse the four fitted models round-robin: the models are
  // statistics of the shared content process, so any same-process stream
  // can serve them; fitting 256 offline phases is not what this bench
  // times. Shorter horizons at larger counts keep total work bounded.
  auto sweep_jobs =
      [&](size_t n,
          std::vector<std::unique_ptr<workloads::EvCountingWorkload>>* fleet) {
        std::vector<core::StreamEngineJob> fleet_jobs;
        for (size_t s = 0; s < n; ++s) {
          fleet->push_back(std::make_unique<workloads::EvCountingWorkload>(
              7200 + static_cast<uint64_t>(s)));
          core::StreamEngineJob job;
          job.workload = fleet->back().get();
          job.model = &models[s % models.size()];
          job.cluster = cluster;
          job.cost_model = &cost_model;
          job.options.duration =
              n == 4 ? Days(1) : (n == 64 ? Hours(4) : Hours(2));
          job.options.plan_interval = n == 4 ? Hours(4) : Hours(1);
          job.options.cloud_budget_usd_per_interval = 1.0;
          job.start_time = setup.test_start;
          fleet_jobs.push_back(job);
        }
        return fleet_jobs;
      };
  for (size_t n : sweep_counts) {
    std::vector<std::unique_ptr<workloads::EvCountingWorkload>> fleet;
    const std::vector<core::StreamEngineJob> fleet_jobs = sweep_jobs(n, &fleet);

    std::vector<Result<core::EngineResult>> ref;
    double wall_1 = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::vector<std::string> row{std::to_string(n)};
    for (size_t t : sweep_workers) {
      std::unique_ptr<dag::ThreadPool> fleet_pool;
      if (t > 1) fleet_pool = std::make_unique<dag::ThreadPool>(t - 1);
      WallTimer sweep_timer;
      auto set = core::StreamSet::Create(fleet_jobs,
                                         {core::MultiStreamPlanning::kJoint});
      if (!set.ok() || !set->RunToCompletion(fleet_pool.get()).ok()) {
        std::printf("sweep run failed at %zu streams / %zu workers\n", n, t);
        return 1;
      }
      double wall = sweep_timer.Seconds();
      auto runs = set->Results();
      for (size_t s = 0; s < n; ++s) {
        if (!runs[s].ok()) {
          std::printf("sweep stream %zu failed at %zu workers: %s\n", s, t,
                      runs[s].status().ToString().c_str());
          return 1;
        }
      }
      if (t == 1) {
        ref = std::move(runs);
        wall_1 = wall;
        std::vector<double> lat = set->boundary_latencies_ms();
        p50_ms = Percentile(lat, 50.0);
        p99_ms = Percentile(lat, 99.0);
        sweep_metrics.emplace_back("plan_boundary_p50_ms_" + std::to_string(n),
                                   p50_ms);
        sweep_metrics.emplace_back("plan_boundary_p99_ms_" + std::to_string(n),
                                   p99_ms);
        sweep_metrics.emplace_back("plan_boundaries_" + std::to_string(n),
                                   static_cast<double>(lat.size()));
        row.push_back(TablePrinter::Fmt(wall, 2));
      } else {
        for (size_t s = 0; s < n; ++s) {
          if (!core::EngineResultsIdentical(*ref[s], *runs[s])) {
            sweep_identical = false;
            std::printf("BITWISE MISMATCH: %zu streams, %zu workers, "
                        "stream %zu\n",
                        n, t, s);
          }
        }
        double sp = wall > 0 ? wall_1 / wall : 0.0;
        sweep_metrics.emplace_back("engines_speedup_s" + std::to_string(n) +
                                       "_t" + std::to_string(t),
                                   sp);
        row.push_back(TablePrinter::Fmt(wall, 2) + " (" +
                      TablePrinter::Fmt(sp, 2) + "x)");
      }
    }
    row.push_back(TablePrinter::Fmt(p50_ms, 3));
    row.push_back(TablePrinter::Fmt(p99_ms, 3));
    sweep_table.AddRow(row);
  }
  sweep_table.Print(std::cout);

  // The headline scheduler metric: the 4-stream fleet's wall at 1 worker
  // over its wall at 4, gated >= 3.0 when the hardware can actually run 4
  // workers in parallel. One wall-clock pair on a shared host reads noise,
  // so the gate reads the median of kSchedulerTrials pairs, timed after one
  // warm-up pair, with the 1-worker run going first in every other pair.
  constexpr int kSchedulerTrials = 9;
  std::printf("\n=== Scheduler speedup: 4 streams, 1 vs 4 workers ===\n");
  std::vector<std::unique_ptr<workloads::EvCountingWorkload>> trial_fleet;
  const std::vector<core::StreamEngineJob> trial_jobs =
      sweep_jobs(4, &trial_fleet);
  dag::ThreadPool trial_pool(3);
  auto timed_run = [&](dag::ThreadPool* workers) {
    WallTimer timer;
    auto set = core::StreamSet::Create(trial_jobs,
                                       {core::MultiStreamPlanning::kJoint});
    bool ok = set.ok() && set->RunToCompletion(workers).ok();
    return ok ? timer.Seconds() : -1.0;
  };
  Result<TrialPairs> scheduler = RunTrialPairs(
      kSchedulerTrials, [&] { return timed_run(nullptr); },
      [&] { return timed_run(&trial_pool); },
      [](int pair, double wall_1, double wall_4) {
        std::printf("%s %d: 1 worker %.3f s, 4 workers %.3f s, "
                    "speedup %.2fx\n",
                    pair == 0 ? "warm-up" : "trial", pair, wall_1, wall_4,
                    wall_1 / wall_4);
      });
  if (!scheduler.ok()) {
    std::printf("scheduler %s\n", scheduler.status().message().c_str());
    return 1;
  }
  const double speedup_p25 = scheduler->ratio_p25;
  const double speedup_median = scheduler->ratio_median;
  const double speedup_p75 = scheduler->ratio_p75;

  unsigned hardware_threads = std::thread::hardware_concurrency();
  bool headline_ok = true;
  if (hardware_threads >= 4) {
    headline_ok = speedup_median >= 3.0;
    std::printf("scheduler speedup at 4 streams / 4 workers: median %.2fx of "
                "%d trials (quartiles %.2fx / %.2fx) (gate: >= 3.0) -- %s\n",
                speedup_median, kSchedulerTrials, speedup_p25, speedup_p75,
                headline_ok ? "OK" : "FAIL");
  } else {
    std::printf("scheduler speedup at 4 streams / 4 workers: median %.2fx of "
                "%d trials -- gate skipped: only %u hardware thread(s); "
                "wall-clock parallel speedup is unmeasurable here\n",
                speedup_median, kSchedulerTrials, hardware_threads);
  }
  std::printf("bitwise identity across worker counts: %s\n",
              sweep_identical ? "yes" : "NO");

  BenchJson json("appd_multistream");
  json.Set("streams", static_cast<double>(jobs.size()));
  json.Set("threads", static_cast<double>(pool.num_threads()));
  json.Set("offline_parallel_wall_s", offline_s);
  json.Set("engines_serial_wall_s", serial_s);
  json.Set("engines_concurrent_wall_s", concurrent_s);
  json.Set("engines_speedup", engine_speedup);
  json.Set("results_identical", all_identical ? "yes" : "no");
  json.Set("joint_mean_quality", joint_quality);
  json.Set("independent_mean_quality", indep_quality);
  json.Set("joint_quality_delta", joint_quality - indep_quality);
  json.Set("joint_cloud_usd", joint_usd);
  json.Set("independent_cloud_usd", indep_usd);
  json.Set("joint_wall_s", joint_s);
  json.Set("independent_wall_s", indep_s);
  json.Set("streamset_independent_parity", streamset_parity ? "yes" : "no");
  json.Set("flash_crowd_joint_mean_quality", fc_joint_q);
  json.Set("flash_crowd_independent_mean_quality", fc_indep_q);
  json.Set("flash_crowd_joint_quality_delta", fc_joint_q - fc_indep_q);
  json.Set("flash_crowd_joint_cloud_usd", fc_joint_usd);
  json.Set("flash_crowd_independent_cloud_usd", fc_indep_usd);
  json.Set("hardware_threads", static_cast<double>(hardware_threads));
  for (const auto& [key, value] : sweep_metrics) json.Set(key, value);
  json.Set("scheduler_trials", static_cast<double>(kSchedulerTrials));
  scheduler->SetTrials(&json, "scheduler_wall_1_worker_s",
                       "scheduler_wall_4_workers_s", "scheduler_speedup");
  json.Set("scheduler_speedup_p25", speedup_p25);
  json.Set("scheduler_speedup_median", speedup_median);
  json.Set("scheduler_speedup_p75", speedup_p75);
  json.Set("sweep_bitwise_identical", sweep_identical ? "yes" : "no");
  json.Set("speedup_gate",
           hardware_threads >= 4 ? (headline_ok ? "pass" : "fail") : "skipped");
  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics written to %s\n", path.c_str());
  return all_identical && streamset_parity && sweep_identical && headline_ok
             ? 0
             : 1;
}
