// Multi-stream deployment (paper Appendix D): several cameras share one
// server and one cloud-credit budget. A core::StreamSet multiplexes the
// three ingestion sessions on one shared clock and — in joint mode — runs
// the joint knob planner (Eqs. 7-9) live at every lockstep plan boundary,
// so credits flow to the streams where expensive configurations matter
// most. Independent mode keeps the even-split baseline: each stream plans
// alone on its own share (exactly what running the engines separately would
// do).
//
// Three cameras run the EV-counting job: a quiet residential camera, a
// normal street, and a busy intersection. Each stream keeps its own content
// categories and forecaster; only the planning program is joint.

#include <cstdio>
#include <iostream>

#include "core/multi_stream.h"
#include "core/offline.h"
#include "dag/thread_pool.h"
#include "util/table.h"
#include "workloads/ev_counting.h"

int main() {
  std::printf(
      "Jointly-planned multi-stream ingestion, three cameras (Appendix D)\n");

  // Three streams with different content mixes (different seeds shift the
  // diurnal noise/events, so the hard-content share differs per camera).
  sky::workloads::EvCountingWorkload quiet(9001);
  sky::workloads::EvCountingWorkload normal(9002);
  sky::workloads::EvCountingWorkload busy(9003);
  std::vector<sky::core::Workload*> streams = {&quiet, &normal, &busy};
  std::vector<const char*> names = {"residential", "street", "intersection"};

  sky::sim::ClusterSpec cluster;
  cluster.cores = 6;  // shared server, deliberately tight (2 cores/stream)
  sky::sim::CostModel cost_model(1.8);
  int fair_cores = sky::core::FairCoreShare(cluster.cores, streams.size());
  std::printf("shared server: %d cores -> %d per stream (fair share)\n",
              cluster.cores, fair_cores);

  // Per-stream offline phases (independent, Appendix D): one stream per
  // pool slot, and each phase's internal steps fan out on the same pool.
  sky::dag::ThreadPool pool(sky::dag::DefaultThreadCount());
  std::vector<sky::core::OfflineModel> models(streams.size());
  std::vector<sky::Status> statuses(streams.size(), sky::Status::Ok());
  sky::dag::ParallelFor(&pool, streams.size(), [&](size_t v) {
    sky::core::OfflineOptions offline;
    offline.segment_seconds = 4.0;
    offline.train_horizon = sky::Days(4);
    offline.num_categories = 3;
    offline.forecaster.input_span = sky::Days(1);
    offline.forecaster.planned_interval = sky::Hours(6);
    offline.pool = &pool;
    sky::sim::ClusterSpec share = cluster;
    share.cores = fair_cores;
    auto model =
        sky::core::RunOfflinePhase(*streams[v], share, cost_model, offline);
    if (model.ok()) {
      models[v] = std::move(*model);
    } else {
      statuses[v] = model.status();
    }
  });
  for (const sky::Status& s : statuses) {
    if (!s.ok()) {
      std::printf("offline failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // One ingestion job per camera: six hours of live video, a 6-hour plan
  // interval, fifty cents of cloud credits per stream and interval. The
  // same jobs drive both planning modes.
  std::vector<sky::core::StreamEngineJob> jobs;
  for (size_t v = 0; v < streams.size(); ++v) {
    sky::core::StreamEngineJob job;
    job.workload = streams[v];
    job.model = &models[v];
    job.cluster = cluster;
    job.cluster.cores = fair_cores;
    job.cost_model = &cost_model;
    job.options.duration = sky::Hours(6);
    job.options.plan_interval = sky::Hours(6);
    job.options.cloud_budget_usd_per_interval = 0.5;
    job.start_time = sky::Days(4);
    jobs.push_back(job);
  }

  // Joint mode: the StreamSet intercepts the lockstep plan boundary and
  // solves ONE program across all streams under the pooled budget.
  sky::core::StreamSetOptions joint_opts;
  joint_opts.planning = sky::core::MultiStreamPlanning::kJoint;
  auto joint = sky::core::StreamSet::Create(jobs, joint_opts);
  if (!joint.ok()) {
    std::printf("joint set failed: %s\n", joint.status().ToString().c_str());
    return 1;
  }

  // Step the set one segment at a time for one hour of the shared clock,
  // then look inside the live sessions: the jointly-computed plans are
  // already steering each stream's switcher. (RunToCompletion's boundary
  // callback pauses only at plan boundaries, and the 6-hour interval puts
  // none inside this run.)
  const sky::SimTime pause_at = jobs[0].start_time + sky::Hours(1);
  while (joint->engine(0)->CurrentTime() < pause_at) {
    if (!joint->Step().ok()) return 1;
  }
  sky::TablePrinter live("Joint plans after 1 h of shared-clock stepping");
  live.SetHeader({"stream", "plan expected quality", "plan expected work",
                  "partial mean quality"});
  for (size_t v = 0; v < joint->num_streams(); ++v) {
    const sky::core::KnobPlan* plan = joint->engine(v)->current_plan();
    live.AddRow({names[v], sky::TablePrinter::Pct(plan->expected_quality),
                 sky::TablePrinter::Fmt(plan->expected_work, 2),
                 sky::TablePrinter::Pct(
                     joint->engine(v)->partial_result().mean_quality)});
  }
  live.Print(std::cout);

  // Finish the day and run the even-split baseline on the same jobs.
  if (!joint->RunToCompletion(&pool).ok()) return 1;
  sky::core::StreamSetOptions indep_opts;
  indep_opts.planning = sky::core::MultiStreamPlanning::kIndependent;
  auto indep = sky::core::StreamSet::Create(jobs, indep_opts);
  if (!indep.ok() || !indep->RunToCompletion(&pool).ok()) {
    std::printf("independent set failed\n");
    return 1;
  }

  auto joint_results = joint->Results();
  auto indep_results = indep->Results();
  sky::TablePrinter table(
      "Six hours of ingestion: joint vs independent planning");
  table.SetHeader({"stream", "joint quality", "independent quality",
                   "joint cloud $", "independent cloud $"});
  double joint_q = 0.0, indep_q = 0.0;
  for (size_t v = 0; v < jobs.size(); ++v) {
    if (!joint_results[v].ok() || !indep_results[v].ok()) {
      std::printf("stream %zu failed\n", v);
      return 1;
    }
    joint_q += joint_results[v]->mean_quality;
    indep_q += indep_results[v]->mean_quality;
    table.AddRow(
        {names[v], sky::TablePrinter::Pct(joint_results[v]->mean_quality),
         sky::TablePrinter::Pct(indep_results[v]->mean_quality),
         sky::TablePrinter::Fmt(joint_results[v]->cloud_usd, 2),
         sky::TablePrinter::Fmt(indep_results[v]->cloud_usd, 2)});
  }
  table.Print(std::cout);
  std::printf(
      "\nmean quality across streams: joint %s vs independent %s\n"
      "(the joint program re-divides the pooled budget at every lockstep\n"
      "boundary to maximize the forecast-weighted expected quality SUM —\n"
      "note the cloud credits concentrating on the camera whose hard\n"
      "content gains the most; normalization still holds per stream and\n"
      "category, Eq. 9)\n",
      sky::TablePrinter::Pct(joint_q / jobs.size()).c_str(),
      sky::TablePrinter::Pct(indep_q / jobs.size()).c_str());
  return 0;
}
