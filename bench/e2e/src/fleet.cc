// fleet-steady and fleet-replan: EV cameras in one joint-mode StreamSet on
// 4 workers (the caller plus 3 pool threads), sharing 4 forecaster-trained
// models round-robin.
//
//  - fleet-steady: 128 cameras x 2 days on a 1-day plan interval. The
//    per-segment hot path under the sharded scheduler; boundaries are a few
//    percent of wall, so scheduler and hot-path gains show, boundary gains
//    do not.
//  - fleet-replan: 256 cameras x 6 h on a 15-minute lockstep cadence with
//    forecasters trained for 15 minutes. The serial plan-boundary window
//    (online fine-tune, forecast, joint solve, install) dominates.
//
// The traced pass cannot look inside StreamSet, so it reproduces the joint
// protocol through public hooks — PrepareBoundary in stream order,
// JointPlanner::Plan on the derived budget, the pooled-credit split,
// InstallPlan — with intervals fanned out under the same v % workers
// affinity, and must match the untraced StreamSet results bitwise.

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/multi_stream.h"
#include "dag/thread_pool.h"
#include "workloads/ev_counting.h"

namespace sky::e2e {
namespace {

constexpr size_t kModels = 4;
// Fixed training footage: every --seed ingests under the same models.
constexpr uint64_t kTrainSeed = 7100;
constexpr size_t kPoolThreads = 3;
constexpr SimTime kTestStart = Days(16);
constexpr double kSegmentSeconds = 2.0;

struct FleetShape {
  size_t cameras;
  SimTime duration;
  SimTime interval;
};

class Fleet : public Bench {
 public:
  Fleet(const BenchConfig& config, bool replan)
      : config_(config),
        shape_(replan ? FleetShape{256, Hours(6), Minutes(15)}
                      : FleetShape{128, Days(2), Days(1)}),
        cost_model_(1.8),
        pool_(kPoolThreads) {
    if (config.smoke) shape_.cameras /= 20;
    cluster_.cores = 4;
    for (size_t v = 0; v < shape_.cameras; ++v) {
      cameras_.push_back(std::make_unique<workloads::EvCountingWorkload>(
          DeriveSeed(config.seed, "ev-camera", v)));
    }
    for (size_t m = 0; m < kModels; ++m) {
      trains_.push_back(
          std::make_unique<workloads::EvCountingWorkload>(kTrainSeed + m));
    }
  }

  void ReleaseSetup() override {
    models_.clear();
    runtimes_ = {};
  }

  Status Setup() override {
    for (size_t m = 0; m < kModels; ++m) {
      Result<core::OfflineModel> model = FitModel(
          *trains_[m], kSegmentSeconds, shape_.interval, cluster_, cost_model_,
          &pool_);
      SKY_RETURN_NOT_OK(model.status());
      AddStepRuntimes(model->step_runtimes, &runtimes_);
      models_.push_back(std::move(*model));
    }
    return Status::Ok();
  }

  core::OfflineStepRuntimes step_runtimes() const override { return runtimes_; }

  Status WarmUp() override {
    std::vector<core::StreamEngineJob> jobs =
        Jobs(std::max<size_t>(1, shape_.cameras / 10), RawWorkloads());
    Result<core::StreamSet> set = core::StreamSet::Create(std::move(jobs));
    SKY_RETURN_NOT_OK(set.status());
    return set->RunToCompletion(&pool_);
  }

  Iteration RunUntraced() override {
    Iteration it;
    it.attempted = shape_.cameras;
    std::vector<core::StreamEngineJob> jobs =
        Jobs(shape_.cameras, RawWorkloads());
    double t0 = WallNow();
    double c0 = CpuNow();
    // The fleet is the job: every camera is due at once, admitted when the
    // first joint boundary has installed its plans, done when the last
    // camera finishes.
    Result<core::StreamSet> set = core::StreamSet::Create(std::move(jobs));
    Status st = set.status();
    if (st.ok()) st = set->Step();
    it.admit_ms.push_back(1e3 * (WallNow() - t0));
    if (st.ok()) st = set->RunToCompletion(&pool_);
    it.wall_s = WallNow() - t0;
    it.cpu_s = CpuNow() - c0;
    it.session_s.push_back(it.wall_s);
    if (!st.ok()) {
      it.failed = it.attempted;
      it.error = "fleet run: " + st.ToString();
      return it;
    }
    std::vector<core::EngineResult> results;
    for (const Result<core::EngineResult>& r : set->Results()) {
      if (r.ok()) {
        results.push_back(*r);
      } else {
        ++it.failed;
        it.error = "stream failed: " + r.status().ToString();
      }
    }
    AddResults(results, kSegmentSeconds, &it);
    it.boundary_ms = set->boundary_latencies_ms();
    last_results_ = std::move(results);
    return it;
  }

  Iteration RunTraced(LayerTotals* totals, std::vector<Span>* spans) override {
    Iteration it;
    const size_t n = shape_.cameras;
    it.attempted = n;
    spans->clear();

    std::vector<std::unique_ptr<CountingWorkload>> counted;
    std::vector<const core::Workload*> workloads;
    for (size_t v = 0; v < n; ++v) {
      counted.push_back(std::make_unique<CountingWorkload>(cameras_[v].get()));
      workloads.push_back(counted.back().get());
    }
    std::vector<core::StreamEngineJob> jobs = Jobs(n, workloads);

    double t0 = WallNow();
    double c0 = CpuNow();
    std::vector<std::unique_ptr<core::IngestionEngine>> engines(n);
    std::vector<Status> status(n);
    for (size_t v = 0; v < n; ++v) {
      const core::StreamEngineJob& job = jobs[v];
      engines[v] = std::make_unique<core::IngestionEngine>(
          job.workload, job.model, job.cluster, job.cost_model, job.options);
      status[v] = engines[v]->Start(job.start_time);
    }
    totals->start_s += WallNow() - t0;
    auto active = [&](size_t v) {
      return status[v].ok() && !engines[v]->Done();
    };

    const size_t workers = std::min(1 + pool_.num_threads(), n);
    std::vector<double> busy_start(workers), busy(workers);
    std::vector<double> step_s(workers, 0.0), steps(workers, 0.0);
    auto worker = [&](size_t w) {
      double w0 = WallNow();
      double spans_s = 0.0;
      double count = 0.0;
      for (size_t v = w; v < n; v += workers) {
        if (!active(v)) continue;
        core::IngestionEngine& e = *engines[v];
        do {
          double s0 = WallNow();
          Status st = e.Step();
          spans_s += WallNow() - s0;
          count += 1;
          if (!st.ok()) {
            status[v] = st;
            break;
          }
        } while (!e.Done() && !e.AtPlanBoundary());
      }
      busy_start[w] = w0;
      busy[w] = WallNow() - w0;
      step_s[w] += spans_s;
      steps[w] += count;
    };

    core::JointPlanner planner;
    std::vector<core::StreamPlanInput> inputs;
    std::vector<size_t> planned;
    std::vector<core::KnobPlan> plans;
    const size_t boundaries_per_run =
        static_cast<size_t>(std::ceil(shape_.duration / shape_.interval));
    size_t boundary = 0;
    double probe_s = 0.0;
    for (;;) {
      bool any_active = false;
      for (size_t v = 0; v < n; ++v) {
        if (!active(v)) continue;
        any_active = true;
        if (!engines[v]->AtPlanBoundary()) {
          it.error = "streams fell out of lockstep plan boundaries";
        }
      }
      if (!any_active || !it.error.empty()) break;

      // --- The serial boundary window (StreamSet::JointPlanBoundaryIfDue).
      double b0 = WallNow();
      inputs.clear();
      planned.clear();
      double derived_budget = 0.0;
      for (size_t v = 0; v < n; ++v) {
        if (!active(v)) continue;
        double p0 = WallNow();
        Status prepared = engines[v]->PrepareBoundary();
        totals->prepare_s += WallNow() - p0;
        totals->prepare_calls += 1;
        if (!prepared.ok()) {
          status[v] = prepared;
          continue;
        }
        core::StreamPlanInput in;
        in.categories = &jobs[v].model->categories;
        in.forecast = engines[v]->boundary_forecast();
        in.config_costs = engines[v]->config_costs();
        inputs.push_back(std::move(in));
        planned.push_back(v);
        derived_budget += engines[v]->PlanBudgetCoreSPerVideoS();
      }
      if (!planned.empty()) {
        double s0 = WallNow();
        Status solved = planner.Plan(inputs, derived_budget, &plans);
        totals->solve_s += WallNow() - s0;
        totals->solves += 1;
        totals->groups_rebuilt +=
            static_cast<double>(planner.last_groups_rebuilt());
        totals->groups_rescaled +=
            static_cast<double>(planner.last_groups_rescaled());
        InstallPlans(solved, jobs, planned, &plans, &engines, &status, totals);
      }
      double b1 = WallNow();
      totals->boundary_window_s += b1 - b0;
      totals->boundaries += 1;
      spans->push_back({"boundary", 0, b0, b1 - b0});
      ++boundary;
      if (boundary == boundaries_per_run / 2 + 1 && !checkpoint_probed_) {
        double p0 = WallNow();
        std::vector<const core::IngestionEngine*> live;
        for (const auto& e : engines) live.push_back(e.get());
        Status probed = ProbeCheckpoint(live, &io_);
        if (!probed.ok()) it.error = "checkpoint probe: " + probed.ToString();
        checkpoint_probed_ = true;
        probe_s += WallNow() - p0;
      }

      // --- One plan interval, fanned out with v % workers affinity.
      double i0 = WallNow();
      std::vector<std::future<void>> joined;
      for (size_t w = 1; w < workers; ++w) {
        joined.push_back(pool_.SubmitWithFuture([&worker, w] { worker(w); }));
      }
      worker(0);
      for (std::future<void>& f : joined) f.get();
      double interval_s = WallNow() - i0;
      double max_busy = 0.0;
      double sum_busy = 0.0;
      for (size_t w = 0; w < workers; ++w) {
        max_busy = std::max(max_busy, busy[w]);
        sum_busy += busy[w];
        totals->idle_s += interval_s - busy[w];
        spans->push_back({"interval", w, busy_start[w], busy[w]});
      }
      totals->worker_busy_s += sum_busy;
      totals->straggler_max_s += max_busy;
      totals->straggler_mean_s += sum_busy / static_cast<double>(workers);
    }
    it.wall_s = WallNow() - t0 - probe_s;
    it.cpu_s = CpuNow() - c0;
    for (size_t w = 0; w < workers; ++w) {
      totals->steps_s += step_s[w];
      totals->steps += steps[w];
      totals->step_spans += steps[w];
    }
    for (const auto& c : counted) c->AddCountsTo(totals);
    totals->wall_s += it.wall_s;
    totals->workers = workers;
    totals->configs = models_[0].configs.size();
    totals->iterations += 1;

    std::vector<core::EngineResult> results;
    for (size_t v = 0; v < n; ++v) {
      if (status[v].ok() && engines[v]->Done()) {
        results.push_back(engines[v]->partial_result());
      } else {
        ++it.failed;
        if (it.error.empty()) {
          it.error = "traced stream " + std::to_string(v) + " failed: " +
                     status[v].ToString();
        }
      }
    }
    AddResults(results, kSegmentSeconds, &it);
    if (it.error.empty() && !ResultsIdentical(results, last_results_)) {
      it.error = "traced fleet results differ from the untraced StreamSet";
    }
    return it;
  }

  Status ProbeLayers(ReplayCosts* replay, IoProbe* io) override {
    const core::OfflineModel& model = models_[0];
    const int64_t first = static_cast<int64_t>(kTestStart / kSegmentSeconds);
    const int64_t segments =
        static_cast<int64_t>(shape_.duration / kSegmentSeconds);
    *replay = MeasureReplayCosts(*cameras_[0], model, first,
                                 std::min<int64_t>(segments, 20000));
    IoProbe probe = io_;
    SKY_RETURN_NOT_OK(
        ProbeModelLoad(model, config_.out_dir + "/fleet.model", &probe));
    *io = probe;
    return Status::Ok();
  }

 private:
  std::vector<const core::Workload*> RawWorkloads() const {
    std::vector<const core::Workload*> out;
    for (const auto& c : cameras_) out.push_back(c.get());
    return out;
  }

  std::vector<core::StreamEngineJob> Jobs(
      size_t n, const std::vector<const core::Workload*>& workloads) const {
    std::vector<core::StreamEngineJob> jobs;
    for (size_t v = 0; v < n; ++v) {
      core::StreamEngineJob job;
      job.workload = workloads[v];
      job.model = &models_[v % kModels];
      job.cluster = cluster_;
      job.cost_model = &cost_model_;
      job.options.duration = shape_.duration;
      job.options.plan_interval = shape_.interval;
      job.options.cloud_budget_usd_per_interval = 1.0;
      job.options.seed = DeriveSeed(config_.seed, "ev-engine", v);
      job.start_time = kTestStart;
      jobs.push_back(job);
    }
    return jobs;
  }

  /// The install half of StreamSet's joint boundary: on an infeasible
  /// budget keep each stream's previous plan (all-cheapest on the first
  /// boundary); otherwise split the pooled cloud credits by each plan's
  /// burst need and install. Same arithmetic, same order.
  void InstallPlans(const Status& solved,
                    const std::vector<core::StreamEngineJob>& jobs,
                    const std::vector<size_t>& planned,
                    std::vector<core::KnobPlan>* plans,
                    std::vector<std::unique_ptr<core::IngestionEngine>>* engines,
                    std::vector<Status>* status, LayerTotals* totals) const {
    auto install = [&](size_t v, core::KnobPlan plan,
                       std::optional<double> credits) {
      double i0 = WallNow();
      Status installed = (*engines)[v]->InstallPlan(std::move(plan), credits);
      totals->install_s += WallNow() - i0;
      totals->install_calls += 1;
      if (!installed.ok()) (*status)[v] = installed;
    };
    if (!solved.ok() && solved.code() == StatusCode::kResourceExhausted) {
      for (size_t v : planned) {
        const core::IngestionEngine& e = *(*engines)[v];
        const core::KnobPlan* previous = e.current_plan();
        install(v,
                previous != nullptr ? *previous
                                    : e.FallbackPlan(e.boundary_forecast()),
                std::nullopt);
      }
      return;
    }
    if (!solved.ok()) {
      for (size_t v : planned) (*status)[v] = solved;
      return;
    }
    std::vector<double> needs(planned.size(), 0.0);
    double pooled_credits = 0.0;
    double total_need = 0.0;
    for (size_t idx = 0; idx < planned.size(); ++idx) {
      size_t v = planned[idx];
      const core::EngineOptions& opts = (*engines)[v]->options();
      if (opts.enable_cloud && !(*engines)[v]->CloudOutageNow()) {
        pooled_credits += *opts.cloud_budget_usd_per_interval;
      }
      double burst_core_s =
          std::max(0.0, (*plans)[idx].expected_work -
                            static_cast<double>(jobs[v].cluster.cores)) *
          opts.plan_interval;
      needs[idx] = jobs[v].cost_model->CoreSecondsToUsd(burst_core_s);
      total_need += needs[idx];
    }
    for (size_t idx = 0; idx < planned.size(); ++idx) {
      double allotted;
      if (total_need <= pooled_credits) {
        allotted = needs[idx] + (pooled_credits - total_need) /
                                    static_cast<double>(planned.size());
      } else {
        allotted = pooled_credits * needs[idx] / total_need;
      }
      install(planned[idx], std::move((*plans)[idx]), allotted);
    }
  }

  BenchConfig config_;
  FleetShape shape_;
  sim::ClusterSpec cluster_;
  sim::CostModel cost_model_;
  dag::ThreadPool pool_;
  std::vector<std::unique_ptr<workloads::EvCountingWorkload>> cameras_;
  std::vector<std::unique_ptr<workloads::EvCountingWorkload>> trains_;
  std::vector<core::OfflineModel> models_;
  core::OfflineStepRuntimes runtimes_;
  std::vector<core::EngineResult> last_results_;
  IoProbe io_;
  bool checkpoint_probed_ = false;
};

}  // namespace

std::unique_ptr<Bench> MakeFleet(const BenchConfig& config, bool replan) {
  return std::make_unique<Fleet>(config, replan);
}

}  // namespace sky::e2e
