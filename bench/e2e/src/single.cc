// single-covid: the single-threaded baseline. One fitted COVID model, eight
// cameras ingested back to back on the calling thread (no pool), 8 test
// days each on a 2-day plan interval. Nearly all wall time is the
// per-segment hot path (video synthesis, the ground-truth quality vector,
// the switcher), so this is where per-segment gains show first.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/planner.h"
#include "workloads/covid.h"

namespace sky::e2e {

Result<core::OfflineModel> FitModel(const core::Workload& workload,
                                    double segment_seconds,
                                    SimTime forecast_interval,
                                    const sim::ClusterSpec& cluster,
                                    const sim::CostModel& cost_model,
                                    dag::ThreadPool* pool) {
  core::OfflineOptions opts;
  opts.segment_seconds = segment_seconds;
  opts.train_horizon = Days(16);
  opts.num_categories = 3;
  opts.forecaster.planned_interval = forecast_interval;
  opts.pool = pool;
  opts.num_threads = pool == nullptr ? 1 : 0;
  return core::RunOfflinePhase(workload, cluster, cost_model, opts);
}

Result<core::EngineResult> RunEngineTraced(
    const core::Workload* workload, const core::OfflineModel& model,
    const sim::ClusterSpec& cluster, const sim::CostModel& cost_model,
    const core::EngineOptions& options, SimTime start_time, LayerTotals* totals,
    std::vector<Span>* spans) {
  double t0 = WallNow();
  core::IngestionEngine engine(workload, &model, cluster, &cost_model, options);
  SKY_RETURN_NOT_OK(engine.Start(start_time));
  double t1 = WallNow();
  totals->start_s += t1 - t0;

  core::PlanWorkspace workspace;
  double steps_s = 0.0;
  double steps = 0.0;
  while (!engine.Done()) {
    if (engine.AtPlanBoundary()) {
      // The self-planning boundary of IngestionEngine::Step, through the
      // public hooks: prepare, solve (all-cheapest fallback when nothing
      // fits the budget), install.
      double b0 = WallNow();
      SKY_RETURN_NOT_OK(engine.PrepareBoundary());
      double b1 = WallNow();
      Result<core::KnobPlan> plan = core::ComputeKnobPlan(
          model.categories, engine.boundary_forecast(), engine.config_costs(),
          engine.PlanBudgetCoreSPerVideoS(), engine.options().planner_backend,
          &workspace);
      if (!plan.ok()) {
        if (plan.status().code() != StatusCode::kResourceExhausted) {
          return plan.status();
        }
        plan = engine.FallbackPlan(engine.boundary_forecast());
      }
      double b2 = WallNow();
      SKY_RETURN_NOT_OK(engine.InstallPlan(std::move(*plan)));
      double b3 = WallNow();
      totals->prepare_s += b1 - b0;
      totals->solve_s += b2 - b1;
      totals->install_s += b3 - b2;
      totals->boundary_window_s += b3 - b0;
      totals->prepare_calls += 1;
      totals->install_calls += 1;
      totals->solves += 1;
      totals->boundaries += 1;
      totals->boundary_ms.push_back(1e3 * (b3 - b0));
      if (spans != nullptr) spans->push_back({"boundary", 0, b0, b3 - b0});
    }
    double s0 = WallNow();
    SKY_RETURN_NOT_OK(engine.Step());
    steps_s += WallNow() - s0;
    steps += 1;
  }
  totals->steps_s += steps_s;
  totals->steps += steps;
  totals->step_spans += steps;
  if (spans != nullptr) spans->push_back({"engine", 0, t0, WallNow() - t0});
  return engine.partial_result();
}

namespace {

constexpr size_t kCameras = 8;
// The training footage is fixed, so every --seed ingests under the same
// fitted model (the same filtered configuration set, hence the same
// per-segment work); the seed picks the ingested cameras.
constexpr uint64_t kTrainSeed = 1001;
constexpr SimTime kTestStart = Days(16);

class SingleCovid : public Bench {
 public:
  explicit SingleCovid(const BenchConfig& config)
      : config_(config), cost_model_(1.8) {
    cluster_.cores = 4;
    for (size_t c = 0; c < kCameras; ++c) {
      cameras_.push_back(std::make_unique<workloads::CovidWorkload>(
          DeriveSeed(config.seed, "covid-camera", c)));
    }
    train_ = std::make_unique<workloads::CovidWorkload>(kTrainSeed);
    duration_ = config.smoke ? Days(8) / 20 : Days(8);
  }

  void ReleaseSetup() override { model_ = core::OfflineModel{}; }

  Status Setup() override {
    Result<core::OfflineModel> model =
        FitModel(*train_, 4.0, Days(2), cluster_, cost_model_, nullptr);
    SKY_RETURN_NOT_OK(model.status());
    model_ = std::move(*model);
    return Status::Ok();
  }

  core::OfflineStepRuntimes step_runtimes() const override {
    return model_.step_runtimes;
  }

  Status WarmUp() override {
    for (size_t c = 0; c < kCameras; ++c) {
      core::IngestionEngine engine(cameras_[c].get(), &model_, cluster_,
                                   &cost_model_, Options(c, duration_ / 10));
      SKY_RETURN_NOT_OK(engine.Run(kTestStart).status());
    }
    return Status::Ok();
  }

  Iteration RunUntraced() override {
    Iteration it;
    std::vector<core::EngineResult> results;
    double t0 = WallNow();
    double c0 = CpuNow();
    // Closed loop: each camera is due the moment the previous one is done.
    for (size_t c = 0; c < kCameras; ++c) {
      ++it.attempted;
      double due = WallNow();
      core::IngestionEngine engine(cameras_[c].get(), &model_, cluster_,
                                   &cost_model_, Options(c, duration_));
      Status st = engine.Start(kTestStart);
      if (st.ok()) st = engine.Step();  // first plan installed + 1 segment
      it.admit_ms.push_back(1e3 * (WallNow() - due));
      while (st.ok() && !engine.Done()) st = engine.Step();
      it.session_s.push_back(WallNow() - due);
      if (!st.ok()) {
        ++it.failed;
        it.error = "camera " + std::to_string(c) + ": " + st.ToString();
        continue;
      }
      results.push_back(engine.partial_result());
    }
    it.wall_s = WallNow() - t0;
    it.cpu_s = CpuNow() - c0;
    AddResults(results, model_.segment_seconds, &it);
    last_results_ = std::move(results);
    return it;
  }

  Iteration RunTraced(LayerTotals* totals, std::vector<Span>* spans) override {
    Iteration it;
    std::vector<core::EngineResult> results;
    double t0 = WallNow();
    double c0 = CpuNow();
    spans->clear();
    for (size_t c = 0; c < kCameras; ++c) {
      ++it.attempted;
      CountingWorkload counted(cameras_[c].get());
      Result<core::EngineResult> r =
          RunEngineTraced(&counted, model_, cluster_, cost_model_,
                          Options(c, duration_), kTestStart, totals, spans);
      counted.AddCountsTo(totals);
      if (!r.ok()) {
        ++it.failed;
        it.error = "traced camera " + std::to_string(c) + ": " +
                   r.status().ToString();
        continue;
      }
      results.push_back(*r);
    }
    it.wall_s = WallNow() - t0;
    it.cpu_s = CpuNow() - c0;
    totals->wall_s += it.wall_s;
    totals->worker_busy_s += it.wall_s;
    totals->straggler_max_s += it.wall_s;
    totals->straggler_mean_s += it.wall_s;
    totals->configs = model_.configs.size();
    totals->iterations += 1;
    AddResults(results, model_.segment_seconds, &it);
    if (it.error.empty() && !ResultsIdentical(results, last_results_)) {
      it.error = "traced results differ from the untraced run";
    }
    return it;
  }

  Status ProbeLayers(ReplayCosts* replay, IoProbe* io) override {
    const double seg = model_.segment_seconds;
    int64_t segments = static_cast<int64_t>(duration_ / seg);
    *replay = MeasureReplayCosts(*cameras_[0], model_,
                                 static_cast<int64_t>(kTestStart / seg),
                                 std::min<int64_t>(segments, 20000));
    SKY_RETURN_NOT_OK(
        ProbeModelLoad(model_, config_.out_dir + "/single-covid.model", io));
    // Mid-run checkpoint of the one live engine.
    core::IngestionEngine engine(cameras_[0].get(), &model_, cluster_,
                                 &cost_model_, Options(0, duration_));
    SKY_RETURN_NOT_OK(engine.Start(kTestStart));
    SKY_RETURN_NOT_OK(engine.RunUntil(kTestStart + duration_ / 2));
    return ProbeCheckpoint({&engine}, io);
  }

 private:
  core::EngineOptions Options(size_t camera, SimTime duration) const {
    core::EngineOptions opts;
    opts.duration = duration;
    opts.plan_interval = Days(2);
    opts.cloud_budget_usd_per_interval = 2.0;
    opts.seed = DeriveSeed(config_.seed, "covid-engine", camera);
    return opts;
  }

  BenchConfig config_;
  sim::ClusterSpec cluster_;
  sim::CostModel cost_model_;
  std::vector<std::unique_ptr<workloads::CovidWorkload>> cameras_;
  std::unique_ptr<workloads::CovidWorkload> train_;
  SimTime duration_ = 0.0;
  core::OfflineModel model_;
  std::vector<core::EngineResult> last_results_;
};

}  // namespace

std::unique_ptr<Bench> MakeSingleCovid(const BenchConfig& config) {
  return std::make_unique<SingleCovid>(config);
}

}  // namespace sky::e2e
