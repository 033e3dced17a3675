#include "api/skyscraper.h"

#include <memory>
#include <string>
#include <utility>

#include "io/model_io.h"

namespace sky::api {

Skyscraper::Skyscraper(const core::Workload* workload)
    : workload_(workload), cost_model_(1.8) {
  SetResources(Resources{});
}

void Skyscraper::SetResources(const Resources& resources) {
  resources_ = resources;
  cluster_.cores = resources.cores;
  cluster_.uplink_bytes_per_s = resources.uplink_bytes_per_s;
  cluster_.downlink_bytes_per_s = resources.downlink_bytes_per_s;
  cost_model_ = sim::CostModel(resources.cloud_to_onprem_cost_ratio);
  // Changing the provisioning invalidates the profiled placements.
  model_.reset();
}

Status Skyscraper::Fit(const core::OfflineOptions& options) {
  SKY_ASSIGN_OR_RETURN(
      core::OfflineModel model,
      core::RunOfflinePhase(*workload_, cluster_, cost_model_, options));
  model_.emplace(std::move(model));
  return Status::Ok();
}

Status Skyscraper::SaveModel(const std::string& path,
                             const std::string& annotation) const {
  if (!model_.has_value()) {
    return Status::FailedPrecondition(
        "call Fit() or LoadModel() before SaveModel()");
  }
  return io::SaveOfflineModel(*model_, path, annotation);
}

Status Skyscraper::LoadModel(const std::string& path,
                             const std::string& expected_annotation) {
  std::string annotation;
  auto loaded = io::LoadOfflineModel(path, &annotation);
  if (!loaded.ok()) return loaded.status();
  if (!expected_annotation.empty() && annotation != expected_annotation) {
    // Distinct from a corrupt file (kInvalidArgument): the bytes parsed
    // fine, the model is just for a different job. Callers (the sky CLI's
    // exit codes among them) key off the difference.
    return Status::FailedPrecondition(
        "model file was saved for '" + annotation + "', expected '" +
        expected_annotation + "'");
  }
  // Only after every check passes does the current model get replaced: a
  // failed load never leaves the facade with partial state.
  model_.emplace(std::move(loaded).value());
  return Status::Ok();
}

Result<const core::OfflineModel*> Skyscraper::model() const {
  if (!model_.has_value()) {
    return Status::FailedPrecondition(
        "call Fit() or LoadModel() before model()");
  }
  return &*model_;
}

Result<core::StreamEngineJob> Skyscraper::MakeStreamJob(
    SimTime start_time, core::EngineOptions options) const {
  if (!model_.has_value()) {
    return Status::FailedPrecondition(
        "call Fit() or LoadModel() before ingesting");
  }
  // Fill in provisioning only where the caller expressed no opinion: an
  // explicitly set buffer size or cloud budget (even an explicit 0.0,
  // disabling bursting) always wins over the Resources defaults.
  if (!options.buffer_bytes.has_value()) {
    options.buffer_bytes = resources_.buffer_bytes;
  }
  if (!options.cloud_budget_usd_per_interval.has_value()) {
    options.cloud_budget_usd_per_interval =
        resources_.cloud_budget_usd_per_interval;
  }
  core::StreamEngineJob job;
  job.workload = workload_;
  job.model = &*model_;
  job.cluster = cluster_;
  job.cost_model = &cost_model_;
  job.options = std::move(options);
  job.start_time = start_time;
  return job;
}

Result<std::unique_ptr<core::IngestionEngine>> Skyscraper::StartIngest(
    SimTime start_time, core::EngineOptions options) const {
  SKY_ASSIGN_OR_RETURN(core::StreamEngineJob job,
                       MakeStreamJob(start_time, std::move(options)));
  auto engine = std::make_unique<core::IngestionEngine>(
      job.workload, job.model, job.cluster, job.cost_model,
      std::move(job.options));
  SKY_RETURN_NOT_OK(engine->Start(job.start_time));
  return engine;
}

Result<core::EngineResult> Skyscraper::Ingest(
    SimTime start_time, core::EngineOptions options) const {
  SKY_ASSIGN_OR_RETURN(std::unique_ptr<core::IngestionEngine> engine,
                       StartIngest(start_time, std::move(options)));
  while (!engine->Done()) {
    SKY_RETURN_NOT_OK(engine->Step());
  }
  return engine->partial_result();
}

ServedSchedule ResolveServedSchedule(const core::OfflineModel& model,
                                     double start_days,
                                     double plan_interval_days) {
  ServedSchedule schedule{start_days, plan_interval_days};
  if (start_days < 0.0) schedule.start_days = model.train_horizon / 86400.0;
  if (plan_interval_days <= 0.0) {
    schedule.plan_interval_days =
        model.forecaster.has_value()
            ? model.forecaster->options().planned_interval / 86400.0
            : 2.0;
  }
  return schedule;
}

}  // namespace sky::api
