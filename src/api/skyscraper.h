#ifndef SKYSCRAPER_API_SKYSCRAPER_H_
#define SKYSCRAPER_API_SKYSCRAPER_H_

#include <memory>
#include <optional>
#include <string>

#include "core/engine.h"
#include "core/multi_stream.h"
#include "core/offline.h"
#include "core/workload.h"
#include "sim/cluster_sim.h"
#include "sim/cost_model.h"
#include "util/result.h"

namespace sky::api {

/// Hardware provisioning for a Skyscraper deployment — the three resource
/// types of §1: an always-on local cluster, a bounded video buffer, and an
/// on-demand cloud budget.
struct Resources {
  /// Cores of the always-on on-premise cluster.
  int cores = 8;
  /// Capacity of the video buffer that absorbs load bursts (§4.2).
  uint64_t buffer_bytes = 4ull << 30;
  /// Cloud credits granted per planned interval (e.g. per 2 days), USD.
  double cloud_budget_usd_per_interval = 0.0;
  /// Uplink bandwidth to the cloud (bytes shipped by cloud placements).
  double uplink_bytes_per_s = 12.5e6;
  /// Downlink bandwidth from the cloud.
  double downlink_bytes_per_s = 25.0e6;
  /// Cloud-to-on-premise compute price ratio (Appendix L).
  double cloud_to_onprem_cost_ratio = 1.8;
};

/// The user-facing facade, mirroring the Appendix F API:
///
///   workloads::EvCountingWorkload job;        // UDFs + knobs (user code)
///   api::Skyscraper sky(&job);
///   sky.SetResources({.cores = 8, .buffer_bytes = 4ull << 30,
///                     .cloud_budget_usd_per_interval = 5.0});
///   auto fit = sky.Fit();                      // offline phase (§3)
///
///   // Batch: ingest a fixed window in one blocking call.
///   auto run = sky.Ingest(Days(16), {.duration = Days(1)});  // online (§4)
///
///   // Streaming: the started engine, steppable with pause/inspect/resume
///   // and checkpoint/restore — same engine, same (bitwise) results.
///   auto engine = sky.StartIngest(Days(16), {.duration = Days(1)});
///   while (!(*engine)->Done()) (*engine)->Step();
///
/// Train-once / serve-many: the expensive offline fit can be persisted and
/// reloaded, so serving processes never pay Table-3 retraining:
///
///   sky.Fit();  sky.SaveModel("model.bin");    // training process
///   ...
///   api::Skyscraper serve(&job);               // serving process
///   serve.SetResources(same_resources);
///   serve.LoadModel("model.bin");              // instead of Fit()
///   serve.Ingest(Days(16), {.duration = Days(1)});  // == fit-and-ingest,
///                                                   //    bitwise
///
/// (The `sky` CLI in tools/sky_cli.cc wraps exactly this flow as the
/// `sky offline` and `sky ingest` subcommands.)
///
/// The workload object plays the role of the registered UDFs, knobs and
/// quality metric of the Python snippet; CallbackWorkload (see
/// callback_workload.h) builds one from plain std::functions.
///
/// EngineOptions fields the caller sets explicitly always win; only
/// provisioning fields left unset (buffer_bytes, cloud budget) are filled
/// in from the Resources given to SetResources. In particular an explicit
/// `cloud_budget_usd_per_interval = 0.0` disables cloud bursting even when
/// the provisioned Resources grant credits.
class Skyscraper {
 public:
  /// Binds the facade to a workload (borrowed, not owned: the workload must
  /// outlive this object and every engine started from it). Starts with
  /// default Resources and no fitted model.
  explicit Skyscraper(const core::Workload* workload);

  /// (Re)provisions the deployment hardware. Discards any fitted or loaded
  /// model — the profiled placements are only valid for the cluster they
  /// were profiled on — so call this BEFORE Fit() or LoadModel(). Engines
  /// started under the previous provisioning are invalidated.
  void SetResources(const Resources& resources);

  /// Runs the offline preparation phase (§3) on the provisioned hardware.
  /// Blocking and expensive (Table 3); on success fitted() turns true and
  /// the model can be served or persisted with SaveModel().
  Status Fit(const core::OfflineOptions& options = {});

  /// Persists the fitted model to `path` in the versioned binary format of
  /// docs/model_format.md (magic, chunk table, checksum; exact double
  /// round-tripping). `annotation` is stored verbatim — conventionally the
  /// workload name, which the sky CLI checks at load time. Returns
  /// kFailedPrecondition when no model is fitted or loaded.
  Status SaveModel(const std::string& path,
                   const std::string& annotation = "") const;

  /// Loads a model saved by SaveModel(), replacing any current model: the
  /// train-once / serve-many substitute for Fit(). On success fitted()
  /// turns true and ingestion behaves bitwise-identically to running on
  /// the originally fitted model. On any error (missing file, corruption,
  /// version mismatch, annotation mismatch) the facade keeps its previous
  /// model untouched.
  ///
  /// Preconditions and caveats:
  ///  - The file's placement profiles assume the hardware it was trained
  ///    on; provision the same Resources before loading (SetResources()
  ///    AFTER LoadModel() discards the loaded model, like it discards a
  ///    fit).
  ///  - A non-empty `expected_annotation` must equal the stored annotation
  ///    (kInvalidArgument otherwise) — the guard the CLI uses to refuse a
  ///    model trained for a different workload.
  Status LoadModel(const std::string& path,
                   const std::string& expected_annotation = "");

  /// Ingests live video starting at `start_time` into the content process,
  /// blocking until the whole duration is processed. Requires a successful
  /// Fit() or LoadModel(). Steps the engine StartIngest returns to the end
  /// — bitwise-identical to driving that engine incrementally.
  Result<core::EngineResult> Ingest(SimTime start_time,
                                    core::EngineOptions options = {}) const;

  /// The ingestion engine of MakeStreamJob's job, started at `start_time`
  /// and positioned at its first segment: step it, inspect it, checkpoint
  /// and restore it (core::IngestionEngine). Requires a successful Fit() or
  /// LoadModel(). The engine borrows this object's workload, model and
  /// provisioning: it must not outlive this Skyscraper, a re-Fit(), a
  /// LoadModel(), or a SetResources() call.
  Result<std::unique_ptr<core::IngestionEngine>> StartIngest(
      SimTime start_time, core::EngineOptions options = {}) const;

  /// Packages this facade's workload, model and provisioning as ONE stream
  /// of a multi-stream deployment — the unit a core::StreamSet schedules.
  /// Build one facade per camera, Fit() (or LoadModel()) each, collect their
  /// jobs, and hand them to StreamSet::Create for jointly planned,
  /// fleet-scale ingestion:
  ///
  ///   std::vector<core::StreamEngineJob> jobs;
  ///   for (auto& cam : cameras) jobs.push_back(*cam.sky.MakeStreamJob(t0));
  ///   auto set = core::StreamSet::Create(std::move(jobs));
  ///   set->RunToCompletion(&pool);
  ///
  /// Options fields the caller left unset fill in from the provisioned
  /// Resources; explicit values (even 0.0) always win. The job borrows this
  /// object's workload and model — the same lifetime rules as a started
  /// engine. Requires a successful Fit() or LoadModel().
  Result<core::StreamEngineJob> MakeStreamJob(
      SimTime start_time, core::EngineOptions options = {}) const;

  /// True once Fit() or LoadModel() has installed a model.
  bool fitted() const { return model_.has_value(); }

  /// The fitted (or loaded) offline model; kFailedPrecondition before a
  /// successful Fit()/LoadModel() (never dereferences an empty fit).
  Result<const core::OfflineModel*> model() const;

  /// The on-premise cluster derived from the provisioned Resources.
  const sim::ClusterSpec& cluster() const { return cluster_; }

  /// The Appendix-L cost model derived from the provisioned Resources.
  const sim::CostModel& cost_model() const { return cost_model_; }

 private:
  const core::Workload* workload_;
  Resources resources_;
  sim::ClusterSpec cluster_;
  sim::CostModel cost_model_;
  std::optional<core::OfflineModel> model_;
};

/// The start day and plan interval, in days, of a run served from `model`.
/// `sky ingest` and `sky serve` resolve what their callers leave unset by
/// this one rule: a negative start is the model's training horizon, so
/// serving begins where training ended; a plan interval that is not
/// positive is the span the forecaster was trained to predict, or 2 days
/// without a forecaster, since planning at another cadence silently
/// degrades. Any other value, NaN included, passes through for
/// IngestionEngine::Start to judge.
struct ServedSchedule {
  double start_days = 0.0;
  double plan_interval_days = 0.0;
};
ServedSchedule ResolveServedSchedule(const core::OfflineModel& model,
                                     double start_days,
                                     double plan_interval_days);

}  // namespace sky::api

#endif  // SKYSCRAPER_API_SKYSCRAPER_H_
