#ifndef SKYSCRAPER_CORE_ENGINE_H_
#define SKYSCRAPER_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/offline.h"
#include "core/planner.h"
#include "core/switcher.h"
#include "core/workload.h"
#include "sim/cost_model.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace sky::sim {
class FaultInjector;
}  // namespace sky::sim

namespace sky::core {

/// Buffer capacity used when EngineOptions::buffer_bytes is left unset
/// (4 GB, as in Fig. 3).
inline constexpr uint64_t kDefaultBufferBytes = 4ull << 30;

struct EngineOptions {
  /// Length of the ingested live stream.
  SimTime duration = Days(8);
  /// Knob-planner period / forecast horizon (§4.1: "every couple of days").
  SimTime plan_interval = Days(2);
  /// Cloud credits granted per planned interval, USD. Unset means "no
  /// opinion": the engine treats it as 0 and api::Skyscraper fills in the
  /// provisioned Resources value. An explicitly engaged 0.0 disables
  /// bursting economically even when enable_cloud is true — and is never
  /// silently overridden by the facade.
  std::optional<double> cloud_budget_usd_per_interval;
  /// Video buffer capacity. Unset means "no opinion": the engine falls back
  /// to kDefaultBufferBytes and api::Skyscraper fills in the provisioned
  /// Resources value; an explicitly set value always wins.
  std::optional<uint64_t> buffer_bytes;
  bool enable_cloud = true;
  bool enable_buffer = true;
  /// When > 0, overrides the planner budget (cores + cloud credits) with a
  /// pure work budget in core-seconds per video-second — the "computation
  /// budget" abstraction of §2.2 / Appendix B used by the work-quality
  /// sweeps (Figs. 6/8/10/12 and 16).
  double work_budget_override = 0.0;
  /// Unused; kept for bench/e2e/src/single.cc until ROADMAP item 4 step 5.
  PlannerBackend planner_backend = PlannerBackend::kStructured;

  // --- Microbenchmark toggles (all default off) ---
  /// Replace the forecaster output with the realized future distribution
  /// ("Ground truth" in Fig. 14).
  bool use_ground_truth_forecast = false;
  /// Classify content with the full noise-free quality vector ("Ground
  /// truth" in Fig. 15).
  bool use_ground_truth_categories = false;
  /// Classify with the current segment's (not the previous segment's)
  /// reported quality ("No Type-B errors" in Fig. 15).
  bool eliminate_type_b_errors = false;

  bool record_trace = false;
  double trace_resolution_s = 300.0;
  uint64_t seed = 71;

  /// Deterministic fault schedule this run executes under (non-owning; must
  /// outlive the engine). Null — the default — runs fault-free and leaves
  /// every code path bitwise identical to an engine built before faults
  /// existed. The injector is external-world state, not run state: it is
  /// deliberately NOT part of Checkpoint()/Restore(), so a restored run
  /// replays under whatever fault reality the supervisor currently has
  /// installed (one-shot events stay consumed across a restore, which is
  /// what lets a replayed interval get past the fault that killed it).
  sim::FaultInjector* fault_injector = nullptr;
};

/// One sample of the Fig. 3-style time series.
struct TracePoint {
  SimTime t = 0.0;
  double quality = 0.0;               ///< true quality of the active config
  double work_core_s_per_s = 0.0;     ///< instantaneous workload
  double buffer_bytes = 0.0;
  double cloud_usd_cumulative = 0.0;
  double cloud_usd_planned = 0.0;     ///< planned spend up to t
  size_t config_idx = 0;
  size_t category = 0;
};

/// TracePoint's fields, named once, in wire order: calls
/// visit(name, &TracePoint::field) for each (see ForEachResultField).
template <class Visit>
void ForEachTraceField(Visit&& visit) {
  visit("t", &TracePoint::t);
  visit("quality", &TracePoint::quality);
  visit("work_core_s_per_s", &TracePoint::work_core_s_per_s);
  visit("buffer_bytes", &TracePoint::buffer_bytes);
  visit("cloud_usd_cumulative", &TracePoint::cloud_usd_cumulative);
  visit("cloud_usd_planned", &TracePoint::cloud_usd_planned);
  visit("config_idx", &TracePoint::config_idx);
  visit("category", &TracePoint::category);
}

struct EngineResult {
  double total_quality = 0.0;  ///< sum of per-segment true quality
  double mean_quality = 0.0;
  size_t segments = 0;
  double work_core_seconds = 0.0;    ///< total induced work, cost(k) basis
  double onprem_core_seconds = 0.0;  ///< executed on the local server
  double cloud_usd = 0.0;
  uint64_t buffer_high_water_bytes = 0;
  size_t overflow_events = 0;  ///< hard faults (never for valid provisioning)
  size_t switch_count = 0;     ///< configuration changes
  size_t degraded_count = 0;   ///< buffer-forced degradations
  // Switcher accuracy accounting (§5.6).
  size_t misclassified = 0;
  size_t type_a_errors = 0;  ///< one-dimensional-classification errors
  size_t type_b_errors = 0;  ///< timing-mismatch errors
  // Fault accounting (sim::FaultInjector). All zero in a fault-free run;
  // nothing a fault does is silent.
  size_t cloud_failures = 0;  ///< failed cloud upload attempts observed
  size_t cloud_retries = 0;   ///< retried attempts that eventually succeeded
  size_t cloud_giveups = 0;   ///< segments degraded on-prem: retry budget out
  double fault_backoff_s = 0.0;   ///< total retry backoff charged to the lag
  size_t outage_segments = 0;     ///< segments stepped inside an outage window
  size_t outage_intervals = 0;    ///< plan boundaries forced on-prem-only
  size_t udf_stall_segments = 0;  ///< segments slowed by a UDF stall window
  std::vector<TracePoint> trace;

  double MisclassificationRate() const {
    return segments == 0
               ? 0.0
               : static_cast<double>(misclassified) /
                     static_cast<double>(segments);
  }
};

/// EngineResult's fields other than the trace, named once, in wire order:
/// calls visit(name, &EngineResult::field) for each. The wire codec
/// (io::TransferEngineResult, which puts the trace after them),
/// EngineResultsIdentical and the serve metrics document walk this list.
template <class Visit>
void ForEachResultField(Visit&& visit) {
  visit("total_quality", &EngineResult::total_quality);
  visit("mean_quality", &EngineResult::mean_quality);
  visit("segments", &EngineResult::segments);
  visit("work_core_seconds", &EngineResult::work_core_seconds);
  visit("onprem_core_seconds", &EngineResult::onprem_core_seconds);
  visit("cloud_usd", &EngineResult::cloud_usd);
  visit("buffer_high_water_bytes", &EngineResult::buffer_high_water_bytes);
  visit("overflow_events", &EngineResult::overflow_events);
  visit("switch_count", &EngineResult::switch_count);
  visit("degraded_count", &EngineResult::degraded_count);
  visit("misclassified", &EngineResult::misclassified);
  visit("type_a_errors", &EngineResult::type_a_errors);
  visit("type_b_errors", &EngineResult::type_b_errors);
  visit("cloud_failures", &EngineResult::cloud_failures);
  visit("cloud_retries", &EngineResult::cloud_retries);
  visit("cloud_giveups", &EngineResult::cloud_giveups);
  visit("fault_backoff_s", &EngineResult::fault_backoff_s);
  visit("outage_segments", &EngineResult::outage_segments);
  visit("outage_intervals", &EngineResult::outage_intervals);
  visit("udf_stall_segments", &EngineResult::udf_stall_segments);
}

/// True when two engine results are bitwise identical on every field,
/// including the full trace. The parity handle behind the stepped-vs-batch
/// and StreamSet-vs-per-engine-Run guarantees.
bool EngineResultsIdentical(const EngineResult& a, const EngineResult& b);

/// Length of the rolling category history of a run of `model` whose plan
/// intervals are `segs_per_interval` segments: one plan interval, or the
/// forecaster's input span when that is longer. The checkpoint reader
/// refuses a state whose window disagrees.
size_t HistoryWindow(const OfflineModel& model, int64_t segs_per_interval);

/// Categories in the ring an engine keeps for a run of `n_segments` of
/// `model` in plans of `segs_per_interval` (at least 1). PrepareBoundary is
/// the ring's only reader, so it holds what the last boundary reads back:
/// the farthest any read reaches, one window plus one plan interval, or the
/// categories decided before the last boundary,
/// ((n_segments - 1) / segs_per_interval) * segs_per_interval, when those
/// are fewer. With a forecaster the reach covers the input span slid by
/// one interval, and the fine-tune; without one the window is one plan
/// interval, so the reach is the twice-the-window history that the
/// fallback forecast reads whole. A category decided at or after the last
/// boundary is never read, and a run with no second boundary reads none:
/// its ring holds one category, so the write i % size stays defined. Start
/// allocates it, and Restore and the checkpoint reader refuse any other
/// ring.
size_t HistoryRingSize(const OfflineModel& model, int64_t n_segments,
                       int64_t segs_per_interval);

/// True when `n_segments` is not negative and a run of that many segments
/// from global index `first_segment` ends at an index that fits in int64.
/// Start refuses a run outside it, and the checkpoint reader a state.
bool SegmentWindowFits(int64_t first_segment, int64_t n_segments);

/// Every piece of per-run mutable state of the ingestion engine, extracted
/// so a run can be stepped, inspected, checkpointed and restored. Treat the
/// contents as engine-internal: the struct is exposed (by value) only as the
/// opaque payload of IngestionEngine::Checkpoint()/Restore().
///
/// A plain value: the switcher owns the plan of the current interval, and
/// nothing in here points into the state itself, so every copy or move is a
/// snapshot that is self-contained given its model (the history's oldest
/// categories are the model's, see `history`).
struct IngestState {
  IngestState(const ContentCategories* categories,
              const std::vector<ConfigProfile>* profiles,
              uint64_t buffer_capacity_bytes)
      : noise(0), switcher(categories, profiles),
        buffer_capacity_bytes(buffer_capacity_bytes) {}

  // --- Run geometry, fixed at Start ---
  SimTime start_time = 0.0;
  int64_t first_segment = 0;      ///< global index of the first segment
  int64_t n_segments = 0;         ///< total segments this run will ingest
  int64_t segs_per_interval = 0;  ///< plan-interval length in segments
  size_t history_window = 0;      ///< HistoryWindow() of the run

  // --- Progress ---
  int64_t next_index = 0;    ///< run-local index of the next segment
  size_t interval_index = 0; ///< completed plan boundaries

  // --- Stochastic + learned state ---
  Rng noise;  ///< measurement-noise stream ("measurement" fork of the seed)
  /// The engine's own online fine-tuned forecaster copy (§3.3); the offline
  /// model's stays untouched so runs are independent.
  std::optional<Forecaster> forecaster;

  // --- Decision state ---
  KnobSwitcher switcher;           ///< owns the plan of the current interval
  bool boundary_prepared = false;  ///< PrepareBoundary ran this boundary
  bool boundary_installed = false; ///< InstallPlan ran this boundary
  std::vector<double> boundary_forecast;  ///< forecast the boundary plans on
  /// Forecaster features of the history at the last prepared boundary:
  /// the forecast input there, and the fine-tune input at the next one.
  std::vector<double> plan_features;
  /// The categories this run decided, packed for the model's categories
  /// (2 bits each for 3 or 4), in a ring of HistoryRingSize() codes:
  /// decided category i sits at i % size. The rolling history is the
  /// model's training tail (its last min(history_window,
  /// |train_category_sequence|) categories, read in place) followed by
  /// these; its length follows from next_index (see Start).
  CategorySequence history;
  size_t current_config = 0;
  double last_measured = 0.0;

  // --- Resource accounting ---
  double lag_s = 0.0;
  double buffered_bytes = 0.0;
  /// Eq. 1 byte bound on `buffered_bytes`; 0 when buffering is disabled.
  uint64_t buffer_capacity_bytes = 0;
  double credits_remaining = 0.0;
  double planned_usd_per_interval = 0.0;

  // --- Output so far ---
  EngineResult result;  ///< partial result; mean_quality kept current
  double next_trace_t = 0.0;
};

/// The online ingestion engine (§4): advances a virtual clock in
/// segment-sized steps, runs the knob planner every plan_interval and the
/// knob switcher every segment, charges cloud credits, and accounts for the
/// buffer. `start_time` offsets into the content process — run it after the
/// offline training horizon so train and test data do not overlap.
///
/// The engine is an explicit state machine. Drive it either as a batch:
///
///   auto result = engine.Run(start);             // Start + Step to the end
///
/// or incrementally, with mid-run inspection and checkpoint/restore:
///
///   engine.Start(start);
///   while (!engine.Done()) {
///     engine.Step();                             // one segment
///     inspect(engine.partial_result(), engine.current_plan(), ...);
///   }
///
/// Both drive the identical code path: a stepped run is bitwise-equal to
/// Run on every EngineResult field including the trace.
class IngestionEngine {
 public:
  IngestionEngine(const Workload* workload, const OfflineModel* model,
                  const sim::ClusterSpec& cluster,
                  const sim::CostModel* cost_model, EngineOptions options);

  /// Batch convenience wrapper: Start, Step until Done, return the result.
  Result<EngineResult> Run(SimTime start_time);

  // --- Steppable session surface ---

  /// Begins (or restarts) a run at `start_time`. Any previous session state
  /// is discarded. kInvalidArgument, with nothing discarded, for a budget
  /// that is negative or not finite, a duration, plan interval or start
  /// time that is not a finite segment count fitting in int64, a negative
  /// duration, a run whose last segment index passes int64, or a
  /// ground-truth-forecast run whose last boundary looks ahead past it.
  Status Start(SimTime start_time);

  /// True once Start/Restore (or a Run) has created session state; stays
  /// true after completion so the finished run remains inspectable.
  bool started() const { return state_ != nullptr; }

  /// True when every segment of the run has been ingested.
  bool Done() const {
    return state_ != nullptr && state_->next_index >= state_->n_segments;
  }

  /// Ingests one segment (running the plan boundary first when due).
  Status Step();

  /// Steps until the virtual clock reaches `t` (or the run completes).
  Status RunUntil(SimTime t);

  /// Arrival time of the next segment to ingest (== start_time + elapsed).
  SimTime CurrentTime() const;

  /// The result accumulated so far (mean_quality kept current, trace-so-far
  /// included). At Done() this IS the final result — a completed Run()
  /// leaves it (and the whole session) inspectable until the next Start.
  /// Empty before the first Start.
  const EngineResult& partial_result() const {
    static const EngineResult kEmpty;
    return state_ == nullptr ? kEmpty : state_->result;
  }

  /// The plan the switcher currently follows; null before the first boundary.
  const KnobPlan* current_plan() const {
    return state_ == nullptr ? nullptr : state_->switcher.plan();
  }

  /// Bytes of arrived-but-unprocessed video currently buffered.
  double buffer_occupancy_bytes() const {
    return state_ == nullptr ? 0.0 : state_->buffered_bytes;
  }

  /// Processing backlog behind the live stream, seconds.
  double lag_seconds() const {
    return state_ == nullptr ? 0.0 : state_->lag_s;
  }

  /// Plan-interval length in segments (0 before the first Start).
  int64_t segments_per_interval() const {
    return state_ == nullptr ? 0 : state_->segs_per_interval;
  }

  /// Run-local index of the next segment to ingest (0 before the first
  /// Start). Supervisors drive AdvanceStream-style loops off this.
  int64_t next_segment_index() const {
    return state_ == nullptr ? 0 : state_->next_index;
  }

  /// True when a fault injector is installed and reports a cloud outage at
  /// the engine's current virtual time. Read by the planner budget (no cloud
  /// term while the cloud is down) and by StreamSet's pooled-credit
  /// accounting.
  bool CloudOutageNow() const;

  // --- Checkpoint / restore ---

  /// Value snapshot of the full session state. Restoring it (into this
  /// engine or another engine over the SAME workload/model/options) resumes
  /// the run exactly: the continuation is bitwise-identical to never having
  /// stopped.
  Result<IngestState> Checkpoint() const;
  /// kInvalidArgument, with the current session kept, for a snapshot of no
  /// started session, one whose last boundary would look ahead past int64
  /// when this engine forecasts from ground truth, one whose history window
  /// or ring this engine's model would not give it, or a model whose
  /// training tail names a category the model does not have (the snapshot
  /// reads that tail as its oldest history).
  Status Restore(const IngestState& snapshot);

  // --- Plan-boundary hooks (used by StreamSet for joint planning) ---

  /// True when the next Step() would run the knob planner (and the plan for
  /// that boundary has not been installed yet).
  bool AtPlanBoundary() const;

  /// Runs the boundary-side model maintenance exactly as a self-planning
  /// Step() would: the online forecaster fine-tune on the just-realized
  /// interval (§3.3), the forecaster features of the history (kept in the
  /// state for the next boundary's fine-tune), then the forecast for the
  /// coming interval (readable via boundary_forecast()). Idempotent within
  /// one boundary.
  Status PrepareBoundary();

  /// The forecast computed by PrepareBoundary for the upcoming interval
  /// (empty before the first prepared boundary).
  const std::vector<double>& boundary_forecast() const {
    static const std::vector<double> kEmpty;
    return state_ == nullptr ? kEmpty : state_->boundary_forecast;
  }

  /// cost(k) per filtered configuration, core-seconds per video-second.
  const std::vector<double>& config_costs() const;

  /// This stream's own planning budget: cores plus cloud credits (or the
  /// work_budget_override), core-seconds per video-second.
  double PlanBudgetCoreSPerVideoS() const;

  /// Installs `plan` for the current boundary and completes the boundary
  /// bookkeeping (switcher reset, cloud-credit refill, interval counter).
  /// Called with a self-computed plan by Step(), or with a jointly-computed
  /// plan by StreamSet.
  ///
  /// `cloud_credits_usd` overrides THIS interval's cloud-credit refill:
  /// joint multi-stream planning pools every stream's credits and
  /// re-divides them to follow the joint plan, so a stream may receive
  /// more (or less) than its own EngineOptions budget. Unset uses the
  /// stream's own budget — the single-stream behavior.
  Status InstallPlan(KnobPlan plan,
                     std::optional<double> cloud_credits_usd = std::nullopt);

  /// The all-cheapest degradation plan used when the planning program is
  /// infeasible under the budget (the switcher's buffer guard does the
  /// rest).
  KnobPlan FallbackPlan(const std::vector<double>& forecast) const;

  /// Engine options with unset fields resolved to engine defaults.
  const EngineOptions& options() const { return options_; }
  const OfflineModel& model() const { return *model_; }

  /// Live reconfiguration: both fields below are read only when a plan is
  /// installed at a boundary (credit refill / budget derivation), so
  /// changing them mid-interval is safe and takes effect at the NEXT plan
  /// boundary — never retroactively. This is the per-stream knob surface
  /// `sky serve` exposes to connected clients.
  void set_cloud_budget_usd_per_interval(double usd) {
    options_.cloud_budget_usd_per_interval = usd;
  }
  void set_work_budget_override(double core_s_per_video_s) {
    options_.work_budget_override = core_s_per_video_s;
  }

 private:
  /// Realized category distribution over the plan interval starting at
  /// global segment `first_segment_index`, using ground-truth classification
  /// (for the Fig. 14 baseline), written into `out`. Takes the integer index
  /// rather than a time so it samples exactly the segments the ingest loop
  /// will visit.
  void GroundTruthForecastInto(int64_t first_segment_index,
                               std::vector<double>* out) const;

  /// True unless this engine forecasts from ground truth and some boundary
  /// of a run of `n_segments` from global index `first_segment` would read
  /// a segment index past int64: the boundary opening the last, possibly
  /// partial, interval reads a whole plan interval from there, up to
  /// segs_per_interval - 1 segments past the run. Compared without
  /// overflowing.
  bool LookAheadFits(int64_t first_segment, int64_t n_segments,
                     int64_t segs_per_interval) const;

  /// Builds the content the rest of the run reads, so Step() never builds
  /// content on first use: through the midpoint of its last segment, the
  /// instant video::StreamSource::Segment samples, or, when it forecasts
  /// from ground truth (Fig. 14), through the last boundary's look-ahead,
  /// the one read past the run. Nothing for a finished run.
  void MaterializeContent() const;

  /// Ground truth for one segment's content: writes the noise-free quality
  /// vector into `quals` and returns its full classification.
  size_t TrueCategoryInto(const video::ContentState& content,
                          std::vector<double>* quals) const;

  /// The forecast the planner will see at the current boundary (ground
  /// truth, forecaster, recency histogram, or uniform), written into `out`.
  void ComputeBoundaryForecastInto(std::vector<double>* out);

  /// Solves the planning program for the prepared boundary forecast,
  /// degrading to FallbackPlan when the budget fits no configuration.
  Result<KnobPlan> PlanFromPreparedForecast();

  /// Brings scratch_.split_counts to the forecaster's split windows over the
  /// current history: slides the previous boundary's counts by the segments
  /// that crossed each split edge since, or recounts from the history.
  void UpdateSplitCounts();

  const Workload* workload_;
  const OfflineModel* model_;
  sim::ClusterSpec cluster_;
  const sim::CostModel* cost_model_;
  EngineOptions options_;
  /// All per-run mutable state; null before the first Start.
  std::unique_ptr<IngestState> state_;
  /// Buffers reused across segments and plan boundaries so neither
  /// allocates at steady state: the segment's ground-truth quality vector,
  /// the realized-interval histogram of the fine-tune, the loop-invariant
  /// config costs, the planner's coefficient + solver workspace, and the
  /// forecaster's per-split category counts. Holds no run-defining state
  /// (everything here is recomputed or invariant), so it stays outside
  /// IngestState and out of checkpoints.
  struct Scratch {
    std::vector<double> quals;
    std::vector<double> realized;
    std::vector<double> costs;
    PlanWorkspace workspace;
    /// input_splits rows of |C| counts over the split windows.
    std::vector<uint32_t> split_counts;
    /// |C| counts: a histogram's, or the segments that crossed one split
    /// edge.
    std::vector<uint32_t> counts;
    /// next_index at which split_counts covered full-span windows; -1 when
    /// they must be recounted (never counted, window filling, or restored).
    int64_t split_counts_at = -1;
  };
  mutable Scratch scratch_;
};

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_ENGINE_H_
