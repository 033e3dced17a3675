#ifndef SKY_E2E_COMMON_H_
#define SKY_E2E_COMMON_H_

// Shared pieces of the end-to-end benchmark: clocks, statistics, the
// per-iteration record every workload fills, the layer accounting of a
// traced run, and the call-counting wrappers the traced run puts between
// the engine and the user-defined workload.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/offline.h"
#include "core/workload.h"
#include "util/result.h"

namespace sky::e2e {

// --- Clocks and process gauges ---------------------------------------------

/// Monotonic wall clock, seconds.
double WallNow();
/// CPU seconds consumed by the whole process (every thread).
double CpuNow();
/// Peak resident set size of the process, MiB.
double PeakRssMb();

// --- Statistics -------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1] (0 for an empty input).
double Quantile(std::vector<double> xs, double q);
inline double Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}

/// Deterministic 64-bit seed for component `tag`, index `index`, of a run
/// with benchmark seed `seed`. Every content seed, engine seed and arrival
/// schedule is derived here, so one --seed fixes every input.
uint64_t DeriveSeed(uint64_t seed, const std::string& tag, uint64_t index);

/// FNV-1a over the canonical serialized form of every result, in order.
uint64_t ResultsFingerprint(const std::vector<core::EngineResult>& results);

/// core::EngineResultsIdentical over two equally long result lists.
bool ResultsIdentical(const std::vector<core::EngineResult>& a,
                      const std::vector<core::EngineResult>& b);

/// One named number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Replaces the value of `name` in `metrics`, or appends it.
void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit);

// --- One timed iteration ----------------------------------------------------

/// Everything one pass over a workload's fixed input reports. Latency
/// samples are per job: a camera run, a fleet run or a served session.
struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double video_s = 0.0;  ///< simulated video-seconds ingested
  std::vector<double> admit_ms;   ///< due -> first plan installed / admitted
  std::vector<double> session_s;  ///< due -> final result in hand
  double total_quality = 0.0;
  double segments = 0.0;
  double cloud_usd = 0.0;
  uint64_t fingerprint = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t overflow_events = 0;
  /// StreamSet::boundary_latencies_ms() of the pass (fleets only).
  std::vector<double> boundary_ms;
  /// Human-readable reason for any failed check; empty when all passed.
  std::string error;
};

/// Adds the totals of `results` to `it` and sets its fingerprint.
void AddResults(const std::vector<core::EngineResult>& results,
                double segment_seconds, Iteration* it);

// --- Layer accounting of a traced run ---------------------------------------

/// Per-call costs of the sub-microsecond layers, measured by replaying the
/// run's own segment range in tight loops (a clock pair per call would cost
/// more than the call).
struct ReplayCosts {
  double segment_us = 0.0;           ///< video::StreamSource::Segment
  double content_at_us = 0.0;        ///< video::ContentProcess::At
  double truth_vector_us = 0.0;      ///< TrueQualityVectorInto + ClassifyFull
  double measured_quality_us = 0.0;  ///< Workload::MeasuredQuality
};

/// Replays segments [first, first + count) of `workload` under `model`.
ReplayCosts MeasureReplayCosts(const core::Workload& workload,
                               const core::OfflineModel& model,
                               int64_t first_segment, int64_t count);

/// Time and counts a traced run attributes to each layer. Times are summed
/// over workers, so they compare against workers x wall.
struct LayerTotals {
  double wall_s = 0.0;
  size_t workers = 1;
  size_t iterations = 0;
  // core.engine: spans around the public engine calls. Engine starts and
  // boundary windows are serial: the other workers wait through them.
  double start_s = 0.0;     ///< engine construction + Start
  double steps_s = 0.0;     ///< Step spans (per-segment hot path)
  double prepare_s = 0.0;   ///< PrepareBoundary spans
  double install_s = 0.0;   ///< InstallPlan spans
  double solve_s = 0.0;     ///< ComputeKnobPlan / JointPlanner::Plan spans
  double boundary_window_s = 0.0;  ///< serial boundary windows, wall
  double worker_busy_s = 0.0;      ///< per-worker interval busy time
  double idle_s = 0.0;             ///< workers waiting (barrier / queue)
  double straggler_max_s = 0.0;    ///< sum over intervals of max busy
  double straggler_mean_s = 0.0;   ///< sum over intervals of mean busy
  double io_s = 0.0;               ///< model loads, checkpoint writes
  double serve_s = 0.0;            ///< serve fleet-loop bookkeeping
  // Counts.
  double steps = 0.0;
  /// Per-Step clock spans taken; each costs one clock read outside its
  /// span, which is the tracer's own share of the traced wall.
  double step_spans = 0.0;
  double content_at_calls = 0.0;
  double true_quality_calls = 0.0;
  double measured_calls = 0.0;
  double prepare_calls = 0.0;
  double install_calls = 0.0;
  double solves = 0.0;
  double boundaries = 0.0;
  double groups_rebuilt = 0.0;
  double groups_rescaled = 0.0;
  size_t configs = 0;  ///< |K| of the filtered configuration set
  /// Boundary-window durations, ms, where the workload has no StreamSet to
  /// report them.
  std::vector<double> boundary_ms;
};

/// One span kept for the Chrome trace-event export.
struct Span {
  std::string name;
  size_t tid = 0;
  double start_s = 0.0;
  double dur_s = 0.0;
};

/// Writes `spans` as Chrome trace-event JSON (chrome://tracing, Perfetto).
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

// --- Call-counting wrappers -------------------------------------------------

/// Forwards every call to the wrapped content process and counts At().
/// Counters are plain: a stream's workload is only ever touched by the one
/// worker that owns the stream in the current interval.
class CountingContent : public video::ContentProcess {
 public:
  explicit CountingContent(const video::ContentProcess* inner)
      : inner_(inner) {}
  video::ContentState At(SimTime t) const override {
    ++calls_;
    return inner_->At(t);
  }
  SimTime horizon() const override { return inner_->horizon(); }
  uint64_t calls() const { return calls_; }

 private:
  const video::ContentProcess* inner_;
  mutable uint64_t calls_ = 0;
};

/// Forwards every call to the wrapped workload and counts the quality
/// calls the engine makes. Results are bitwise those of the inner workload.
class CountingWorkload : public core::Workload {
 public:
  explicit CountingWorkload(const core::Workload* inner)
      : inner_(inner), content_(&inner->content_process()) {}

  std::string name() const override { return inner_->name(); }
  const core::KnobSpace& knob_space() const override {
    return inner_->knob_space();
  }
  double CostCoreSecondsPerVideoSecond(
      const core::KnobConfig& config) const override {
    return inner_->CostCoreSecondsPerVideoSecond(config);
  }
  double TrueQuality(const core::KnobConfig& config,
                     const video::ContentState& content) const override {
    ++true_quality_calls_;
    return inner_->TrueQuality(config, content);
  }
  double MeasuredQuality(const core::KnobConfig& config,
                         const video::ContentState& content,
                         Rng* rng) const override {
    ++measured_calls_;
    return inner_->MeasuredQuality(config, content, rng);
  }
  dag::TaskGraph BuildTaskGraph(
      const core::KnobConfig& config, double segment_seconds,
      const sim::CostModel& cost_model) const override {
    return inner_->BuildTaskGraph(config, segment_seconds, cost_model);
  }
  const video::ContentProcess& content_process() const override {
    return content_;
  }
  double measurement_noise_stddev() const override {
    return inner_->measurement_noise_stddev();
  }

  /// Adds this wrapper's counts to `totals`.
  void AddCountsTo(LayerTotals* totals) const {
    totals->content_at_calls += static_cast<double>(content_.calls());
    totals->true_quality_calls += static_cast<double>(true_quality_calls_);
    totals->measured_calls += static_cast<double>(measured_calls_);
  }

 private:
  const core::Workload* inner_;
  CountingContent content_;
  mutable uint64_t true_quality_calls_ = 0;
  mutable uint64_t measured_calls_ = 0;
};

// --- Offline setup ----------------------------------------------------------

/// Sum of the offline step runtimes over every fit of one setup.
void AddStepRuntimes(const core::OfflineStepRuntimes& r,
                     core::OfflineStepRuntimes* sum);

/// The io layer probes every workload reports in its traced run: the model
/// file round trip and one mid-run checkpoint serialization.
struct IoProbe {
  double model_load_ms = 0.0;
  double model_bytes = 0.0;
  double checkpoint_serialize_ms = 0.0;
  double checkpoint_bytes = 0.0;
};

/// Saves `model` to `path`, times 20 LoadOfflineModel replays including the
/// loaded model's release (median) and removes the file again.
Status ProbeModelLoad(const core::OfflineModel& model, const std::string& path,
                      IoProbe* probe);

/// Serializes the fleet checkpoint of `engines` (CaptureCheckpoint's work:
/// engine Checkpoint + SerializeIngestState per stream, then
/// SerializeFleetCheckpoint), three times; records the median and the size.
Status ProbeCheckpoint(const std::vector<const core::IngestionEngine*>& engines,
                       IoProbe* probe);

}  // namespace sky::e2e

#endif  // SKY_E2E_COMMON_H_
