#ifndef SKYSCRAPER_CORE_WORKLOAD_H_
#define SKYSCRAPER_CORE_WORKLOAD_H_

#include <string>

#include "core/knob.h"
#include "dag/task_graph.h"
#include "sim/cost_model.h"
#include "util/rng.h"
#include "video/content_process.h"

namespace sky::core {

/// A V-ETL workload: the user-provided part of the system (red boxes in
/// Fig. 1). It owns the knob space, knows how much work each configuration
/// induces, reports the quality its UDFs achieve on given content, and can
/// materialize the processing DAG for one segment of video.
///
/// Quality is user-defined (§2.1): Skyscraper itself only ever consumes the
/// scalar values these methods return, never the content state. TrueQuality
/// is the noise-free ground truth used for scoring experiments;
/// MeasuredQuality adds the measurement noise of real CV certainty metrics
/// and is what the online system observes.
///
/// Every const method may run on several threads at once:
/// RunOfflinePhase fans one workload's content_process().At() and
/// MeasuredQuality across its pool, and fleet workers do the same when
/// streams share a workload. Implementations keep their const methods free
/// of unsynchronized mutable state (MeasuredQuality draws only from the
/// caller's `rng`).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual const KnobSpace& knob_space() const = 0;

  /// Work induced by processing one second of video with `config`, in
  /// on-premise core-seconds. Content-independent, like the paper's cost(k).
  virtual double CostCoreSecondsPerVideoSecond(
      const KnobConfig& config) const = 0;

  /// Ground-truth result quality of `config` on `content`, in [0, 1].
  virtual double TrueQuality(const KnobConfig& config,
                             const video::ContentState& content) const = 0;

  /// The quality the user code would report online (certainties, tracker
  /// errors, ...): ground truth plus measurement noise, clamped to [0, 1].
  virtual double MeasuredQuality(const KnobConfig& config,
                                 const video::ContentState& content,
                                 Rng* rng) const;

  /// Builds the processing DAG for `segment_seconds` of video under
  /// `config`, with per-node runtimes, payload sizes and cloud prices filled
  /// in (what the profiler and placement search consume).
  virtual dag::TaskGraph BuildTaskGraph(
      const KnobConfig& config, double segment_seconds,
      const sim::CostModel& cost_model) const = 0;

  /// The content process of the ingested source.
  virtual const video::ContentProcess& content_process() const = 0;

  /// Standard deviation of the measurement noise on reported quality.
  virtual double measurement_noise_stddev() const { return 0.03; }
};

/// The cheapest configuration by CostCoreSecondsPerVideoSecond.
KnobConfig CheapestConfig(const Workload& workload);

/// The configuration with the best average TrueQuality over `probe_times`
/// samples of the content process (stand-in for "best accuracy on the small
/// labeled set", Appendix A.1).
KnobConfig MostQualitativeConfig(const Workload& workload,
                                 size_t probe_times = 32);

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_WORKLOAD_H_
