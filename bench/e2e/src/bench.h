#ifndef SKY_E2E_BENCH_H_
#define SKY_E2E_BENCH_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "sim/cluster_sim.h"
#include "sim/cost_model.h"

namespace sky::e2e {

/// Inputs every workload is built from. The seed derives every input; the
/// window length only decides how many times a fixed-size input is run
/// (or, for the open-loop serve workload, how long load is offered).
struct BenchConfig {
  uint64_t seed = 1;
  double seconds = 20.0;
  /// 1/20-size inputs: a quick end-to-end check, not a measurement.
  bool smoke = false;
  /// Directory for temporary files and the Chrome trace (must exist).
  std::string out_dir;
};

/// One benchmark workload. The driver in main.cc times Setup several times,
/// warms up, then runs untraced (and, in a traced run, traced) passes over
/// the same fixed input until the window is used up.
class Bench {
 public:
  virtual ~Bench() = default;

  /// Offline fits plus whatever else must exist before ingest starts (model
  /// file round trip and server start for the served workload). Called
  /// after ReleaseSetup, so each call builds everything afresh.
  virtual Status Setup() = 0;
  /// Frees what the last Setup built; not part of the timed setup.
  virtual void ReleaseSetup() = 0;
  /// Offline step runtimes summed over the fits of the last Setup.
  virtual core::OfflineStepRuntimes step_runtimes() const = 0;
  /// An untimed pass at 1/10 size.
  virtual Status WarmUp() = 0;
  /// One untraced pass over the full input.
  virtual Iteration RunUntraced() = 0;
  /// One traced pass over the same input; adds to `totals` and `spans`.
  /// Its results must equal the untraced pass bitwise where the workload
  /// is deterministic (the Iteration's error says otherwise).
  virtual Iteration RunTraced(LayerTotals* totals, std::vector<Span>* spans) = 0;
  /// Replays the sub-microsecond layers and probes the io layer.
  virtual Status ProbeLayers(ReplayCosts* replay, IoProbe* io) = 0;
  /// True for the open-loop workload: its one pass is the window, and its
  /// results depend on timing, so passes are not compared bitwise.
  virtual bool open_loop() const { return false; }
  /// Workload-specific throughput/latency and per-layer metrics (overriding
  /// the defaults) and numbers for the detailed JSON only.
  virtual void AddTimingMetrics(std::vector<Metric>* /*metrics*/) const {}
  virtual void AddLayerMetrics(std::vector<Metric>* /*metrics*/) const {}
  virtual void AddDetails(std::vector<Metric>* /*details*/) const {}
};

std::unique_ptr<Bench> MakeSingleCovid(const BenchConfig& config);
std::unique_ptr<Bench> MakeFleet(const BenchConfig& config, bool replan);
std::unique_ptr<Bench> MakeServeChurn(const BenchConfig& config);

/// Fits one model for `workload` over a 16-day training horizon with 3
/// content categories, its forecaster trained for `forecast_interval`
/// (serially when `pool` is null).
Result<core::OfflineModel> FitModel(const core::Workload& workload,
                                    double segment_seconds,
                                    SimTime forecast_interval,
                                    const sim::ClusterSpec& cluster,
                                    const sim::CostModel& cost_model,
                                    dag::ThreadPool* pool);

/// Runs one engine to completion through its public hooks, with clock spans
/// around Start, every boundary's PrepareBoundary / ComputeKnobPlan /
/// InstallPlan and every Step — the self-planning path Step() takes, so the
/// result is bitwise the one IngestionEngine::Run returns. `workload`
/// should be a CountingWorkload; its counts are the caller's to collect.
Result<core::EngineResult> RunEngineTraced(
    const core::Workload* workload, const core::OfflineModel& model,
    const sim::ClusterSpec& cluster, const sim::CostModel& cost_model,
    const core::EngineOptions& options, SimTime start_time, LayerTotals* totals,
    std::vector<Span>* spans);

}  // namespace sky::e2e

#endif  // SKY_E2E_BENCH_H_
