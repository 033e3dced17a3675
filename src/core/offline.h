#ifndef SKYSCRAPER_CORE_OFFLINE_H_
#define SKYSCRAPER_CORE_OFFLINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/categorizer.h"
#include "core/category_sequence.h"
#include "core/config_filter.h"
#include "core/forecaster.h"
#include "core/profiler.h"
#include "core/workload.h"
#include "dag/thread_pool.h"
#include "sim/cluster_sim.h"
#include "sim/cost_model.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace sky::core {

/// Wall-clock runtimes of the offline steps (Table 3 of the paper).
struct OfflineStepRuntimes {
  double filter_configs_s = 0.0;
  double filter_placements_s = 0.0;
  double content_categories_s = 0.0;
  double forecast_training_data_s = 0.0;
  double forecast_training_s = 0.0;
};

/// The pre-computed, workload-invariant knowledge the online phase consumes:
/// the filtered configuration set K with placement profiles, the content
/// categories C, and the trained forecasting model F (Fig. 2, left).
struct OfflineModel {
  std::vector<KnobConfig> configs;
  std::vector<ConfigProfile> profiles;
  ContentCategories categories;
  std::optional<Forecaster> forecaster;
  /// Per-segment category sequence over the training horizon (Appendix H),
  /// packed for the model's categories (2 bits a segment for 3 or 4):
  /// trains the forecaster and bootstraps the online category history.
  CategorySequence train_category_sequence;
  double segment_seconds = 2.0;
  SimTime train_horizon = Days(16);
  OfflineStepRuntimes step_runtimes;
};

struct OfflineOptions {
  double segment_seconds = 2.0;
  /// Unlabeled history used for fitting (the paper records ~2 weeks).
  SimTime train_horizon = Days(16);
  /// In [1, kMaxCategories]; RunOfflinePhase refuses any other count
  /// before its first step.
  size_t num_categories = 4;
  CategorizerBackend categorizer_backend = CategorizerBackend::kKMeans;
  ConfigFilterOptions filter;
  ForecasterOptions forecaster;
  /// Set false to skip forecaster training (benches that bring their own).
  bool train_forecaster = true;
  uint64_t seed = 81;
  /// Worker threads the offline steps fan out on: 0 picks the hardware
  /// concurrency, 1 runs fully serial. The resulting OfflineModel is
  /// bit-identical for every thread count (per-index RNG forks, ordered
  /// result collection).
  size_t num_threads = 0;
  /// Reuse an existing pool instead of creating one (overrides num_threads).
  dag::ThreadPool* pool = nullptr;
};

/// Runs the complete offline preparation phase of §3 on the given workload
/// and provisioning: filter knob configurations (A.1), profile and filter
/// task placements (A.2), build content categories (§3.2), create the
/// forecast training data and train the model (§3.3 / Appendix H). Every
/// step but the last fans out on the pool; the forecaster trains on the
/// calling thread.
Result<OfflineModel> RunOfflinePhase(const Workload& workload,
                                     const sim::ClusterSpec& cluster,
                                     const sim::CostModel& cost_model,
                                     const OfflineOptions& options = {});

/// Classifies every training segment with the cheapest configuration's
/// measured quality (Appendix H: the unlabeled data is processed with k- and
/// categorized through the switcher's standard partial classification).
/// The sequence is packed for `categories`, which must hold at most
/// kMaxCategories of them (RunOfflinePhase refuses more). Pool threads
/// write it in chunks of 1,024 segments, a whole number of words at every
/// code width, so no two threads write one word.
CategorySequence BuildTrainCategorySequence(
    const Workload& workload, const std::vector<KnobConfig>& configs,
    const ContentCategories& categories, double segment_seconds,
    SimTime horizon, uint64_t seed, dag::ThreadPool* pool = nullptr);

/// True when two offline models are bit-identical on every deterministic
/// field: configs, full placement profiles, the clustering (k-means centers
/// and inertia, or the GMM's means, variances, weights and log-likelihood),
/// the training sequence, and the trained forecaster's network parameters
/// (only the step runtimes are excluded — wall times always differ). The
/// forecaster trains on the calling thread, so its weights never see the
/// pool and the comparison can afford to be bitwise.
/// The contract behind OfflineOptions::num_threads, shared by
/// tests/offline_determinism_test.cc and bench_table3_offline_runtime.
bool OfflineModelsIdentical(const OfflineModel& a, const OfflineModel& b);

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_OFFLINE_H_
