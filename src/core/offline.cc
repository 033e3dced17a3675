#include "core/offline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

namespace sky::core {

namespace {

using WallClock = std::chrono::steady_clock;

double ElapsedSeconds(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Index of the config whose measured quality best discriminates categories
/// (footnote 7 of the paper: if k- achieves similar quality everywhere, pick
/// the next cheapest good discriminator). Configs are ordered by cost, so
/// the first config with sufficient center spread wins.
size_t PickDiscriminatorConfig(const ContentCategories& categories) {
  size_t num_k = categories.NumConfigs();
  size_t num_c = categories.NumCategories();
  for (size_t k = 0; k < num_k; ++k) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < num_c; ++c) {
      lo = std::min(lo, categories.CenterQuality(c, k));
      hi = std::max(hi, categories.CenterQuality(c, k));
    }
    if (hi - lo > 0.05) return k;
  }
  return 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  // Empty vectors may hold null data, which memcmp must not see.
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (!SameBits(a[r], b[r])) return false;
  }
  return true;
}

}  // namespace

std::vector<uint8_t> BuildTrainCategorySequence(
    const Workload& workload, const std::vector<KnobConfig>& configs,
    const ContentCategories& categories, double segment_seconds,
    SimTime horizon, uint64_t seed, dag::ThreadPool* pool) {
  size_t discriminator = PickDiscriminatorConfig(categories);
  Rng rng = Rng(seed).Fork("train-seq");
  int64_t segments = static_cast<int64_t>(horizon / segment_seconds);
  std::vector<uint8_t> sequence(static_cast<size_t>(segments));
  const video::ContentProcess& content = workload.content_process();
  // The dominant offline step (Table 3): classify every training segment.
  // One forked RNG per fixed-size chunk keeps the sequence identical for any
  // thread count while amortizing the fork cost.
  dag::ParallelForChunked(
      pool, static_cast<size_t>(segments), 1024,
      [&](size_t chunk, size_t begin, size_t end) {
        Rng chunk_rng = rng.ForkIndex(chunk);
        for (size_t i = begin; i < end; ++i) {
          double t = (static_cast<double>(i) + 0.5) * segment_seconds;
          double quality = workload.MeasuredQuality(configs[discriminator],
                                                    content.At(t), &chunk_rng);
          sequence[i] = static_cast<uint8_t>(
              categories.ClassifyPartial(discriminator, quality));
        }
      });
  return sequence;
}

bool OfflineModelsIdentical(const OfflineModel& a, const OfflineModel& b) {
  if (a.segment_seconds != b.segment_seconds) return false;
  if (a.train_horizon != b.train_horizon) return false;
  if (a.configs != b.configs) return false;
  if (a.train_category_sequence != b.train_category_sequence) return false;

  if (a.profiles.size() != b.profiles.size()) return false;
  for (size_t k = 0; k < a.profiles.size(); ++k) {
    const ConfigProfile& pa = a.profiles[k];
    const ConfigProfile& pb = b.profiles[k];
    if (pa.config != pb.config || pa.config_id != pb.config_id ||
        pa.work_core_s_per_video_s != pb.work_core_s_per_video_s) {
      return false;
    }
    if (pa.placements.size() != pb.placements.size()) return false;
    for (size_t p = 0; p < pa.placements.size(); ++p) {
      const PlacementProfile& la = pa.placements[p];
      const PlacementProfile& lb = pb.placements[p];
      if (la.placement.node_loc != lb.placement.node_loc ||
          la.runtime_s != lb.runtime_s || la.cloud_usd != lb.cloud_usd ||
          la.onprem_core_s != lb.onprem_core_s ||
          la.uplink_bytes != lb.uplink_bytes) {
        return false;
      }
    }
  }

  // The clustering, bitwise on every field the CATG chunk persists.
  if (a.categories.backend() != b.categories.backend()) return false;
  const ml::KMeansModel& ka = a.categories.kmeans_model();
  const ml::KMeansModel& kb = b.categories.kmeans_model();
  if (!SameBits(ka.centers, kb.centers) || !SameBits(ka.inertia, kb.inertia)) {
    return false;
  }
  const std::optional<ml::GmmModel>& ga = a.categories.gmm_model();
  const std::optional<ml::GmmModel>& gb = b.categories.gmm_model();
  if (ga.has_value() != gb.has_value()) return false;
  if (ga.has_value() &&
      (!SameBits(ga->means, gb->means) ||
       !SameBits(ga->variances, gb->variances) ||
       !SameBits(ga->weights, gb->weights) ||
       !SameBits(ga->log_likelihood, gb->log_likelihood))) {
    return false;
  }

  if (a.forecaster.has_value() != b.forecaster.has_value()) return false;
  if (a.forecaster.has_value() &&
      a.forecaster->ModelParameters() != b.forecaster->ModelParameters()) {
    return false;
  }
  return true;
}

Result<OfflineModel> RunOfflinePhase(const Workload& workload,
                                     const sim::ClusterSpec& cluster,
                                     const sim::CostModel& cost_model,
                                     const OfflineOptions& options) {
  if (options.num_categories == 0 ||
      options.num_categories > kMaxCategories) {
    return Status::InvalidArgument(
        "num_categories " + std::to_string(options.num_categories) +
        " is outside [1, " + std::to_string(kMaxCategories) + "]");
  }
  // Every step casts horizon / segment_seconds to an int64 segment count,
  // and that cast is undefined unless the quotient is finite and in range.
  const double horizon =
      std::min<double>(options.train_horizon, workload.content_process().horizon());
  if (!std::isfinite(options.segment_seconds) ||
      !(options.segment_seconds > 0.0)) {
    return Status::InvalidArgument("segment_seconds must be finite and positive");
  }
  if (!std::isfinite(horizon) || !(horizon > 0.0) ||
      !(horizon / options.segment_seconds < 0x1p63)) {
    return Status::InvalidArgument(
        "train_horizon must be finite and positive, with a segment count "
        "that fits in int64");
  }
  OfflineModel model;
  model.segment_seconds = options.segment_seconds;
  model.train_horizon = horizon;
  // Build the training content in one pass before the steps below fan out
  // over it: a block first read under the pool is redrawn from its seed,
  // which costs quadratic time over a whole horizon.
  workload.content_process().Materialize(0.0, model.train_horizon);

  // The pool every offline step fans out on. Each step is deterministic for
  // a fixed seed regardless of the thread count, so parallelism is purely a
  // wall-clock knob.
  dag::ThreadPool* pool = options.pool;
  std::optional<dag::ThreadPool> owned_pool;
  if (pool == nullptr) {
    size_t threads = options.num_threads == 0 ? dag::DefaultThreadCount()
                                              : options.num_threads;
    if (threads > 1) {
      owned_pool.emplace(threads);
      pool = &*owned_pool;
    }
  }

  // Step 1a: filter knob configurations (Appendix A.1).
  auto t0 = WallClock::now();
  ConfigFilterOptions filter = options.filter;
  filter.train_horizon = model.train_horizon;
  filter.seed = options.seed ^ 0x1;
  filter.pool = pool;
  SKY_ASSIGN_OR_RETURN(model.configs, FilterKnobConfigs(workload, filter));
  model.step_runtimes.filter_configs_s = ElapsedSeconds(t0);

  // Step 1b: profile + filter task placements (Appendix A.2).
  t0 = WallClock::now();
  SKY_ASSIGN_OR_RETURN(
      model.profiles,
      ProfileConfigs(workload, model.configs, cluster, cost_model,
                     options.segment_seconds, pool));
  model.step_runtimes.filter_placements_s = ElapsedSeconds(t0);

  // Step 2: content categories (§3.2).
  t0 = WallClock::now();
  CategorizerOptions cat;
  cat.num_categories = options.num_categories;
  cat.segment_seconds = options.segment_seconds;
  cat.train_horizon = model.train_horizon;
  cat.backend = options.categorizer_backend;
  cat.seed = options.seed ^ 0x2;
  cat.pool = pool;
  SKY_ASSIGN_OR_RETURN(model.categories,
                       BuildContentCategories(workload, model.configs, cat));
  model.step_runtimes.content_categories_s = ElapsedSeconds(t0);

  // Step 3a: create forecast training data (Appendix H).
  t0 = WallClock::now();
  model.train_category_sequence = BuildTrainCategorySequence(
      workload, model.configs, model.categories, options.segment_seconds,
      model.train_horizon, options.seed ^ 0x3, pool);
  model.step_runtimes.forecast_training_data_s = ElapsedSeconds(t0);

  // Step 3b: train the forecasting model (§3.3).
  if (options.train_forecaster) {
    t0 = WallClock::now();
    ForecasterOptions fopts = options.forecaster;
    fopts.seed = options.seed ^ 0x4;
    SKY_ASSIGN_OR_RETURN(
        Forecaster forecaster,
        Forecaster::Train(model.train_category_sequence,
                          options.segment_seconds, options.num_categories,
                          fopts));
    model.forecaster.emplace(std::move(forecaster));
    model.step_runtimes.forecast_training_s = ElapsedSeconds(t0);
  }
  return model;
}

}  // namespace sky::core
