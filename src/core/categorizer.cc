#include "core/categorizer.h"

#include <algorithm>

namespace sky::core {

size_t ContentCategories::NumCategories() const {
  return backend_ == CategorizerBackend::kKMeans ? kmeans_.centers.size()
                                                 : gmm_->means.size();
}

size_t ContentCategories::NumConfigs() const {
  if (backend_ == CategorizerBackend::kKMeans) {
    return kmeans_.centers.empty() ? 0 : kmeans_.centers[0].size();
  }
  return gmm_->means.empty() ? 0 : gmm_->means[0].size();
}

double ContentCategories::CenterQuality(size_t category,
                                        size_t config_idx) const {
  return backend_ == CategorizerBackend::kKMeans
             ? kmeans_.centers[category][config_idx]
             : gmm_->means[category][config_idx];
}

size_t ContentCategories::ClassifyFull(
    const std::vector<double>& quality_vector) const {
  return backend_ == CategorizerBackend::kKMeans
             ? kmeans_.Classify(quality_vector)
             : gmm_->Classify(quality_vector);
}

size_t ContentCategories::ClassifyPartial(size_t config_idx,
                                          double quality) const {
  return backend_ == CategorizerBackend::kKMeans
             ? kmeans_.ClassifyPartial(config_idx, quality)
             : gmm_->ClassifyPartial(config_idx, quality);
}

ContentCategories ContentCategories::FromKMeans(ml::KMeansModel model) {
  ContentCategories c;
  c.backend_ = CategorizerBackend::kKMeans;
  model.assignments = {};
  c.kmeans_ = std::move(model);
  return c;
}

ContentCategories ContentCategories::FromGmm(ml::GmmModel model) {
  ContentCategories c;
  c.backend_ = CategorizerBackend::kGmm;
  c.gmm_ = std::move(model);
  return c;
}

std::vector<double> TrueQualityVector(const Workload& workload,
                                      const std::vector<KnobConfig>& configs,
                                      const video::ContentState& content) {
  std::vector<double> quals;
  TrueQualityVectorInto(workload, configs, content, &quals);
  return quals;
}

void TrueQualityVectorInto(const Workload& workload,
                           const std::vector<KnobConfig>& configs,
                           const video::ContentState& content,
                           std::vector<double>* out) {
  out->clear();
  out->reserve(configs.size());
  for (const KnobConfig& k : configs) {
    out->push_back(workload.TrueQuality(k, content));
  }
}

Result<ContentCategories> BuildContentCategories(
    const Workload& workload, const std::vector<KnobConfig>& configs,
    const CategorizerOptions& options) {
  if (configs.empty()) {
    return Status::InvalidArgument("no configurations for categorization");
  }
  if (options.num_categories == 0) {
    return Status::InvalidArgument("need at least one content category");
  }
  double horizon =
      std::min<double>(options.train_horizon, workload.content_process().horizon());
  int64_t total_segments =
      static_cast<int64_t>(horizon / options.segment_seconds);
  int64_t sampled = std::max<int64_t>(
      static_cast<int64_t>(options.num_categories) * 4,
      static_cast<int64_t>(options.sample_fraction *
                           static_cast<double>(total_segments)));
  sampled = std::min(sampled, total_segments);
  if (sampled <= 0) {
    return Status::InvalidArgument("train horizon too short for sampling");
  }

  // Scan the sampled segments in parallel, one forked RNG per fixed-size
  // chunk so the points are identical for any thread count. Each segment's
  // measured qualities go straight into its column of the point matrix.
  Rng noise_rng = Rng(options.seed).Fork("measurement");
  ml::Matrix points(configs.size(), static_cast<size_t>(sampled));
  dag::ParallelForChunked(
      options.pool, static_cast<size_t>(sampled), 64,
      [&](size_t chunk, size_t begin, size_t end) {
        Rng chunk_rng = noise_rng.ForkIndex(chunk);
        for (size_t i = begin; i < end; ++i) {
          double t = horizon * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(sampled);
          video::ContentState state = workload.content_process().At(t);
          for (size_t k = 0; k < configs.size(); ++k) {
            points.At(k, i) =
                workload.MeasuredQuality(configs[k], state, &chunk_rng);
          }
        }
      });

  if (options.backend == CategorizerBackend::kKMeans) {
    ml::KMeansOptions km;
    km.k = options.num_categories;
    km.seed = options.seed;
    SKY_ASSIGN_OR_RETURN(ml::KMeansModel model,
                         ml::KMeansFit(points, km, options.pool));
    return ContentCategories::FromKMeans(std::move(model));
  }
  ml::GmmOptions gm;
  gm.k = options.num_categories;
  gm.seed = options.seed;
  SKY_ASSIGN_OR_RETURN(ml::GmmModel model,
                       ml::GmmFit(points, gm, options.pool));
  return ContentCategories::FromGmm(std::move(model));
}

}  // namespace sky::core
