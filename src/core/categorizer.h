#ifndef SKYSCRAPER_CORE_CATEGORIZER_H_
#define SKYSCRAPER_CORE_CATEGORIZER_H_

#include <optional>
#include <vector>

#include "core/workload.h"
#include "dag/thread_pool.h"
#include "ml/gmm.h"
#include "ml/kmeans.h"
#include "util/result.h"
#include "util/sim_time.h"

namespace sky::core {

/// Which clustering backend builds the categories. The paper uses KMeans and
/// shows (Appendix B.2, Fig. 17) that a Gaussian mixture performs the same.
enum class CategorizerBackend { kKMeans, kGmm };

/// Most content categories a model may hold: a category sequence's widest
/// code is 8 bits (core::CategorySequence). The paper's largest count is 8
/// (Fig. 20).
inline constexpr size_t kMaxCategories = 255;

/// The content categories of §3.2: clusters in |K|-dimensional quality
/// space. A category's center coordinate c[k] is the average quality that
/// configuration k achieves on content of that category — the qual-hat(k, c)
/// the planner LP maximizes over.
class ContentCategories {
 public:
  ContentCategories() = default;

  size_t NumCategories() const;
  size_t NumConfigs() const;

  /// Average quality of configuration `config_idx` on category `category`.
  double CenterQuality(size_t category, size_t config_idx) const;

  /// Classification with a full |K|-dimensional quality vector (used on
  /// offline training data, Appendix H, and by ground-truth baselines).
  size_t ClassifyFull(const std::vector<double>& quality_vector) const;

  /// Online classification from a single observed quality value (Eq. 5):
  /// only the currently running configuration's quality is attainable.
  size_t ClassifyPartial(size_t config_idx, double quality) const;

  CategorizerBackend backend() const { return backend_; }

  /// Builders (exposed for the Fig. 17 ablation and tests). FromKMeans
  /// drops the fit's per-point assignments: nothing reads them after the
  /// fit, and the model file does not store them.
  static ContentCategories FromKMeans(ml::KMeansModel model);
  static ContentCategories FromGmm(ml::GmmModel model);

  /// The fitted clustering behind the active backend, exposed for
  /// io::SaveOfflineModel: round-tripping through FromKMeans/FromGmm with
  /// these values reproduces the categorizer bitwise. The k-means model
  /// holds no assignments; the inactive model is default-empty (kKMeans
  /// never has a GMM and vice versa).
  const ml::KMeansModel& kmeans_model() const { return kmeans_; }
  const std::optional<ml::GmmModel>& gmm_model() const { return gmm_; }

 private:
  CategorizerBackend backend_ = CategorizerBackend::kKMeans;
  ml::KMeansModel kmeans_;
  std::optional<ml::GmmModel> gmm_;
};

struct CategorizerOptions {
  size_t num_categories = 4;
  /// Fraction of the unlabeled horizon sampled as S' (§3.2; the paper uses
  /// 5-10%). Segments are sampled on a regular grid for determinism.
  double sample_fraction = 0.05;
  double segment_seconds = 2.0;
  SimTime train_horizon = Days(14);
  CategorizerBackend backend = CategorizerBackend::kKMeans;
  uint64_t seed = 51;
  /// Pool the per-segment quality scans and the clustering's restarts fan
  /// out on. The sampled points (and the fitted clustering) are identical
  /// for any thread count; null runs serially.
  dag::ThreadPool* pool = nullptr;
};

/// Offline phase step 2 (§3.2): samples segments from the unlabeled data,
/// processes each with every filtered configuration, records the quality
/// vectors as the columns of one point matrix, and clusters them into
/// content categories.
Result<ContentCategories> BuildContentCategories(
    const Workload& workload, const std::vector<KnobConfig>& configs,
    const CategorizerOptions& options);

/// The noise-free quality vector (ground truth categorization).
std::vector<double> TrueQualityVector(const Workload& workload,
                                      const std::vector<KnobConfig>& configs,
                                      const video::ContentState& content);

/// In-place variant reusing `out`'s capacity — the engine calls this once
/// per segment into one scratch vector without allocating.
void TrueQualityVectorInto(const Workload& workload,
                           const std::vector<KnobConfig>& configs,
                           const video::ContentState& content,
                           std::vector<double>* out);

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_CATEGORIZER_H_
