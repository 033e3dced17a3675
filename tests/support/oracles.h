#ifndef SKYSCRAPER_TESTS_SUPPORT_ORACLES_H_
#define SKYSCRAPER_TESTS_SUPPORT_ORACLES_H_

// Reference implementations the parity tests and the forecaster and planner
// benches compare libsky against. Each is the plain, allocating form of
// something libsky computes faster: the per-sample trainer and the
// sequential forward pass of the forecasting network, the naive matrix
// product, the category counts, histograms and forecaster features of a
// scanned history, the serial k-means over per-point vectors, the diurnal
// content process with its whole horizon's events drawn up front, and the
// knob planners' program solved by dense simplex. None of them runs in a
// deployment, so they live here and libsky never links them.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/category_sequence.h"
#include "core/forecaster.h"
#include "core/multi_stream.h"
#include "core/planner.h"
#include "ml/kmeans.h"
#include "ml/matrix.h"
#include "ml/nn.h"
#include "util/result.h"
#include "util/sim_time.h"
#include "video/content_process.h"

namespace sky::oracle {

/// Cross-entropy of a prediction against a target distribution.
double ComputeLoss(const std::vector<double>& pred,
                   const std::vector<double>& target);

/// The forward pass of `net` for one sample, one sequential bias-first dot
/// product per output, ReLU on hidden layers and softmax on the output.
/// FeedForwardNet::PredictInto and Forecaster::ForecastInto match it
/// bitwise; the batched GEMM forward to rounding error.
std::vector<double> Predict(const ml::NetSnapshot& net,
                            const std::vector<double>& x);

/// Trains `net` as FeedForwardNet::Train does (the same validation split,
/// shuffles, Adam steps and best-weight rule) but one sample at a time,
/// allocating as it goes. The batched trainer's loss curves and weights
/// agree with it to rounding error: only the summation order differs.
Result<ml::TrainReport> TrainPerSample(ml::FeedForwardNet* net,
                                       const ml::Matrix& X,
                                       const ml::Matrix& Y,
                                       const ml::TrainOptions& opts);

/// a * b as the naive triple loop, skipping zero entries of a: the
/// reference for the cache-blocked GEMM kernels.
ml::Matrix MatMul(const ml::Matrix& a, const ml::Matrix& b);

/// The codes of `seq`, one byte each, read one Get at a time.
std::vector<uint8_t> Unpacked(const core::CategorySequence& seq);

/// `codes`, one byte each, packed for `num_categories` categories one Set at
/// a time; each must be below 2^CategorySequence::WidthFor(num_categories).
core::CategorySequence Packed(size_t num_categories,
                              const std::vector<uint8_t>& codes);

/// Adds to counts[c], for every c < num_categories, how many of the bytes
/// in [begin, begin + n) equal c, by scanning them: the reference for
/// core::CategorySequence::CountInto, which reads a word at a time.
void CountCategoriesInto(const std::vector<uint8_t>& category_sequence,
                         size_t begin, size_t n, size_t num_categories,
                         uint32_t* counts);

/// Normalized category histogram of the [begin, end) slice of the sequence,
/// by scanning it; `end` is clamped to the sequence and an empty slice
/// reads uniform.
std::vector<double> CategoryHistogram(
    const std::vector<uint8_t>& category_sequence, size_t begin, size_t end,
    size_t num_categories);

/// The model input `forecaster` builds from the most recent history, by
/// scanning each of its split windows (Forecaster::SplitWindow) into a
/// normalized histogram. The engine's slid split counts, through
/// Forecaster::FeaturesFromSplitCountsInto, and BuildForecastDataset's
/// window-edge counts both match it bitwise.
void FeaturesFromHistoryInto(const core::Forecaster& forecaster,
                             const std::vector<uint8_t>& recent_categories,
                             double segment_seconds,
                             std::vector<double>* out);

/// k-means++ seeding and Lloyd's loop over one vector per point, the
/// restarts run one after another on the calling thread. ml::KMeansFit,
/// which reads a point matrix and fans its restarts out, matches it bitwise
/// on centers, assignments and inertia, for any pool and kernel backend.
Result<ml::KMeansModel> KMeansFit(
    const std::vector<std::vector<double>>& points,
    const ml::KMeansOptions& options);

/// The columns of `columns` as one vector per point: the points
/// ml::KMeansFit and ml::GmmFit read, in the form the oracle above takes.
std::vector<std::vector<double>> PointsOf(const ml::Matrix& columns);

/// maximize   c^T x
/// subject to A_ub x <= b_ub
///            A_eq x  = b_eq
///            x >= 0
///
/// This is the exact shape of the knob planner's program (§4.1): one
/// budget inequality plus one normalization equality per content category.
struct LinearProgram {
  std::vector<double> objective;          ///< c, length n
  std::vector<std::vector<double>> a_ub;  ///< rows of length n
  std::vector<double> b_ub;
  std::vector<std::vector<double>> a_eq;  ///< rows of length n
  std::vector<double> b_eq;

  size_t NumVariables() const { return objective.size(); }
};

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  /// The iteration guard was exhausted before optimality was proven. When
  /// the limit hit in phase 2, `x` holds the best feasible point found
  /// (best effort); when it hit in phase 1, `x` is empty and even
  /// feasibility is undetermined.
  kIterationLimit,
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  std::vector<double> x;
  double objective_value = 0.0;
};

struct LpOptions {
  /// Hard cap on simplex iterations per phase; 0 means an automatic guard
  /// scaled to the problem size. Exposed so the iteration-limit path is
  /// testable on small programs.
  size_t max_iterations = 0;
};

/// Dense two-phase primal simplex with Bland's anti-cycling rule. Intended
/// for the small programs the knob planners produce (|C|·|K| variables per
/// stream); fails on malformed input shapes.
Result<LpSolution> SolveLp(const LinearProgram& lp,
                           const LpOptions& options = {});

/// core::ComputeKnobPlan with the program solved by SolveLp on the dense
/// tableau instead of lp::MckpSolver: the same coefficients
/// (core::AppendPlanCoefficients), the same plan extraction
/// (core::ExtractPlan) and the same status codes. Both solvers are exact, so
/// the two plans agree on expected quality to fp round-off.
Result<core::KnobPlan> ComputeKnobPlan(
    const core::ContentCategories& categories,
    const std::vector<double>& forecast,
    const std::vector<double>& config_costs, double budget);

/// core::ComputeJointKnobPlan solved by SolveLp: one dense program of
/// (Σ C_v + 1) rows over all streams' V·C·K options.
Result<std::vector<core::KnobPlan>> ComputeJointKnobPlan(
    const std::vector<core::StreamPlanInput>& streams, double budget);

/// video::DiurnalContentProcess with every event of the horizon drawn at
/// construction, in the one candidate pass the process replays per day,
/// and kept in one sorted list. DiurnalContentProcess::At matches it
/// bitwise whatever day-blocks exist.
class EagerDiurnalContentProcess : public video::ContentProcess {
 public:
  explicit EagerDiurnalContentProcess(
      const video::DiurnalContentProcess::Options& options);

  video::ContentState At(SimTime t) const override;
  SimTime horizon() const override { return options_.horizon; }

 private:
  struct Event {
    SimTime start;
    double duration_s;
    double magnitude;
  };

  double EventBoost(SimTime t) const;

  video::DiurnalContentProcess::Options options_;
  video::SmoothNoise fine_noise_;
  video::SmoothNoise slow_noise_;
  video::SmoothNoise occlusion_noise_;
  video::SmoothNoise day_drift_;
  std::vector<Event> events_;
};

}  // namespace sky::oracle

#endif  // SKYSCRAPER_TESTS_SUPPORT_ORACLES_H_
