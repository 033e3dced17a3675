#ifndef SKYSCRAPER_ML_NN_H_
#define SKYSCRAPER_ML_NN_H_

#include <cstddef>
#include <vector>

#include "ml/matrix.h"
#include "util/result.h"
#include "util/rng.h"

namespace sky::ml {

struct TrainOptions {
  size_t epochs = 40;
  size_t batch_size = 16;
  double learning_rate = 1e-2;
  double validation_split = 0.2;  ///< fraction of samples held out
  uint64_t shuffle_seed = 7;
  bool keep_best_validation_weights = true;
  /// Samples per gradient chunk: each minibatch runs as chunks of this many
  /// rows, one after another, and each chunk's gradient is added to the
  /// minibatch sum in chunk order. Against the per-sample reference trainer
  /// in tests/support the trajectory agrees to rounding error (the GEMM
  /// kernels' fixed contractions and chunked gradient sums associate
  /// differently).
  size_t grad_chunk_rows = 8;
};

struct TrainReport {
  std::vector<double> train_loss_per_epoch;
  std::vector<double> val_loss_per_epoch;
  double best_val_loss = 0.0;
  size_t best_epoch = 0;
};

/// Ping-pong activation buffers for single-sample inference; reused across
/// calls so PredictInto allocates nothing at steady state.
struct PredictScratch {
  std::vector<double> even;
  std::vector<double> odd;
};

/// The complete persistent state of a FeedForwardNet as plain values: the
/// architecture plus every trainable parameter AND the Adam optimizer
/// moments. Produced by FeedForwardNet::Snapshot() and consumed by
/// FromSnapshot(); the round trip is bitwise — including the optimizer
/// state, so a restored net continues OnlineUpdate fine-tuning exactly
/// where the original would. The flat vectors use the FlattenParameters
/// layout (per layer: weights row-major, then biases).
struct NetSnapshot {
  size_t input_dim = 0;
  std::vector<size_t> hidden;  ///< hidden widths (always ReLU)
  size_t output_dim = 0;       ///< softmax output width
  uint64_t adam_steps = 0;  ///< Adam's bias-correction step counter t
  std::vector<double> params;  ///< weights+biases, FlattenParameters order
  std::vector<double> adam_m;  ///< first moments, same layout
  std::vector<double> adam_v;  ///< second moments, same layout
};

/// A small fully connected network trained with Adam on cross-entropy. This
/// is the forecasting model of the paper (Appendix K): input -> 16 ReLU ->
/// 8 ReLU -> |C| softmax. It is intentionally minimal — no autograd graph,
/// just dense layers with ReLU hidden layers and a softmax output.
class FeedForwardNet {
 public:
  /// Builds a network with the given layer widths. `input_dim` is the width of
  /// the input; `hidden` lists hidden widths (ReLU); `output_dim` is the width
  /// of the softmax output layer.
  FeedForwardNet(size_t input_dim, std::vector<size_t> hidden,
                 size_t output_dim, Rng* rng);

  size_t input_dim() const { return input_dim_; }
  size_t output_dim() const { return output_dim_; }

  /// Forward pass for a single sample into a caller-owned buffer, reusing
  /// `scratch` across calls: zero heap allocation at steady state. Each
  /// layer is a bias-first sequential dot product per output, so the result
  /// is bitwise the reference forward in tests/support.
  void PredictInto(const std::vector<double>& x, PredictScratch* scratch,
                   std::vector<double>* out) const;

  /// Batched forward pass: row i of `out` (resized to X.rows() x output_dim)
  /// is the prediction for row i of X. Rows run in fixed-size chunks
  /// through one workspace sized for the call, which also holds the
  /// transposed weights.
  void PredictBatchInto(const Matrix& X, Matrix* out) const;

  /// Trains on rows of X against rows of Y (target distributions) with Adam
  /// on cross-entropy: minibatch forward/backward as cache-blocked matrix
  /// ops against a workspace local to the call, one gradient chunk at a time
  /// (TrainOptions::grad_chunk_rows). Returns per-epoch loss curves. Fails if
  /// shapes disagree or there are too few samples to split.
  Result<TrainReport> Train(const Matrix& X, const Matrix& Y,
                            const TrainOptions& opts);

  /// One incremental Adam step on a single (x, y) pair — used for online
  /// fine-tuning of the forecaster during ingestion (§3.3). Runs the batched
  /// path with batch 1 against the calling thread's workspace, shared by
  /// every net the thread updates: once the thread has updated a net of
  /// this shape, no heap allocation. Concurrent calls on distinct nets are
  /// safe.
  void OnlineUpdate(const std::vector<double>& x, const std::vector<double>& y,
                    double learning_rate);

  /// Number of trainable parameters.
  size_t NumParameters() const;

  /// All parameters (per layer: weights row-major, then biases) as one flat
  /// vector — the bit-identity comparison handle for determinism tests and
  /// OfflineModelsIdentical.
  std::vector<double> FlattenParameters() const;

  /// Full persistent state (architecture + parameters + Adam moments) as
  /// plain values, for serialization.
  NetSnapshot Snapshot() const;

  /// Reassembles a net from a snapshot; the inverse of Snapshot(), bitwise.
  /// Fails on inconsistent dimensions (flat vector sizes must match the
  /// architecture exactly).
  static Result<FeedForwardNet> FromSnapshot(const NetSnapshot& snapshot);

 private:
  struct Layer {
    Matrix w;  // out x in
    std::vector<double> b;
    // Adam state.
    Matrix mw, vw;
    std::vector<double> mb, vb;
  };

  /// One chunk's buffers for the batched trainer and batched inference:
  /// every matrix is sized on first use and reused, so steady-state training
  /// steps and OnlineUpdate calls allocate nothing. A net holds none: Train
  /// and PredictBatchInto own one per call and OnlineUpdate uses one per
  /// thread, so a copy of a net carries only its parameters and Adam state.
  struct Workspace {
    /// wt[l] is layer l's w transposed (in x out), so the batched forward is
    /// a row-major GEMM. TransposeWeights fills it at the start of every
    /// call and again after each of Train's Adam steps.
    std::vector<Matrix> wt;
    /// act[0] holds the gathered input rows; act[l + 1] layer l's output.
    std::vector<Matrix> act;
    std::vector<Matrix> pre;    ///< pre-activations per layer
    std::vector<Matrix> delta;  ///< backprop deltas per layer
    std::vector<Matrix> gw;     ///< the chunk's weight gradients per layer
    std::vector<std::vector<double>> gb;  ///< the chunk's bias gradients
    Matrix yb;                  ///< gathered target rows
    std::vector<double> row_loss;
  };

  void AdamStep(const std::vector<Matrix>& grad_w,
                const std::vector<std::vector<double>>& grad_b, double lr,
                size_t batch);

  /// Sizes `ws` for a chunk of up to `max_rows` samples. `with_backward`
  /// also sizes the delta/gradient buffers.
  void SizeWorkspace(Workspace* ws, size_t max_rows, bool with_backward) const;
  /// Writes every layer's w transposed into ws->wt.
  void TransposeWeights(Workspace* ws) const;
  /// Forward pass over the m gathered rows of ws->act[0] against ws->wt.
  void ForwardChunk(Workspace* ws, size_t m) const;
  /// Per-row losses + output-layer delta from act.back() vs yb.
  void OutputDeltaAndLoss(Workspace* ws, size_t m) const;
  /// Backprop through all layers; fills ws->gw / ws->gb.
  void BackwardChunk(Workspace* ws, size_t m) const;
  /// Mean validation loss: forward in chunks of at least `chunk_rows`,
  /// per-row losses summed in `idx` order, as the reference trainer in
  /// tests/support sums them (the forwards use the GEMM kernels, so the two
  /// values agree to rounding error, not bitwise).
  double EvalLossBatched(const Matrix& X, const Matrix& Y,
                         const std::vector<size_t>& idx, size_t chunk_rows,
                         Workspace* ws) const;

  std::vector<Layer> layers_;
  size_t input_dim_;
  size_t output_dim_;
  size_t adam_t_ = 0;
};

}  // namespace sky::ml

#endif  // SKYSCRAPER_ML_NN_H_
