#include "ml/nn.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

namespace sky::ml {

namespace {

constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
constexpr double kLogEps = 1e-12;

/// Rows per chunk of the forward-only batched paths (PredictBatchInto). Pure
/// per-row computations: the chunking never affects values, only locality.
constexpr size_t kPredictChunkRows = 32;

/// The activation of a layer, in place: ReLU on a hidden layer, softmax on
/// the output layer.
void Activate(bool output_layer, std::vector<double>* v) {
  if (!output_layer) {
    for (double& x : *v) x = x > 0.0 ? x : 0.0;
    return;
  }
  double mx = *std::max_element(v->begin(), v->end());
  double sum = 0.0;
  for (double& x : *v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : *v) x /= sum;
}

/// Row-wise activation from pre-activations into a separate output buffer,
/// arithmetic-identical to Activate on each row.
void ActivateRowsInto(bool output_layer, const Matrix& pre, size_t m,
                      Matrix* out) {
  size_t w = pre.cols();
  out->Resize(m, w);
  if (!output_layer) {
    const double* src = pre.RowPtr(0);
    double* dst = out->RowPtr(0);
    for (size_t i = 0; i < m * w; ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
    return;
  }
  for (size_t i = 0; i < m; ++i) {
    const double* z = pre.RowPtr(i);
    double* o = out->RowPtr(i);
    double mx = z[0];
    for (size_t j = 1; j < w; ++j) mx = std::max(mx, z[j]);
    double sum = 0.0;
    for (size_t j = 0; j < w; ++j) {
      o[j] = std::exp(z[j] - mx);
      sum += o[j];
    }
    for (size_t j = 0; j < w; ++j) o[j] /= sum;
  }
}

/// Cross-entropy of one prediction row against its target distribution.
double CrossEntropyRow(const double* pred, const double* target, size_t n) {
  double out = 0.0;
  for (size_t i = 0; i < n; ++i) {
    out -= target[i] * std::log(pred[i] + kLogEps);
  }
  return out;
}

/// Copies the rows of src selected by idx[0..m) into out (resized, no
/// allocation once out's capacity covers the chunk).
void GatherRows(const Matrix& src, const size_t* idx, size_t m, Matrix* out) {
  size_t w = src.cols();
  out->Resize(m, w);
  for (size_t i = 0; i < m; ++i) {
    std::memcpy(out->RowPtr(i), src.RowPtr(idx[i]), w * sizeof(double));
  }
}

/// Contiguous-range gather: rows [begin, begin + m) in one copy.
void GatherRowRange(const Matrix& src, size_t begin, size_t m, Matrix* out) {
  size_t w = src.cols();
  out->Resize(m, w);
  std::memcpy(out->RowPtr(0), src.RowPtr(begin), m * w * sizeof(double));
}

}  // namespace

FeedForwardNet::FeedForwardNet(size_t input_dim, std::vector<size_t> hidden,
                               size_t output_dim, Rng* rng)
    : input_dim_(input_dim), output_dim_(output_dim) {
  size_t in = input_dim;
  for (size_t width : hidden) {
    Layer l;
    l.w = Matrix::RandomHe(width, in, rng);
    l.b.assign(width, 0.0);
    l.mw = Matrix(width, in, 0.0);
    l.vw = Matrix(width, in, 0.0);
    l.mb.assign(width, 0.0);
    l.vb.assign(width, 0.0);
    layers_.push_back(std::move(l));
    in = width;
  }
  Layer out;
  out.w = Matrix::RandomHe(output_dim, in, rng);
  out.b.assign(output_dim, 0.0);
  out.mw = Matrix(output_dim, in, 0.0);
  out.vw = Matrix(output_dim, in, 0.0);
  out.mb.assign(output_dim, 0.0);
  out.vb.assign(output_dim, 0.0);
  layers_.push_back(std::move(out));
}

size_t FeedForwardNet::NumParameters() const {
  size_t n = 0;
  for (const Layer& l : layers_) {
    n += l.w.rows() * l.w.cols() + l.b.size();
  }
  return n;
}

std::vector<double> FeedForwardNet::FlattenParameters() const {
  std::vector<double> flat;
  flat.reserve(NumParameters());
  for (const Layer& l : layers_) {
    flat.insert(flat.end(), l.w.data().begin(), l.w.data().end());
    flat.insert(flat.end(), l.b.begin(), l.b.end());
  }
  return flat;
}

NetSnapshot FeedForwardNet::Snapshot() const {
  NetSnapshot snap;
  snap.input_dim = input_dim_;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    snap.hidden.push_back(layers_[i].w.rows());
  }
  snap.output_dim = output_dim_;
  snap.adam_steps = adam_t_;
  snap.params = FlattenParameters();
  snap.adam_m.reserve(snap.params.size());
  snap.adam_v.reserve(snap.params.size());
  for (const Layer& l : layers_) {
    snap.adam_m.insert(snap.adam_m.end(), l.mw.data().begin(),
                       l.mw.data().end());
    snap.adam_m.insert(snap.adam_m.end(), l.mb.begin(), l.mb.end());
    snap.adam_v.insert(snap.adam_v.end(), l.vw.data().begin(),
                       l.vw.data().end());
    snap.adam_v.insert(snap.adam_v.end(), l.vb.begin(), l.vb.end());
  }
  return snap;
}

Result<FeedForwardNet> FeedForwardNet::FromSnapshot(
    const NetSnapshot& snapshot) {
  if (snapshot.input_dim == 0 || snapshot.output_dim == 0) {
    return Status::InvalidArgument("net snapshot has zero-width layers");
  }
  for (size_t width : snapshot.hidden) {
    if (width == 0) {
      return Status::InvalidArgument("net snapshot has zero-width layers");
    }
  }
  // Build the architecture (the random initialization is overwritten below),
  // then restore every parameter and both Adam moment tensors in the
  // FlattenParameters layout.
  Rng rng(0);
  FeedForwardNet net(snapshot.input_dim, snapshot.hidden, snapshot.output_dim,
                     &rng);
  size_t expected = net.NumParameters();
  if (snapshot.params.size() != expected ||
      snapshot.adam_m.size() != expected ||
      snapshot.adam_v.size() != expected) {
    return Status::InvalidArgument(
        "net snapshot parameter count does not match its architecture");
  }
  size_t offset = 0;
  for (Layer& l : net.layers_) {
    size_t nw = l.w.rows() * l.w.cols();
    std::copy(snapshot.params.begin() + offset,
              snapshot.params.begin() + offset + nw, l.w.data().begin());
    std::copy(snapshot.adam_m.begin() + offset,
              snapshot.adam_m.begin() + offset + nw, l.mw.data().begin());
    std::copy(snapshot.adam_v.begin() + offset,
              snapshot.adam_v.begin() + offset + nw, l.vw.data().begin());
    offset += nw;
    size_t nb = l.b.size();
    std::copy(snapshot.params.begin() + offset,
              snapshot.params.begin() + offset + nb, l.b.begin());
    std::copy(snapshot.adam_m.begin() + offset,
              snapshot.adam_m.begin() + offset + nb, l.mb.begin());
    std::copy(snapshot.adam_v.begin() + offset,
              snapshot.adam_v.begin() + offset + nb, l.vb.begin());
    offset += nb;
  }
  net.adam_t_ = snapshot.adam_steps;
  return net;
}

void FeedForwardNet::PredictInto(const std::vector<double>& x,
                                 PredictScratch* scratch,
                                 std::vector<double>* out) const {
  assert(x.size() == input_dim_);
  // Bias-first sequential dot products, ping-ponging between the two
  // scratch buffers instead of allocating per layer.
  const double* cur = x.data();
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    std::vector<double>& dst = (li % 2 == 0) ? scratch->even : scratch->odd;
    dst.resize(l.w.rows());
    for (size_t r = 0; r < l.w.rows(); ++r) {
      const double* wrow = l.w.RowPtr(r);
      double s = l.b[r];
      for (size_t c = 0; c < l.w.cols(); ++c) s += wrow[c] * cur[c];
      dst[r] = s;
    }
    Activate(li + 1 == layers_.size(), &dst);
    cur = dst.data();
  }
  out->resize(output_dim_);
  std::memcpy(out->data(), cur, output_dim_ * sizeof(double));
}

void FeedForwardNet::SizeWorkspace(Workspace* ws, size_t max_rows,
                                   bool with_backward) const {
  size_t num_layers = layers_.size();
  if (ws->act.size() != num_layers + 1) {
    ws->wt.resize(num_layers);
    ws->act.resize(num_layers + 1);
    ws->pre.resize(num_layers);
  }
  ws->act[0].Resize(max_rows, input_dim_);
  for (size_t l = 0; l < num_layers; ++l) {
    ws->act[l + 1].Resize(max_rows, layers_[l].w.rows());
    ws->pre[l].Resize(max_rows, layers_[l].w.rows());
  }
  ws->yb.Resize(max_rows, output_dim_);
  if (ws->row_loss.size() < max_rows) ws->row_loss.resize(max_rows);
  if (!with_backward) return;
  if (ws->delta.size() != num_layers) {
    ws->delta.resize(num_layers);
    ws->gw.resize(num_layers);
    ws->gb.resize(num_layers);
  }
  for (size_t l = 0; l < num_layers; ++l) {
    ws->delta[l].Resize(max_rows, layers_[l].w.rows());
    ws->gw[l].Resize(layers_[l].w.rows(), layers_[l].w.cols());
    ws->gb[l].resize(layers_[l].b.size());
  }
}

void FeedForwardNet::TransposeWeights(Workspace* ws) const {
  // O(params) into reused capacity, dwarfed by the GEMM work it speeds up.
  for (size_t l = 0; l < layers_.size(); ++l) {
    layers_[l].w.TransposeInto(&ws->wt[l]);
  }
}

void FeedForwardNet::ForwardChunk(Workspace* ws, size_t m) const {
  assert(ws->act[0].rows() == m);
  for (size_t l = 0; l < layers_.size(); ++l) {
    // Fused affine layer against the transposed weights: pre = act * W^T + b
    // as one row-major GEMM pass.
    MatMulBiasInto(ws->act[l], ws->wt[l], layers_[l].b, &ws->pre[l]);
    ActivateRowsInto(l + 1 == layers_.size(), ws->pre[l], m,
                     &ws->act[l + 1]);
  }
}

void FeedForwardNet::OutputDeltaAndLoss(Workspace* ws, size_t m) const {
  const Matrix& pred = ws->act.back();
  Matrix& delta = ws->delta.back();
  size_t w = output_dim_;
  delta.Resize(m, w);
  for (size_t i = 0; i < m; ++i) {
    const double* p = pred.RowPtr(i);
    const double* y = ws->yb.RowPtr(i);
    double* d = delta.RowPtr(i);
    ws->row_loss[i] = CrossEntropyRow(p, y, w);
    // Softmax + cross-entropy: the output delta is pred - y.
    for (size_t j = 0; j < w; ++j) d[j] = p[j] - y[j];
  }
}

void FeedForwardNet::BackwardChunk(Workspace* ws, size_t m) const {
  for (size_t li = layers_.size(); li-- > 0;) {
    const Layer& l = layers_[li];
    const Matrix& delta = ws->delta[li];
    // grad_w = delta^T * a_in: rank-1 updates in sample order, the batched
    // twin of the per-sample reference accumulation in tests/support.
    MatMulTransposedAInto(delta, ws->act[li], &ws->gw[li]);
    std::vector<double>& gb = ws->gb[li];
    std::fill(gb.begin(), gb.end(), 0.0);
    for (size_t i = 0; i < m; ++i) {
      const double* d = delta.RowPtr(i);
      for (size_t r = 0; r < gb.size(); ++r) gb[r] += d[r];
    }
    if (li == 0) break;
    // Propagate delta through W and the previous layer's ReLU.
    Matrix& prev = ws->delta[li - 1];
    MatMulInto(delta, l.w, &prev);
    const double* z = ws->pre[li - 1].RowPtr(0);
    double* d = prev.RowPtr(0);
    for (size_t i = 0; i < m * prev.cols(); ++i) {
      if (z[i] <= 0.0) d[i] = 0.0;
    }
  }
}

void FeedForwardNet::AdamStep(const std::vector<Matrix>& grad_w,
                              const std::vector<std::vector<double>>& grad_b,
                              double lr, size_t batch) {
  ++adam_t_;
  double bc1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(adam_t_));
  double bc2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(adam_t_));
  double inv_batch = 1.0 / static_cast<double>(batch);
  for (size_t li = 0; li < layers_.size(); ++li) {
    Layer& l = layers_[li];
    const double* __restrict gw = grad_w[li].data().data();
    double* __restrict w = l.w.data().data();
    double* __restrict mw = l.mw.data().data();
    double* __restrict vw = l.vw.data().data();
    size_t w_size = l.w.data().size();
    for (size_t i = 0; i < w_size; ++i) {
      double g = gw[i] * inv_batch;
      mw[i] = kAdamBeta1 * mw[i] + (1.0 - kAdamBeta1) * g;
      vw[i] = kAdamBeta2 * vw[i] + (1.0 - kAdamBeta2) * g * g;
      double mhat = mw[i] / bc1;
      double vhat = vw[i] / bc2;
      w[i] -= lr * mhat / (std::sqrt(vhat) + kAdamEps);
    }
    for (size_t i = 0; i < l.b.size(); ++i) {
      double g = grad_b[li][i] * inv_batch;
      l.mb[i] = kAdamBeta1 * l.mb[i] + (1.0 - kAdamBeta1) * g;
      l.vb[i] = kAdamBeta2 * l.vb[i] + (1.0 - kAdamBeta2) * g * g;
      double mhat = l.mb[i] / bc1;
      double vhat = l.vb[i] / bc2;
      l.b[i] -= lr * mhat / (std::sqrt(vhat) + kAdamEps);
    }
  }
}

double FeedForwardNet::EvalLossBatched(const Matrix& X, const Matrix& Y,
                                       const std::vector<size_t>& idx,
                                       size_t chunk_rows,
                                       Workspace* ws) const {
  if (idx.empty()) return 0.0;
  // Forward-only work: per-row results are independent of the chunking, so
  // evaluation can use wider chunks than the gradient path for better
  // kernel amortization without affecting any value.
  size_t rows = std::max(kPredictChunkRows, std::max<size_t>(1, chunk_rows));
  SizeWorkspace(ws, rows, /*with_backward=*/false);
  double total = 0.0;
  for (size_t begin = 0; begin < idx.size(); begin += rows) {
    size_t m = std::min(rows, idx.size() - begin);
    GatherRows(X, idx.data() + begin, m, &ws->act[0]);
    GatherRows(Y, idx.data() + begin, m, &ws->yb);
    ForwardChunk(ws, m);
    // Per-row losses summed in sample order.
    for (size_t i = 0; i < m; ++i) {
      total += CrossEntropyRow(ws->act.back().RowPtr(i), ws->yb.RowPtr(i),
                               output_dim_);
    }
  }
  return total / static_cast<double>(idx.size());
}

void FeedForwardNet::PredictBatchInto(const Matrix& X, Matrix* out) const {
  assert(X.cols() == input_dim_);
  size_t n = X.rows();
  out->Resize(n, output_dim_);
  if (n == 0) return;
  Workspace ws;
  SizeWorkspace(&ws, kPredictChunkRows, /*with_backward=*/false);
  TransposeWeights(&ws);
  for (size_t begin = 0; begin < n; begin += kPredictChunkRows) {
    size_t m = std::min(kPredictChunkRows, n - begin);
    GatherRowRange(X, begin, m, &ws.act[0]);
    ForwardChunk(&ws, m);
    std::memcpy(out->RowPtr(begin), ws.act.back().RowPtr(0),
                m * output_dim_ * sizeof(double));
  }
}

Result<TrainReport> FeedForwardNet::Train(const Matrix& X, const Matrix& Y,
                                          const TrainOptions& opts) {
  if (X.rows() != Y.rows()) {
    return Status::InvalidArgument("X and Y row counts differ");
  }
  if (X.cols() != input_dim_ || Y.cols() != output_dim_) {
    return Status::InvalidArgument("X/Y widths do not match network shape");
  }
  if (X.rows() < 2) {
    return Status::InvalidArgument("need at least 2 training samples");
  }
  if (opts.batch_size == 0 || opts.epochs == 0) {
    return Status::InvalidArgument("batch_size and epochs must be positive");
  }

  std::vector<size_t> order(X.rows());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(opts.shuffle_seed);
  rng.Shuffle(&order);

  size_t n_val = static_cast<size_t>(
      std::floor(opts.validation_split * static_cast<double>(X.rows())));
  n_val = std::min(n_val, X.rows() - 1);
  std::vector<size_t> val_idx(order.begin(), order.begin() + n_val);
  std::vector<size_t> train_idx(order.begin() + n_val, order.end());

  TrainReport report;
  report.best_val_loss = std::numeric_limits<double>::infinity();

  // Snapshot of the best weights (by validation loss), restored at the end.
  std::vector<Layer> best_layers = layers_;

  size_t chunk_rows = std::max<size_t>(1, opts.grad_chunk_rows);
  Workspace ws;
  SizeWorkspace(&ws, chunk_rows, /*with_backward=*/true);
  TransposeWeights(&ws);
  // The minibatch gradient: every chunk's gradient is added in chunk order.
  std::vector<Matrix> grad_w(layers_.size());
  std::vector<std::vector<double>> grad_b(layers_.size());
  for (size_t li = 0; li < layers_.size(); ++li) {
    grad_w[li].Resize(layers_[li].w.rows(), layers_[li].w.cols());
    grad_b[li].resize(layers_[li].b.size());
  }

  for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    double epoch_loss = 0.0;
    size_t pos = 0;
    while (pos < train_idx.size()) {
      size_t batch = std::min(opts.batch_size, train_idx.size() - pos);
      for (auto& g : grad_w) g.Fill(0.0);
      for (auto& g : grad_b) std::fill(g.begin(), g.end(), 0.0);
      for (size_t begin = pos; begin < pos + batch; begin += chunk_rows) {
        size_t m = std::min(chunk_rows, pos + batch - begin);
        GatherRows(X, train_idx.data() + begin, m, &ws.act[0]);
        GatherRows(Y, train_idx.data() + begin, m, &ws.yb);
        ForwardChunk(&ws, m);
        OutputDeltaAndLoss(&ws, m);
        BackwardChunk(&ws, m);
        for (size_t li = 0; li < layers_.size(); ++li) {
          grad_w[li].AddScaled(ws.gw[li], 1.0);
          for (size_t r = 0; r < grad_b[li].size(); ++r) {
            grad_b[li][r] += ws.gb[li][r];
          }
        }
        for (size_t i = 0; i < m; ++i) epoch_loss += ws.row_loss[i];
      }
      AdamStep(grad_w, grad_b, opts.learning_rate, batch);
      TransposeWeights(&ws);
      pos += batch;
    }
    epoch_loss /= static_cast<double>(std::max<size_t>(1, train_idx.size()));
    report.train_loss_per_epoch.push_back(epoch_loss);

    double val_loss = val_idx.empty()
                          ? epoch_loss
                          : EvalLossBatched(X, Y, val_idx, chunk_rows, &ws);
    report.val_loss_per_epoch.push_back(val_loss);
    if (val_loss < report.best_val_loss) {
      report.best_val_loss = val_loss;
      report.best_epoch = epoch;
      if (opts.keep_best_validation_weights) best_layers = layers_;
    }
  }

  if (opts.keep_best_validation_weights) layers_ = std::move(best_layers);
  return report;
}

void FeedForwardNet::OnlineUpdate(const std::vector<double>& x,
                                  const std::vector<double>& y,
                                  double learning_rate) {
  assert(x.size() == input_dim_ && y.size() == output_dim_);
  // A batch-1 step of the batched trainer against this thread's workspace:
  // once the thread has updated a net of this shape, everything below
  // reuses capacity, so a plan boundary allocates nothing. Every net the
  // thread updates shares it, so each call transposes its own weights.
  thread_local Workspace ws;
  SizeWorkspace(&ws, 1, /*with_backward=*/true);
  TransposeWeights(&ws);
  ws.act[0].Resize(1, input_dim_);
  std::memcpy(ws.act[0].RowPtr(0), x.data(), input_dim_ * sizeof(double));
  ws.yb.Resize(1, output_dim_);
  std::memcpy(ws.yb.RowPtr(0), y.data(), output_dim_ * sizeof(double));
  ForwardChunk(&ws, 1);
  OutputDeltaAndLoss(&ws, 1);
  BackwardChunk(&ws, 1);
  // A single chunk's gradient is the whole gradient; feed it to Adam
  // directly.
  AdamStep(ws.gw, ws.gb, learning_rate, 1);
}

}  // namespace sky::ml
