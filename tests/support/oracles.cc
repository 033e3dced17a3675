#include "support/oracles.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/rng.h"
#include "util/stats.h"

namespace sky::oracle {

namespace {

// The trainer's constants, as FeedForwardNet uses them.
constexpr double kAdamBeta1 = 0.9;
constexpr double kAdamBeta2 = 0.999;
constexpr double kAdamEps = 1e-8;
constexpr double kLogEps = 1e-12;

/// One dense layer and its Adam moments.
struct Layer {
  ml::Matrix w;  // out x in
  std::vector<double> b;
  ml::Matrix mw, vw;
  std::vector<double> mb, vb;
};

/// A network unpacked from its snapshot into per-layer matrices.
struct Net {
  std::vector<Layer> layers;
  size_t adam_t = 0;
};

struct ForwardCache {
  // activations[0] = input, activations[i] = output of layer i-1.
  std::vector<std::vector<double>> activations;
  std::vector<std::vector<double>> pre_activations;
};

Net Unpack(const ml::NetSnapshot& snap) {
  std::vector<size_t> widths = snap.hidden;
  widths.push_back(snap.output_dim);
  Net net;
  net.adam_t = snap.adam_steps;
  size_t in = snap.input_dim;
  size_t offset = 0;
  for (size_t width : widths) {
    Layer l;
    auto take = [&](const std::vector<double>& flat, size_t n) {
      return std::vector<double>(flat.begin() + offset,
                                 flat.begin() + offset + n);
    };
    l.w = ml::Matrix(width, in);
    l.mw = ml::Matrix(width, in);
    l.vw = ml::Matrix(width, in);
    l.w.data() = take(snap.params, width * in);
    l.mw.data() = take(snap.adam_m, width * in);
    l.vw.data() = take(snap.adam_v, width * in);
    offset += width * in;
    l.b = take(snap.params, width);
    l.mb = take(snap.adam_m, width);
    l.vb = take(snap.adam_v, width);
    offset += width;
    net.layers.push_back(std::move(l));
    in = width;
  }
  return net;
}

/// The snapshot of `net` over the architecture of `arch`.
ml::NetSnapshot Pack(const Net& net, const ml::NetSnapshot& arch) {
  ml::NetSnapshot snap;
  snap.input_dim = arch.input_dim;
  snap.hidden = arch.hidden;
  snap.output_dim = arch.output_dim;
  snap.adam_steps = net.adam_t;
  for (const Layer& l : net.layers) {
    snap.params.insert(snap.params.end(), l.w.data().begin(),
                       l.w.data().end());
    snap.params.insert(snap.params.end(), l.b.begin(), l.b.end());
    snap.adam_m.insert(snap.adam_m.end(), l.mw.data().begin(),
                       l.mw.data().end());
    snap.adam_m.insert(snap.adam_m.end(), l.mb.begin(), l.mb.end());
    snap.adam_v.insert(snap.adam_v.end(), l.vw.data().begin(),
                       l.vw.data().end());
    snap.adam_v.insert(snap.adam_v.end(), l.vb.begin(), l.vb.end());
  }
  return snap;
}

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

std::vector<double> Forward(const Net& net, const std::vector<double>& x,
                            ForwardCache* cache) {
  std::vector<double> cur = x;
  if (cache != nullptr) {
    cache->activations.clear();
    cache->pre_activations.clear();
    cache->activations.push_back(cur);
  }
  for (size_t li = 0; li < net.layers.size(); ++li) {
    const Layer& l = net.layers[li];
    std::vector<double> next(l.w.rows(), 0.0);
    for (size_t r = 0; r < l.w.rows(); ++r) {
      const double* wrow = l.w.RowPtr(r);
      double s = l.b[r];
      for (size_t c = 0; c < l.w.cols(); ++c) s += wrow[c] * cur[c];
      next[r] = s;
    }
    if (cache != nullptr) cache->pre_activations.push_back(next);
    Activate(li + 1 == net.layers.size(), &next);
    if (cache != nullptr) cache->activations.push_back(next);
    cur = std::move(next);
  }
  return cur;
}

/// Backprop for one sample; accumulates gradients into grad_w / grad_b and
/// returns the sample's loss.
double BackwardAccumulate(const Net& net, const std::vector<double>& x,
                          const std::vector<double>& y,
                          std::vector<ml::Matrix>* grad_w,
                          std::vector<std::vector<double>>* grad_b) {
  ForwardCache cache;
  std::vector<double> pred = Forward(net, x, &cache);
  double sample_loss = ComputeLoss(pred, y);

  // Softmax + cross-entropy: the output-layer delta is pred - y.
  std::vector<double> delta(pred.size());
  for (size_t i = 0; i < pred.size(); ++i) delta[i] = pred[i] - y[i];

  for (size_t li = net.layers.size(); li-- > 0;) {
    const Layer& l = net.layers[li];
    const std::vector<double>& a_in = cache.activations[li];
    ml::Matrix& gw = (*grad_w)[li];
    std::vector<double>& gb = (*grad_b)[li];
    for (size_t r = 0; r < l.w.rows(); ++r) {
      gb[r] += delta[r];
      double* grow = gw.RowPtr(r);
      double d = delta[r];
      if (d == 0.0) continue;
      for (size_t c = 0; c < l.w.cols(); ++c) grow[c] += d * a_in[c];
    }
    if (li == 0) break;
    // Propagate delta through W and the previous layer's ReLU.
    std::vector<double> prev_delta(l.w.cols(), 0.0);
    for (size_t r = 0; r < l.w.rows(); ++r) {
      const double* wrow = l.w.RowPtr(r);
      double d = delta[r];
      if (d == 0.0) continue;
      for (size_t c = 0; c < l.w.cols(); ++c) prev_delta[c] += d * wrow[c];
    }
    const auto& prev_pre = cache.pre_activations[li - 1];
    for (size_t c = 0; c < prev_delta.size(); ++c) {
      if (prev_pre[c] <= 0.0) prev_delta[c] = 0.0;
    }
    delta = std::move(prev_delta);
  }
  return sample_loss;
}

void AdamStep(const std::vector<ml::Matrix>& grad_w,
              const std::vector<std::vector<double>>& grad_b, double lr,
              size_t batch, Net* net) {
  ++net->adam_t;
  double bc1 = 1.0 - std::pow(kAdamBeta1, static_cast<double>(net->adam_t));
  double bc2 = 1.0 - std::pow(kAdamBeta2, static_cast<double>(net->adam_t));
  double inv_batch = 1.0 / static_cast<double>(batch);
  for (size_t li = 0; li < net->layers.size(); ++li) {
    Layer& l = net->layers[li];
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

double EvalLoss(const Net& net, const ml::Matrix& X, const ml::Matrix& Y,
                const std::vector<size_t>& idx) {
  if (idx.empty()) return 0.0;
  double total = 0.0;
  for (size_t i : idx) {
    std::vector<double> pred = Forward(net, X.Row(i), nullptr);
    total += ComputeLoss(pred, Y.Row(i));
  }
  return total / static_cast<double>(idx.size());
}

}  // namespace

double ComputeLoss(const std::vector<double>& pred,
                   const std::vector<double>& target) {
  assert(pred.size() == target.size());
  double out = 0.0;
  for (size_t i = 0; i < pred.size(); ++i) {
    out -= target[i] * std::log(pred[i] + kLogEps);
  }
  return out;
}

std::vector<double> Predict(const ml::NetSnapshot& net,
                            const std::vector<double>& x) {
  assert(x.size() == net.input_dim);
  return Forward(Unpack(net), x, nullptr);
}

Result<ml::TrainReport> TrainPerSample(ml::FeedForwardNet* net,
                                       const ml::Matrix& X,
                                       const ml::Matrix& Y,
                                       const ml::TrainOptions& opts) {
  if (X.rows() != Y.rows()) {
    return Status::InvalidArgument("X and Y row counts differ");
  }
  if (X.cols() != net->input_dim() || Y.cols() != net->output_dim()) {
    return Status::InvalidArgument("X/Y widths do not match network shape");
  }
  if (X.rows() < 2) {
    return Status::InvalidArgument("need at least 2 training samples");
  }
  if (opts.batch_size == 0 || opts.epochs == 0) {
    return Status::InvalidArgument("batch_size and epochs must be positive");
  }
  const ml::NetSnapshot start = net->Snapshot();
  Net n = Unpack(start);

  std::vector<size_t> order(X.rows());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(opts.shuffle_seed);
  rng.Shuffle(&order);

  size_t n_val = static_cast<size_t>(
      std::floor(opts.validation_split * static_cast<double>(X.rows())));
  n_val = std::min(n_val, X.rows() - 1);
  std::vector<size_t> val_idx(order.begin(), order.begin() + n_val);
  std::vector<size_t> train_idx(order.begin() + n_val, order.end());

  ml::TrainReport report;
  report.best_val_loss = std::numeric_limits<double>::infinity();

  // The best layers by validation loss, moments included, restored at the
  // end; the Adam step counter is not.
  std::vector<Layer> best_layers = n.layers;
  std::vector<ml::Matrix> grad_w;
  std::vector<std::vector<double>> grad_b;
  for (const Layer& l : n.layers) {
    grad_w.emplace_back(l.w.rows(), l.w.cols(), 0.0);
    grad_b.emplace_back(l.b.size(), 0.0);
  }

  for (size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    double epoch_loss = 0.0;
    size_t pos = 0;
    while (pos < train_idx.size()) {
      size_t batch = std::min(opts.batch_size, train_idx.size() - pos);
      for (auto& g : grad_w) g.Fill(0.0);
      for (auto& g : grad_b) std::fill(g.begin(), g.end(), 0.0);
      for (size_t b = 0; b < batch; ++b) {
        size_t i = train_idx[pos + b];
        epoch_loss +=
            BackwardAccumulate(n, X.Row(i), Y.Row(i), &grad_w, &grad_b);
      }
      AdamStep(grad_w, grad_b, opts.learning_rate, batch, &n);
      pos += batch;
    }
    epoch_loss /= static_cast<double>(std::max<size_t>(1, train_idx.size()));
    report.train_loss_per_epoch.push_back(epoch_loss);

    double val_loss =
        val_idx.empty() ? epoch_loss : EvalLoss(n, X, Y, val_idx);
    report.val_loss_per_epoch.push_back(val_loss);
    if (val_loss < report.best_val_loss) {
      report.best_val_loss = val_loss;
      report.best_epoch = epoch;
      if (opts.keep_best_validation_weights) best_layers = n.layers;
    }
  }

  if (opts.keep_best_validation_weights) n.layers = std::move(best_layers);
  SKY_ASSIGN_OR_RETURN(*net, ml::FeedForwardNet::FromSnapshot(Pack(n, start)));
  return report;
}

ml::Matrix MatMul(const ml::Matrix& a, const ml::Matrix& b) {
  assert(a.cols() == b.rows());
  ml::Matrix out(a.rows(), b.cols(), 0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double v = a.At(i, k);
      if (v == 0.0) continue;
      const double* brow = b.RowPtr(k);
      double* orow = out.RowPtr(i);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += v * brow[j];
    }
  }
  return out;
}

std::vector<uint8_t> Unpacked(const core::CategorySequence& seq) {
  std::vector<uint8_t> codes(seq.size());
  for (size_t i = 0; i < codes.size(); ++i) codes[i] = seq.Get(i);
  return codes;
}

core::CategorySequence Packed(size_t num_categories,
                              const std::vector<uint8_t>& codes) {
  core::CategorySequence seq(num_categories, codes.size());
  for (size_t i = 0; i < codes.size(); ++i) seq.Set(i, codes[i]);
  return seq;
}

void CountCategoriesInto(const std::vector<uint8_t>& category_sequence,
                         size_t begin, size_t n, size_t num_categories,
                         uint32_t* counts) {
  for (size_t i = begin; i < begin + n; ++i) {
    if (category_sequence[i] < num_categories) ++counts[category_sequence[i]];
  }
}

std::vector<double> CategoryHistogram(
    const std::vector<uint8_t>& category_sequence, size_t begin, size_t end,
    size_t num_categories) {
  std::vector<double> hist(num_categories, 0.0);
  end = std::min(end, category_sequence.size());
  for (size_t i = begin; i < end; ++i) {
    if (category_sequence[i] < num_categories) {
      hist[category_sequence[i]] += 1.0;
    }
  }
  return NormalizeHistogram(std::move(hist));
}

void FeaturesFromHistoryInto(const core::Forecaster& forecaster,
                             const std::vector<uint8_t>& recent_categories,
                             double segment_seconds,
                             std::vector<double>* out) {
  const size_t splits = forecaster.options().input_splits;
  const size_t num_c = forecaster.num_categories();
  const size_t available = recent_categories.size();
  out->assign(splits * num_c, 0.0);
  for (size_t split = 0; split < splits; ++split) {
    auto [begin, end] =
        forecaster.SplitWindow(split, available, segment_seconds);
    double* slice = out->data() + split * num_c;
    for (size_t i = begin; i < end; ++i) {
      if (recent_categories[i] < num_c) slice[recent_categories[i]] += 1.0;
    }
    // Normalized; an empty split reads uniform.
    double total = 0.0;
    for (size_t c = 0; c < num_c; ++c) total += slice[c];
    if (total <= 0.0) {
      double u = 1.0 / static_cast<double>(num_c);
      for (size_t c = 0; c < num_c; ++c) slice[c] = u;
    } else {
      for (size_t c = 0; c < num_c; ++c) slice[c] /= total;
    }
  }
}

}  // namespace sky::oracle
