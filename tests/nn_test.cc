#include "ml/nn.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/oracles.h"

namespace sky::ml {
namespace {

/// One forward pass through the production inference path.
std::vector<double> Predict(const FeedForwardNet& net,
                            const std::vector<double>& x) {
  PredictScratch scratch;
  std::vector<double> out;
  net.PredictInto(x, &scratch, &out);
  return out;
}

TEST(NnTest, PredictShapesAndSoftmaxSumsToOne) {
  Rng rng(1);
  FeedForwardNet net(4, {16, 8}, 3, &rng);
  std::vector<double> out = Predict(net, {0.1, 0.2, 0.3, 0.4});
  ASSERT_EQ(out.size(), 3u);
  double sum = 0.0;
  for (double v : out) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(NnTest, ParameterCount) {
  Rng rng(1);
  // Appendix K architecture on a 32-d input with 4 categories.
  FeedForwardNet net(32, {16, 8}, 4, &rng);
  EXPECT_EQ(net.NumParameters(),
            32u * 16 + 16 + 16 * 8 + 8 + 8 * 4 + 4);
}

TEST(NnTest, TrainRejectsBadShapes) {
  Rng rng(1);
  FeedForwardNet net(2, {4}, 2, &rng);
  Matrix x(10, 3), y(10, 2);
  EXPECT_FALSE(net.Train(x, y, TrainOptions{}).ok());
  Matrix x2(10, 2), y2(9, 2);
  EXPECT_FALSE(net.Train(x2, y2, TrainOptions{}).ok());
}

TEST(NnTest, LearnsLinearlySeparableClassification) {
  Rng rng(5);
  FeedForwardNet net(2, {16, 8}, 2, &rng);
  // Class 0: x0 > x1; class 1 otherwise.
  size_t n = 400;
  Matrix x(n, 2), y(n, 2);
  Rng data_rng(6);
  for (size_t i = 0; i < n; ++i) {
    double a = data_rng.Uniform(0, 1);
    double b = data_rng.Uniform(0, 1);
    x.At(i, 0) = a;
    x.At(i, 1) = b;
    y.At(i, a > b ? 0 : 1) = 1.0;
  }
  TrainOptions opts;
  opts.epochs = 80;
  opts.learning_rate = 0.02;
  auto report = net.Train(x, y, opts);
  ASSERT_TRUE(report.ok());
  // Evaluate accuracy on fresh data.
  size_t correct = 0;
  for (size_t i = 0; i < 200; ++i) {
    double a = data_rng.Uniform(0, 1);
    double b = data_rng.Uniform(0, 1);
    std::vector<double> pred = Predict(net, {a, b});
    size_t cls = pred[0] > pred[1] ? 0 : 1;
    if (cls == (a > b ? 0u : 1u)) ++correct;
  }
  EXPECT_GE(correct, 180u);  // >= 90% accuracy
}

TEST(NnTest, TrainingLossDecreases) {
  Rng rng(8);
  FeedForwardNet net(3, {8}, 2, &rng);
  size_t n = 120;
  Matrix x(n, 3), y(n, 2);
  Rng data_rng(9);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < 3; ++c) x.At(i, c) = data_rng.Uniform(0, 1);
    y.At(i, x.At(i, 0) > 0.5 ? 0 : 1) = 1.0;
  }
  TrainOptions opts;
  opts.epochs = 40;
  auto report = net.Train(x, y, opts);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->train_loss_per_epoch.back(),
            report->train_loss_per_epoch.front());
  EXPECT_LE(report->best_val_loss,
            report->val_loss_per_epoch.front() + 1e-12);
}

TEST(NnTest, OnlineUpdateMovesPredictionTowardTarget) {
  Rng rng(10);
  FeedForwardNet net(2, {8}, 2, &rng);
  std::vector<double> input = {0.4, 0.6};
  std::vector<double> target = {1.0, 0.0};
  double before = Predict(net, input)[0];
  for (int i = 0; i < 50; ++i) {
    net.OnlineUpdate(input, target, 0.05);
  }
  double after = Predict(net, input)[0];
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.9);
}

TEST(NnTest, ComputeLossValues) {
  EXPECT_NEAR(oracle::ComputeLoss({0.5, 0.5}, {1.0, 0.0}), -std::log(0.5),
              1e-9);
}

// --- Batched-trainer parity and determinism ---

namespace parity {

struct Shape {
  size_t input;
  std::vector<size_t> hidden;
  size_t output;
  size_t samples;
};

/// Random supervised data: one-hot target rows (a distribution).
void MakeData(const Shape& shape, uint64_t seed, Matrix* x, Matrix* y) {
  Rng rng(seed);
  *x = Matrix(shape.samples, shape.input);
  *y = Matrix(shape.samples, shape.output, 0.0);
  for (size_t i = 0; i < shape.samples; ++i) {
    for (size_t c = 0; c < shape.input; ++c) {
      x->At(i, c) = rng.Uniform(-1, 1);
    }
    y->At(i, static_cast<size_t>(rng.UniformInt(
                 0, static_cast<int64_t>(shape.output) - 1))) = 1.0;
  }
}

/// Trains two identically initialized nets, one with the batched trainer
/// (minibatches cut into gradient chunks of `grad_chunk_rows`) and one with
/// the per-sample reference trainer, and requires identical loss curves and
/// weights to 1e-9 — the contract that makes the reference a usable oracle.
/// The two differ only in how their kernels associate sums, so the
/// trajectories agree to rounding error.
void ExpectBackendParity(
    const Shape& shape, uint64_t seed,
    size_t grad_chunk_rows = TrainOptions{}.grad_chunk_rows) {
  Matrix x, y;
  MakeData(shape, seed, &x, &y);
  TrainOptions opts;
  opts.epochs = 12;
  opts.learning_rate = 0.01;
  opts.grad_chunk_rows = grad_chunk_rows;

  Rng rng_a(seed + 1);
  FeedForwardNet a(shape.input, shape.hidden, shape.output, &rng_a);
  auto report_a = oracle::TrainPerSample(&a, x, y, opts);
  ASSERT_TRUE(report_a.ok()) << report_a.status().ToString();

  Rng rng_b(seed + 1);
  FeedForwardNet b(shape.input, shape.hidden, shape.output, &rng_b);
  auto report_b = b.Train(x, y, opts);
  ASSERT_TRUE(report_b.ok()) << report_b.status().ToString();

  ASSERT_EQ(report_a->train_loss_per_epoch.size(),
            report_b->train_loss_per_epoch.size());
  for (size_t e = 0; e < report_a->train_loss_per_epoch.size(); ++e) {
    EXPECT_NEAR(report_a->train_loss_per_epoch[e],
                report_b->train_loss_per_epoch[e], 1e-9);
    EXPECT_NEAR(report_a->val_loss_per_epoch[e],
                report_b->val_loss_per_epoch[e], 1e-9);
  }
  EXPECT_EQ(report_a->best_epoch, report_b->best_epoch);

  std::vector<double> wa = a.FlattenParameters();
  std::vector<double> wb = b.FlattenParameters();
  ASSERT_EQ(wa.size(), wb.size());
  for (size_t i = 0; i < wa.size(); ++i) {
    EXPECT_NEAR(wa[i], wb[i], 1e-9) << "parameter " << i;
  }
}

}  // namespace parity

TEST(NnParityTest, BatchedMatchesPerSampleOnRandomShapes) {
  Rng shapes(2024);
  for (int trial = 0; trial < 6; ++trial) {
    parity::Shape s;
    s.input = static_cast<size_t>(shapes.UniformInt(1, 12));
    s.hidden.clear();
    for (int64_t l = shapes.UniformInt(1, 2); l > 0; --l) {
      s.hidden.push_back(static_cast<size_t>(shapes.UniformInt(2, 24)));
    }
    s.output = static_cast<size_t>(shapes.UniformInt(2, 6));
    s.samples = static_cast<size_t>(shapes.UniformInt(30, 120));
    parity::ExpectBackendParity(s, 900 + trial);
  }
  // Four gradient chunks per minibatch of 16: the chunk-order sum of many
  // partial gradients stays on the reference trajectory.
  parity::ExpectBackendParity(parity::Shape{8, {16, 8}, 3, 160}, 77,
                              /*grad_chunk_rows=*/4);
}

TEST(NnTest, PredictIntoAndBatchMatchPredictBitwise) {
  Rng rng(41);
  FeedForwardNet net(5, {12, 6}, 4, &rng);
  Rng data_rng(42);
  Matrix x(40, 5);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t c = 0; c < x.cols(); ++c) x.At(i, c) = data_rng.Uniform(-1, 1);
  }
  PredictScratch scratch;
  Matrix batch_out;
  net.PredictBatchInto(x, &batch_out);
  ASSERT_EQ(batch_out.rows(), 40u);
  ASSERT_EQ(batch_out.cols(), 4u);
  std::vector<double> into;
  const NetSnapshot snapshot = net.Snapshot();
  for (size_t i = 0; i < x.rows(); ++i) {
    std::vector<double> reference = oracle::Predict(snapshot, x.Row(i));
    net.PredictInto(x.Row(i), &scratch, &into);
    EXPECT_EQ(into, reference);  // PredictInto replays the reference exactly
    for (size_t c = 0; c < 4; ++c) {
      // The batched forward uses the GEMM kernels: rounding-level agreement.
      EXPECT_NEAR(batch_out.At(i, c), reference[c], 1e-12);
    }
  }
}

TEST(NnTest, OnlineUpdateIsDeterministicAndAllocationStable) {
  Rng rng(51);
  FeedForwardNet a(4, {8}, 2, &rng);
  Rng rng2(51);
  FeedForwardNet b(4, {8}, 2, &rng2);
  std::vector<double> x = {0.1, -0.2, 0.3, 0.4};
  std::vector<double> y = {1.0, 0.0};
  for (int i = 0; i < 20; ++i) {
    a.OnlineUpdate(x, y, 0.01);
    b.OnlineUpdate(x, y, 0.01);
  }
  EXPECT_EQ(a.FlattenParameters(), b.FlattenParameters());
}

}  // namespace
}  // namespace sky::ml
