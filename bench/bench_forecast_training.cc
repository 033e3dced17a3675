// Forecaster-training throughput: the batched trainer versus the seed's
// per-sample implementation (the reference oracle in tests/support), at the
// real forecaster geometry (Appendix K net on Appendix H training data). The
// "train forecast model" step of Table 3 had two serial hot loops:
//   (1) dataset construction re-scanned every (heavily overlapping) history
//       window — O(samples * window) sequence touches; BuildForecastDataset
//       now counts categories once, at the window edges its rows read, and
//       emits each histogram in O(|C|), bitwise identically;
//   (2) FeedForwardNet::Train ran sample-at-a-time forward/backward with
//       per-call allocations; the batched trainer runs minibatch GEMMs
//       against a preallocated workspace, one fixed-size gradient chunk at
//       a time.
// This bench times the full training step (dataset + net) for both
// implementations, the net alone for both trainers, and the batched net on
// the scalar and the SIMD kernels — verifying the dataset is bit-identical
// to the scan, the trainers agree to 1e-6, and both kernel tiers train
// bit-identical weights. Results land in BENCH_forecast_training.json.
// Exit is non-zero when anything diverges or the end-to-end speedup is < 3x.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/forecaster.h"
#include "ml/kernels.h"
#include "ml/nn.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace sky;

/// A synthetic 16-day category sequence with diurnal structure plus bursts —
/// the same statistical shape BuildTrainCategorySequence produces, without
/// paying for a full offline phase here.
std::vector<uint8_t> SyntheticCategories(double segment_seconds, double days,
                                         size_t num_categories, uint64_t seed) {
  Rng rng(seed);
  size_t n = static_cast<size_t>(Days(days) / segment_seconds);
  std::vector<uint8_t> seq(n, 0);
  for (size_t i = 0; i < n; ++i) {
    double hour = HourOfDay(static_cast<double>(i) * segment_seconds);
    seq[i] = (hour > 8 && hour < 20) ? 1 : 0;
    if (rng.Bernoulli(0.05)) seq[i] = static_cast<uint8_t>(num_categories - 1);
  }
  return seq;
}

/// The seed implementation of BuildForecastDataset, reconstructed on the
/// reference scan-based histogram: every row re-scans its windows. The
/// reference oracle for both the wall-clock and the bitwise comparison.
core::ForecastDataset ScanDataset(const std::vector<uint8_t>& seq,
                                  double segment_seconds, size_t num_cats,
                                  const core::ForecasterOptions& options) {
  size_t in_segs = static_cast<size_t>(options.input_span / segment_seconds);
  size_t out_segs =
      static_cast<size_t>(options.planned_interval / segment_seconds);
  size_t stride = std::max<size_t>(
      1, static_cast<size_t>(options.training_stride / segment_seconds));
  size_t split_len = in_segs / options.input_splits;
  size_t samples = 0;
  for (size_t s = in_segs; s + out_segs <= seq.size(); s += stride) ++samples;
  ml::Matrix X(samples, options.input_splits * num_cats);
  ml::Matrix Y(samples, num_cats);
  for (size_t row = 0; row < samples; ++row) {
    size_t s = in_segs + row * stride;
    for (size_t split = 0; split < options.input_splits; ++split) {
      size_t begin = s - in_segs + split * split_len;
      size_t end = split + 1 == options.input_splits ? s : begin + split_len;
      std::vector<double> hist =
          oracle::CategoryHistogram(seq, begin, end, num_cats);
      for (size_t c = 0; c < num_cats; ++c) {
        X.At(row, split * num_cats + c) = hist[c];
      }
    }
    Y.SetRow(row, oracle::CategoryHistogram(seq, s, s + out_segs, num_cats));
  }
  return core::ForecastDataset{std::move(X), std::move(Y)};
}

ml::FeedForwardNet FreshNet(size_t input_dim, size_t num_categories) {
  Rng rng(4096);
  return ml::FeedForwardNet(input_dim, {16, 8}, num_categories, &rng);
}

}  // namespace

int main() {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Forecaster training: batched trainer vs per-sample ===\n");

  constexpr size_t kNumCategories = 3;
  constexpr double kSegmentSeconds = 4.0;
  core::ForecasterOptions fopts;  // covid geometry: 2-day span, 8 splits
  fopts.train_options.epochs = 30;
  fopts.train_options.batch_size = 64;
  fopts.train_options.grad_chunk_rows = 8;

  std::vector<uint8_t> seq =
      SyntheticCategories(kSegmentSeconds, 16.0, kNumCategories, 321);

  // Dataset: seed's window scans vs the edge-count build (bitwise equal).
  WallTimer scan_timer;
  core::ForecastDataset scanned =
      ScanDataset(seq, kSegmentSeconds, kNumCategories, fopts);
  double scan_dataset_s = scan_timer.Seconds();
  const core::CategorySequence packed = oracle::Packed(kNumCategories, seq);
  WallTimer build_timer;
  auto data = core::BuildForecastDataset(packed, kSegmentSeconds,
                                         kNumCategories, fopts);
  double build_dataset_s = build_timer.Seconds();
  if (!data.ok()) {
    std::printf("dataset failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  bool dataset_identical = scanned.inputs.data() == data->inputs.data() &&
                           scanned.targets.data() == data->targets.data();

  size_t samples = data->inputs.rows();
  size_t train_rows = samples - static_cast<size_t>(std::floor(
                                    fopts.train_options.validation_split *
                                    static_cast<double>(samples)));
  double trained_samples =
      static_cast<double>(train_rows * fopts.train_options.epochs);

  BenchJson json("forecast_training");
  json.Set("kernel_backend",
           ml::KernelBackendName(ml::ActiveKernelBackend()));
  json.Set("samples", static_cast<double>(samples));
  json.Set("features", static_cast<double>(data->inputs.cols()));
  json.Set("epochs", static_cast<double>(fopts.train_options.epochs));
  json.Set("batch_size", static_cast<double>(fopts.train_options.batch_size));
  json.Set("grad_chunk_rows",
           static_cast<double>(fopts.train_options.grad_chunk_rows));
  json.Set("dataset_scan_s", scan_dataset_s);
  json.Set("dataset_build_s", build_dataset_s);
  json.Set("dataset_speedup",
           build_dataset_s > 0 ? scan_dataset_s / build_dataset_s : 0.0);
  json.Set("dataset_identical", dataset_identical ? "yes" : "no");

  // Trains a fresh net with the per-sample reference trainer, or else with
  // the batched trainer.
  auto train_once = [&](bool per_sample, double* wall_s) {
    ml::FeedForwardNet net = FreshNet(data->inputs.cols(), kNumCategories);
    const ml::TrainOptions& opts = fopts.train_options;
    WallTimer timer;
    auto report =
        per_sample
            ? oracle::TrainPerSample(&net, data->inputs, data->targets, opts)
            : net.Train(data->inputs, data->targets, opts);
    *wall_s = timer.Seconds();
    if (!report.ok()) {
      std::printf("training failed: %s\n", report.status().ToString().c_str());
      std::exit(1);
    }
    return net.FlattenParameters();
  };

  double per_sample_s = 0.0;
  std::vector<double> ref = train_once(/*per_sample=*/true, &per_sample_s);
  double batched_1t_s = 0.0;
  std::vector<double> batched_1t =
      train_once(/*per_sample=*/false, &batched_1t_s);

  // SIMD vs scalar kernels under the batched trainer. The f64 micro-kernels
  // are bitwise-identical to the scalar oracle by contract, so the trained
  // weights must match bit for bit — only wall time may differ.
  ml::KernelBackend active_backend = ml::ActiveKernelBackend();
  double scalar_kernel_s = batched_1t_s;
  bool kernels_bitwise = true;
  bool has_vector_tier = active_backend != ml::KernelBackend::kScalar;
  if (has_vector_tier) {
    if (!ml::SetKernelBackend(ml::KernelBackend::kScalar).ok()) {
      std::printf("FAILED: could not force scalar kernels\n");
      return 1;
    }
    std::vector<double> scalar_weights =
        train_once(/*per_sample=*/false, &scalar_kernel_s);
    if (!ml::SetKernelBackend(active_backend).ok()) {
      std::printf("FAILED: could not restore %s kernels\n",
                  ml::KernelBackendName(active_backend).c_str());
      return 1;
    }
    kernels_bitwise = scalar_weights == batched_1t;
  }
  json.Set("scalar_kernel_net_s", scalar_kernel_s);
  json.Set("simd_kernel_training_speedup",
           batched_1t_s > 0 ? scalar_kernel_s / batched_1t_s : 0.0);
  json.Set("simd_scalar_weights_identical", kernels_bitwise ? "yes" : "no");

  // Parity: batched and per-sample follow the same optimization trajectory;
  // only the kernels' summation association differs.
  double parity = 0.0;
  for (size_t i = 0; i < ref.size(); ++i) {
    parity = std::max(parity, std::abs(ref[i] - batched_1t[i]));
  }
  double net_speedup = batched_1t_s > 0 ? per_sample_s / batched_1t_s : 0.0;
  // The full Table-3 "train forecast model" step: dataset + net training.
  double step_reference_s = scan_dataset_s + per_sample_s;
  double step_batched_s = build_dataset_s + batched_1t_s;
  double step_speedup =
      step_batched_s > 0 ? step_reference_s / step_batched_s : 0.0;
  json.Set("per_sample_net_s", per_sample_s);
  json.Set("per_sample_net_samples_per_s", trained_samples / per_sample_s);
  json.Set("batched_net_s_1", batched_1t_s);
  json.Set("batched_net_samples_per_s_1", trained_samples / batched_1t_s);
  json.Set("net_speedup_1t", net_speedup);
  json.Set("training_step_reference_s", step_reference_s);
  json.Set("training_step_batched_s", step_batched_s);
  json.Set("training_step_speedup_1t", step_speedup);
  json.Set("parity_max_abs_diff", parity);

  TablePrinter table("Train-forecast-model step, " + std::to_string(samples) +
                     " samples x " +
                     std::to_string(fopts.train_options.epochs) + " epochs");
  table.SetHeader({"phase", "reference", "batched (1t)", "speedup"});
  table.AddRow({"dataset (16 d of 4 s segments)",
                TablePrinter::Fmt(scan_dataset_s, 3) + " s",
                TablePrinter::Fmt(build_dataset_s, 4) + " s",
                TablePrinter::Fmt(build_dataset_s > 0
                                      ? scan_dataset_s / build_dataset_s
                                      : 0.0,
                                  0) +
                    "x"});
  table.AddRow({"net training",
                TablePrinter::Fmt(per_sample_s, 3) + " s",
                TablePrinter::Fmt(batched_1t_s, 3) + " s",
                TablePrinter::Fmt(net_speedup, 1) + "x"});
  if (has_vector_tier) {
    table.AddRow({"net training (scalar kernels)",
                  TablePrinter::Fmt(scalar_kernel_s, 3) + " s",
                  TablePrinter::Fmt(batched_1t_s, 3) + " s (" +
                      ml::KernelBackendName(active_backend) + ")",
                  TablePrinter::Fmt(batched_1t_s > 0
                                        ? scalar_kernel_s / batched_1t_s
                                        : 0.0,
                                    2) +
                      "x"});
  }
  table.AddRow({"whole step",
                TablePrinter::Fmt(step_reference_s, 3) + " s",
                TablePrinter::Fmt(step_batched_s, 3) + " s",
                TablePrinter::Fmt(step_speedup, 1) + "x"});
  table.Print(std::cout);

  std::printf("\ndataset %s; batched vs per-sample max |dw| = %.3g\n",
              dataset_identical ? "bit-identical" : "DIFFERS (bug!)", parity);

  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics written to %s\n", path.c_str());
  if (!dataset_identical) {
    std::printf("FAILED: prefix-sum dataset differs from scanned dataset\n");
    return 1;
  }
  if (parity > 1e-6) {
    std::printf("FAILED: batched/per-sample parity drift above 1e-6\n");
    return 1;
  }
  if (!kernels_bitwise) {
    std::printf("FAILED: SIMD kernels changed the trained weights\n");
    return 1;
  }
  if (step_speedup < 3.0) {
    std::printf("FAILED: training-step speedup below 3x\n");
    return 1;
  }
  return 0;
}
