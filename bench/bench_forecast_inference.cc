// Forecast-inference latency: the SIMD micro-kernels (ml/kernels.h) against
// the scalar oracle, at the real plan-boundary geometry. Two questions,
// answered with numbers:
//   (1) single-forecast latency (the per-plan-boundary cost every stream
//       pays): p50/p99 over many calls, for each kernel tier;
//   (2) batched GEMM throughput (the kernel behind batched inference and
//       every training step): vector tier vs the scalar oracle, gated at 2x.
// Results land in BENCH_forecast_inference.json with the dispatched kernel
// tier and thread count, so perf lines from different hosts stay
// comparable. The speedup gate applies only where a vector tier exists: on
// a scalar-only host it is recorded as "skipped" with the reason.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/forecaster.h"
#include "ml/kernels.h"
#include "ml/matrix.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace sky;

/// Same synthetic diurnal category sequence the training bench uses.
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

struct LatencyStats {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Per-call latency distribution of `fn` over `reps` calls. Each sample
/// times a small inner batch to keep clock granularity out of the numbers.
template <typename Fn>
LatencyStats MeasureLatency(size_t reps, Fn&& fn) {
  constexpr size_t kInner = 16;
  std::vector<double> samples(reps);
  for (size_t r = 0; r < reps; ++r) {
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kInner; ++i) fn();
    auto stop = std::chrono::steady_clock::now();
    samples[r] =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(kInner);
  }
  std::sort(samples.begin(), samples.end());
  LatencyStats out;
  out.p50_ns = samples[reps / 2];
  out.p99_ns = samples[(reps * 99) / 100];
  return out;
}

/// Wall seconds for `reps` runs of a square f64 GEMM at the active backend.
double GemmSeconds(size_t n, size_t reps) {
  Rng rng(77);
  ml::Matrix a(n, n), b(n, n), out;
  for (double& v : a.data()) v = rng.Normal(0.0, 1.0);
  for (double& v : b.data()) v = rng.Normal(0.0, 1.0);
  ml::MatMulInto(a, b, &out);  // warm (and size out) before timing
  bench::WallTimer timer;
  for (size_t r = 0; r < reps; ++r) ml::MatMulInto(a, b, &out);
  return timer.Seconds();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Forecast inference: SIMD kernels ===\n");

  BenchJson json("forecast_inference");
  ml::KernelBackend best = ml::BestSupportedBackend();
  bool has_vector = best != ml::KernelBackend::kScalar;
  json.Set("kernel_backend", ml::KernelBackendName(best));
  json.Set("hardware_threads",
           static_cast<double>(std::thread::hardware_concurrency()));
  json.Set("threads", static_cast<double>(BenchThreads(argc, argv)));

  // --- Part 1: single-forecast latency at the covid geometry -------------
  constexpr size_t kNumCategories = 3;
  constexpr double kSegmentSeconds = 4.0;
  core::ForecasterOptions fopts;  // 2-day span, 8 splits -> 24-wide input
  fopts.train_options.epochs = 30;
  fopts.train_options.batch_size = 64;
  std::vector<uint8_t> seq =
      SyntheticCategories(kSegmentSeconds, 16.0, kNumCategories, 321);
  auto trained =
      core::Forecaster::Train(seq, kSegmentSeconds, kNumCategories, fopts);
  if (!trained.ok()) {
    std::printf("training failed: %s\n", trained.status().ToString().c_str());
    return 1;
  }
  core::Forecaster forecaster = std::move(*trained);
  std::vector<double> features;
  oracle::FeaturesFromHistoryInto(forecaster, seq, kSegmentSeconds, &features);
  std::vector<double> out;

  constexpr size_t kLatencyReps = 4000;
  TablePrinter lat_table("Single boundary forecast (24 -> 16 -> 8 -> 3 net)");
  lat_table.SetHeader({"backend", "p50", "p99"});
  std::vector<ml::KernelBackend> backends = {ml::KernelBackend::kScalar};
  if (has_vector) backends.push_back(best);
  for (ml::KernelBackend backend : backends) {
    Status forced = ml::SetKernelBackend(backend);
    if (!forced.ok()) {
      std::printf("force %s failed: %s\n",
                  ml::KernelBackendName(backend).c_str(),
                  forced.ToString().c_str());
      return 1;
    }
    // Warm the inference scratch outside the timed region.
    forecaster.ForecastInto(features, &out);
    LatencyStats stats = MeasureLatency(
        kLatencyReps, [&] { forecaster.ForecastInto(features, &out); });
    std::string backend_name = ml::KernelBackendName(backend);
    json.Set("forecast_" + backend_name + "_f64_p50_ns", stats.p50_ns);
    json.Set("forecast_" + backend_name + "_f64_p99_ns", stats.p99_ns);
    lat_table.AddRow({backend_name, TablePrinter::Fmt(stats.p50_ns, 0) + " ns",
                      TablePrinter::Fmt(stats.p99_ns, 0) + " ns"});
  }
  lat_table.Print(std::cout);

  // --- Part 2: batched GEMM, vector tier vs scalar oracle ---------------
  constexpr size_t kGemmN = 192;  // training-scale operand, cache-resident
  constexpr size_t kGemmReps = 40;
  Status to_scalar = ml::SetKernelBackend(ml::KernelBackend::kScalar);
  if (!to_scalar.ok()) return 1;
  double scalar_gemm_s = GemmSeconds(kGemmN, kGemmReps);
  double vector_gemm_s = scalar_gemm_s;
  if (has_vector) {
    if (!ml::SetKernelBackend(best).ok()) return 1;
    vector_gemm_s = GemmSeconds(kGemmN, kGemmReps);
  }
  double gemm_speedup = vector_gemm_s > 0 ? scalar_gemm_s / vector_gemm_s : 0;
  json.Set("gemm_n", static_cast<double>(kGemmN));
  json.Set("gemm_scalar_s", scalar_gemm_s);
  json.Set("gemm_vector_s", vector_gemm_s);
  json.Set("gemm_speedup", gemm_speedup);
  std::printf("\n%zu^3 f64 GEMM x%zu: scalar %.3f s, %s %.3f s (%.2fx)\n",
              kGemmN, kGemmReps, scalar_gemm_s,
              ml::KernelBackendName(best).c_str(), vector_gemm_s,
              gemm_speedup);

  // --- Gates -------------------------------------------------------------
  // The speedup gate only binds where a vector tier exists; the scalar-only
  // fallback records why it skipped so a regression is distinguishable from
  // a host without SIMD.
  int failures = 0;
  if (has_vector) {
    json.Set("speedup_gates", "enforced");
    if (gemm_speedup < 2.0) {
      std::printf("FAILED: batched GEMM speedup %.2fx below 2x\n",
                  gemm_speedup);
      ++failures;
    }
  } else {
    json.Set("speedup_gates", "skipped: host supports scalar tier only");
    std::printf("speedup gates skipped: no vector tier on this host\n");
  }

  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics written to %s\n", path.c_str());
  return failures == 0 ? 0 : 1;
}
