// Online knob-planner scaling: wall time of single-stream and joint
// multi-stream planning for stream counts {1, 8, 64, 256}, on libsky's
// structured O(n log n) MCKP planner and on the dense two-phase simplex
// oracle in tests/support. The joint program grows to
// (sum C_v + 1) x (V*C*K) for simplex but stays a flat
// hull-and-sweep for the structured solver, so the gap widens superlinearly
// with stream count. Gates: equal joint objectives at every stream count,
// and a joint speedup of at least 10x at 64 streams. Results land in
// BENCH_planner_scaling.json.

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/multi_stream.h"
#include "core/planner.h"
#include "ml/kmeans.h"
#include "support/oracles.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace sky;

constexpr size_t kNumCategories = 4;
constexpr size_t kNumConfigs = 8;

/// One synthetic stream's planner input: monotone-ish quality centers over
/// increasing config costs, with per-stream variation so the joint plan has
/// real allocation decisions to make.
struct SyntheticStream {
  core::ContentCategories categories;
  std::vector<double> forecast;
  std::vector<double> costs;
};

SyntheticStream MakeStream(Rng* rng) {
  SyntheticStream s;
  ml::KMeansModel km;
  for (size_t c = 0; c < kNumCategories; ++c) {
    std::vector<double> center;
    double base = rng->Uniform(0.2, 0.6);
    double gain = rng->Uniform(0.1, 0.4);
    for (size_t k = 0; k < kNumConfigs; ++k) {
      double frac = static_cast<double>(k) / (kNumConfigs - 1);
      center.push_back(base + gain * frac + rng->Uniform(-0.03, 0.03));
    }
    km.centers.push_back(std::move(center));
  }
  s.categories = core::ContentCategories::FromKMeans(std::move(km));
  for (size_t k = 0; k < kNumConfigs; ++k) {
    double frac = static_cast<double>(k) / (kNumConfigs - 1);
    s.costs.push_back(0.5 + 11.5 * frac * frac + rng->Uniform(0.0, 0.3));
  }
  s.forecast.assign(kNumCategories, 0.0);
  double sum = 0.0;
  for (double& f : s.forecast) {
    f = rng->Uniform(0.05, 1.0);
    sum += f;
  }
  for (double& f : s.forecast) f /= sum;
  return s;
}

/// Times `fn` with enough repetitions to exceed `min_seconds` of total wall
/// time (at least one), returning seconds per call.
template <typename Fn>
double TimePerCall(double min_seconds, const Fn& fn) {
  size_t reps = 0;
  bench::WallTimer timer;
  do {
    fn();
    ++reps;
  } while (timer.Seconds() < min_seconds);
  return timer.Seconds() / static_cast<double>(reps);
}

}  // namespace

int main() {
  using namespace sky;
  using namespace sky::bench;
  std::printf("=== Planner scaling: structured MCKP vs simplex oracle ===\n");

  Rng rng(4210);
  std::vector<SyntheticStream> all_streams;
  const size_t max_streams = 256;
  all_streams.reserve(max_streams);
  for (size_t v = 0; v < max_streams; ++v) {
    all_streams.push_back(MakeStream(&rng));
  }

  BenchJson json("planner_scaling");
  // Single-threaded solves by design; recorded so every BENCH_*.json names
  // the pool size its numbers were measured with.
  json.Set("threads", 1.0);
  json.Set("categories_per_stream", static_cast<double>(kNumCategories));
  json.Set("configs_per_stream", static_cast<double>(kNumConfigs));

  TablePrinter table(
      "Knob-plan wall time per solve (joint across streams, and all "
      "single-stream plans)");
  table.SetHeader({"streams", "joint structured", "joint simplex", "speedup",
                   "single structured", "single simplex"});

  bool checks_ok = true;
  double speedup_at_64 = 0.0;
  for (size_t num_streams : {size_t{1}, size_t{8}, size_t{64}, size_t{256}}) {
    std::vector<core::StreamPlanInput> inputs;
    inputs.reserve(num_streams);
    for (size_t v = 0; v < num_streams; ++v) {
      const SyntheticStream& s = all_streams[v];
      inputs.push_back({&s.categories, s.forecast, s.costs});
    }
    // Mid-range shared budget: binds without being infeasible, the
    // worst case for both solvers.
    double budget = 3.0 * static_cast<double>(num_streams);

    core::PlanWorkspace ws;
    double joint_structured = TimePerCall(0.02, [&] {
      auto plans = core::ComputeJointKnobPlan(inputs, budget, &ws);
      if (!plans.ok()) checks_ok = false;
    });
    // The dense joint tableau is quadratic-plus in stream count; keep the
    // rep floor low so 256 streams stays tractable.
    double joint_simplex = TimePerCall(0.0, [&] {
      auto plans = oracle::ComputeJointKnobPlan(inputs, budget);
      if (!plans.ok()) checks_ok = false;
    });

    // Parity spot check at this scale: identical joint objective.
    {
      auto structured = core::ComputeJointKnobPlan(inputs, budget);
      auto simplex = oracle::ComputeJointKnobPlan(inputs, budget);
      if (!structured.ok() || !simplex.ok()) {
        checks_ok = false;
      } else {
        double q_structured = 0.0, q_simplex = 0.0;
        for (size_t v = 0; v < num_streams; ++v) {
          q_structured += (*structured)[v].expected_quality;
          q_simplex += (*simplex)[v].expected_quality;
        }
        if (std::abs(q_structured - q_simplex) > 1e-6) checks_ok = false;
      }
    }

    double single_structured = TimePerCall(0.02, [&] {
      for (const core::StreamPlanInput& in : inputs) {
        auto plan = core::ComputeKnobPlan(*in.categories, in.forecast,
                                          in.config_costs, 3.0, &ws);
        if (!plan.ok()) checks_ok = false;
      }
    });
    double single_simplex = TimePerCall(0.02, [&] {
      for (const core::StreamPlanInput& in : inputs) {
        auto plan = oracle::ComputeKnobPlan(*in.categories, in.forecast,
                                            in.config_costs, 3.0);
        if (!plan.ok()) checks_ok = false;
      }
    });

    double speedup = joint_structured > 0 ? joint_simplex / joint_structured
                                          : 0.0;
    if (num_streams == 64) speedup_at_64 = speedup;
    std::string tag = std::to_string(num_streams);
    json.Set("joint_structured_s_" + tag, joint_structured);
    json.Set("joint_simplex_s_" + tag, joint_simplex);
    json.Set("joint_speedup_" + tag, speedup);
    json.Set("single_structured_s_" + tag, single_structured);
    json.Set("single_simplex_s_" + tag, single_simplex);
    table.AddRow({tag, TablePrinter::Fmt(joint_structured * 1e6, 1) + " us",
                  TablePrinter::Fmt(joint_simplex * 1e6, 1) + " us",
                  TablePrinter::Fmt(speedup, 1) + "x",
                  TablePrinter::Fmt(single_structured * 1e6, 1) + " us",
                  TablePrinter::Fmt(single_simplex * 1e6, 1) + " us"});
  }
  table.Print(std::cout);

  std::printf("\n(joint structured = per-stream hulls under one shared "
              "budget multiplier, never materializing the dense tableau; "
              "speedup at 64 streams: %.1fx)\n",
              speedup_at_64);

  json.Set("objectives_match", checks_ok ? "yes" : "no");
  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics written to %s\n", path.c_str());
  if (!checks_ok) {
    std::printf("FAILED: oracle objective mismatch or planning failure\n");
    return 1;
  }
  if (speedup_at_64 < 10.0) {
    std::printf("FAILED: joint speedup at 64 streams below 10x\n");
    return 1;
  }
  return 0;
}
