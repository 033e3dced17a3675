#ifndef SKYSCRAPER_BENCH_BENCH_COMMON_H_
#define SKYSCRAPER_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/offline.h"
#include "core/workload.h"
#include "sim/cluster_sim.h"
#include "sim/cost_model.h"
#include "util/result.h"
#include "util/stats.h"
#include "util/sim_time.h"

namespace sky::bench {

/// Wall-clock stopwatch for bench phases.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable bench output: collects wall times and key metrics and
/// writes them as BENCH_<name>.json in the working directory, one flat JSON
/// object, so the perf trajectory can be tracked across PRs by tooling
/// instead of by parsing stdout tables.
class BenchJson {
 public:
  explicit BenchJson(std::string name);

  void Set(const std::string& key, double value);
  void Set(const std::string& key, const std::string& value);

  /// Writes BENCH_<name>.json and returns the file name ("" on failure).
  std::string Write() const;

 private:
  std::string name_;
  /// Key -> pre-rendered JSON value, in insertion order.
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// FNV-1a fingerprint of the results one printed table reports, bit for
/// bit, so that drift below the table's print precision shows. Each paper
/// figure bench prints one per table; `scripts/check.sh --paper` compares
/// them with the golden file bench/paper_fingerprints.txt. Only results go
/// in, never a wall time.
class Fingerprint {
 public:
  /// Folds numbers in by their bits: floating point as a double, anything
  /// integral (bool included) as a u64.
  template <class... T>
  void Add(T... values) {
    static_assert((std::is_arithmetic_v<T> && ...));
    (AddBits(values), ...);
  }
  /// Every field of an engine result, its trace included, in wire order.
  void Add(const core::EngineResult& result);
  /// Whether `result` holds a value, then the value.
  void Add(const Result<core::EngineResult>& result);

  /// Prints "fingerprint <16 hex digits> <title>".
  void Print(const std::string& title) const;

 private:
  template <class T>
  void AddBits(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      const double d = static_cast<double>(v);
      bytes_.append(reinterpret_cast<const char*>(&d), sizeof(d));
    } else {
      const uint64_t u = static_cast<uint64_t>(v);
      bytes_.append(reinterpret_cast<const char*>(&u), sizeof(u));
    }
  }

  std::string bytes_;
};

/// The timed trials of a wall-clock A/B gate: each side's wall and their
/// ratio a / b, one entry per timed pair, and the ratio's quartiles.
struct TrialPairs {
  std::vector<double> walls_a;
  std::vector<double> walls_b;
  std::vector<double> ratios;
  double ratio_p25 = 0.0;
  double ratio_median = 0.0;
  double ratio_p75 = 0.0;

  /// Sets <key_a>_trialK, <key_b>_trialK and <key_ratio>_trialK for every
  /// timed pair K = 1, 2, ...
  void SetTrials(BenchJson* json, const std::string& key_a,
                 const std::string& key_b, const std::string& key_ratio) const;
};

/// Times one warm-up pair, then `trials` pairs, of `run_a` and `run_b`
/// (each returns its wall in seconds, or a value <= 0 when it failed):
/// `run_a` first in the even pairs (the warm-up is pair 0), `run_b` first
/// in the odd ones, so neither side always runs on the warmer host. One
/// wall-clock ratio on a shared host reads noise, so a gate reads the
/// median. `after(pair, wall_a, wall_b)` runs after every pair, the
/// warm-up included. A failed run ends the loop: "trial <pair> failed".
template <class RunA, class RunB, class After>
Result<TrialPairs> RunTrialPairs(int trials, RunA&& run_a, RunB&& run_b,
                                 After&& after) {
  TrialPairs out;
  for (int pair = 0; pair <= trials; ++pair) {
    double wall_a = 0.0;
    double wall_b = 0.0;
    if (pair % 2 == 0) {
      wall_a = run_a();
      wall_b = run_b();
    } else {
      wall_b = run_b();
      wall_a = run_a();
    }
    if (wall_a <= 0.0 || wall_b <= 0.0) {
      return Status::Internal("trial " + std::to_string(pair) + " failed");
    }
    after(pair, wall_a, wall_b);
    if (pair == 0) continue;
    out.walls_a.push_back(wall_a);
    out.walls_b.push_back(wall_b);
    out.ratios.push_back(wall_a / wall_b);
  }
  out.ratio_p25 = Percentile(out.ratios, 25.0);
  out.ratio_median = Percentile(out.ratios, 50.0);
  out.ratio_p75 = Percentile(out.ratios, 75.0);
  return out;
}

/// Shared experiment geometry. The paper ingests 8 unsimulated days for
/// COVID/MOT and 2 days for MOSEI after a ~2-week offline phase; the bench
/// harness uses the same layout on the synthetic content horizon. Segment
/// length is the knob-switcher period (4 s keeps full sweeps fast; the
/// Fig. 21 bench varies it).
struct ExperimentSetup {
  double segment_seconds = 4.0;
  SimTime train_horizon = Days(16);
  SimTime test_start = Days(16);
  SimTime test_duration = Days(8);
  size_t num_categories = 4;
  SimTime plan_interval = Days(2);
};

ExperimentSetup CovidSetup();
ExperimentSetup MotSetup();
ExperimentSetup MoseiSetup();
ExperimentSetup EvSetup();

/// Worker-pool size for the multi-threaded benches: `--threads N` (or
/// `--threads=N`) on the command line wins, then the SKY_BENCH_THREADS
/// environment variable, then the hardware concurrency. Benches record the
/// value they actually used in their BENCH_*.json, so perf numbers from
/// different machines stay comparable.
size_t BenchThreads(int argc, char** argv);

/// Runs the offline phase with the setup's geometry. A non-null `pool`
/// backs the offline steps' fan-out (safe to share with an outer
/// ParallelFor over workloads); with a null pool, `num_threads` is passed
/// through to RunOfflinePhase (0 = hardware concurrency, 1 = serial).
Result<core::OfflineModel> FitOffline(const core::Workload& workload,
                                      const ExperimentSetup& setup,
                                      const sim::ClusterSpec& cluster,
                                      const sim::CostModel& cost_model,
                                      bool train_forecaster = true,
                                      dag::ThreadPool* pool = nullptr,
                                      size_t num_threads = 0);

/// Total monetary cost of a deployment per the Appendix L model: VM rent
/// divided by the cloud/on-prem ratio plus cloud credits.
double DeploymentCostUsd(const sim::ServerType& server,
                         const sim::CostModel& cost_model, SimTime duration,
                         double cloud_usd);

/// Best static total quality on the biggest catalog server — the
/// denominator all "quality (rel. to best)" numbers are normalized by.
Result<double> BestStaticQualityDenominator(const core::Workload& workload,
                                            const ExperimentSetup& setup,
                                            const sim::CostModel& cost_model);

/// One static configuration's totals over the test window.
struct StaticEntry {
  core::KnobConfig config;
  double total_quality = 0.0;
  double cost_core_s_per_video_s = 0.0;
};

/// Evaluates every configuration of the knob space once over the test
/// window (quality totals are server-independent; per-server sweeps reuse
/// them and only re-check real-time feasibility).
std::vector<StaticEntry> StaticConfigTotals(const core::Workload& workload,
                                            const ExperimentSetup& setup);

/// The most qualitative entry (run statically with unlimited hardware):
/// the normalization denominator for "quality (rel. to best)".
const StaticEntry& BestEntry(const std::vector<StaticEntry>& entries);

/// Best static deployment on `cluster`: highest-quality entry whose
/// all-on-premise makespan fits one segment. Fails if none is real-time.
Result<StaticEntry> BestStaticOnServer(const core::Workload& workload,
                                       const ExperimentSetup& setup,
                                       const std::vector<StaticEntry>& totals,
                                       const sim::ClusterSpec& cluster,
                                       const sim::CostModel& cost_model);

}  // namespace sky::bench

#endif  // SKYSCRAPER_BENCH_BENCH_COMMON_H_
