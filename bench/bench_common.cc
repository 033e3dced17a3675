#include "bench_common.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "baselines/static_baseline.h"
#include "io/checkpoint_io.h"
#include "io/wire.h"
#include "video/stream_source.h"

namespace sky::bench {

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {
  Set("bench", name_);
}

void BenchJson::Set(const std::string& key, double value) {
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");  // JSON has no inf/nan
  }
  entries_.emplace_back(key, buf);
}

void BenchJson::Set(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  entries_.emplace_back(key, quoted);
}

std::string BenchJson::Write() const {
  std::string file = "BENCH_" + name_ + ".json";
  std::ofstream out(file);
  if (!out) return "";
  out << "{\n";
  for (size_t i = 0; i < entries_.size(); ++i) {
    out << "  \"" << entries_[i].first << "\": " << entries_[i].second
        << (i + 1 < entries_.size() ? "," : "") << "\n";
  }
  out << "}\n";
  return out ? file : "";
}

void Fingerprint::Add(const core::EngineResult& result) {
  io::AppendEngineResult(result, &bytes_);
}

void Fingerprint::Add(const Result<core::EngineResult>& result) {
  Add(result.ok());
  if (result.ok()) Add(*result);
}

void Fingerprint::Print(const std::string& title) const {
  std::printf("fingerprint %016llx %s\n",
              static_cast<unsigned long long>(
                  io::wire::Fnv1a64(bytes_.data(), bytes_.size())),
              title.c_str());
}

void TrialPairs::SetTrials(BenchJson* json, const std::string& key_a,
                           const std::string& key_b,
                           const std::string& key_ratio) const {
  for (size_t k = 0; k < ratios.size(); ++k) {
    const std::string trial = "_trial" + std::to_string(k + 1);
    json->Set(key_a + trial, walls_a[k]);
    json->Set(key_b + trial, walls_b[k]);
    json->Set(key_ratio + trial, ratios[k]);
  }
}

ExperimentSetup CovidSetup() {
  ExperimentSetup s;
  s.segment_seconds = 4.0;
  s.train_horizon = Days(16);
  s.test_start = Days(16);
  s.test_duration = Days(8);
  s.num_categories = 3;  // Appendix K.1: COVID and MOT use 3 categories
  s.plan_interval = Days(2);
  return s;
}

ExperimentSetup MotSetup() { return CovidSetup(); }

ExperimentSetup MoseiSetup() {
  ExperimentSetup s;
  s.segment_seconds = 7.0;  // Appendix K.1: MOSEI switches every 7 s
  s.train_horizon = Days(10);
  s.test_start = Days(10);
  s.test_duration = Days(2);
  s.num_categories = 5;  // Appendix K.1: MOSEI uses 5 categories
  s.plan_interval = Days(1);
  return s;
}

ExperimentSetup EvSetup() {
  ExperimentSetup s;
  s.segment_seconds = 2.0;
  s.train_horizon = Days(16);
  s.test_start = Days(16);
  s.test_duration = Days(1);  // Fig. 3 plots 24 hours
  s.num_categories = 3;
  s.plan_interval = Days(1);
  return s;
}

size_t BenchThreads(int argc, char** argv) {
  // 4096 bounds strtol overflow saturation as well as accidental
  // pool-per-core-times-1000 typos; no current machine exceeds it.
  constexpr long kMaxThreads = 4096;
  auto parse = [](const char* s) -> size_t {
    errno = 0;
    char* end = nullptr;
    long v = std::strtol(s, &end, 10);
    bool ok = end != s && *end == '\0' && errno == 0 && v > 0 &&
              v <= kMaxThreads;
    return ok ? static_cast<size_t>(v) : 0;
  };
  // An explicitly supplied but invalid count is a hard error: silently
  // falling back to the hardware concurrency would record misleading
  // "threads" values in BENCH_*.json — the one thing the override exists
  // to pin down.
  auto parse_or_die = [&](const char* s, const char* origin) -> size_t {
    size_t v = parse(s);
    if (v == 0) {
      std::fprintf(stderr, "invalid %s thread count '%s' (want an integer > 0)\n",
                   origin, s);
      std::exit(2);
    }
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads requires a value\n");
        std::exit(2);
      }
      return parse_or_die(argv[i + 1], "--threads");
    }
    const std::string prefix = "--threads=";
    if (arg.rfind(prefix, 0) == 0) {
      return parse_or_die(arg.c_str() + prefix.size(), "--threads");
    }
  }
  if (const char* env = std::getenv("SKY_BENCH_THREADS")) {
    return parse_or_die(env, "SKY_BENCH_THREADS");
  }
  return dag::DefaultThreadCount();
}

Result<core::OfflineModel> FitOffline(const core::Workload& workload,
                                      const ExperimentSetup& setup,
                                      const sim::ClusterSpec& cluster,
                                      const sim::CostModel& cost_model,
                                      bool train_forecaster,
                                      dag::ThreadPool* pool,
                                      size_t num_threads) {
  core::OfflineOptions opts;
  opts.segment_seconds = setup.segment_seconds;
  opts.train_horizon = setup.train_horizon;
  opts.num_categories = setup.num_categories;
  opts.forecaster.planned_interval = setup.plan_interval;
  opts.train_forecaster = train_forecaster;
  opts.pool = pool;
  opts.num_threads = num_threads;
  return core::RunOfflinePhase(workload, cluster, cost_model, opts);
}

double DeploymentCostUsd(const sim::ServerType& server,
                         const sim::CostModel& cost_model, SimTime duration,
                         double cloud_usd) {
  double hours = duration / 3600.0;
  return cost_model.OnPremCost(server, hours) + cloud_usd;
}

Result<double> BestStaticQualityDenominator(const core::Workload& workload,
                                            const ExperimentSetup& setup,
                                            const sim::CostModel& cost_model) {
  sim::ClusterSpec big;
  big.cores = sim::ServerCatalog().back().vcpus;
  SKY_ASSIGN_OR_RETURN(
      baselines::StaticResult best,
      baselines::BestStaticBaseline(workload, big, cost_model,
                                    setup.segment_seconds, setup.test_duration,
                                    setup.test_start));
  return best.total_quality;
}

std::vector<StaticEntry> StaticConfigTotals(const core::Workload& workload,
                                            const ExperimentSetup& setup) {
  video::StreamSource source(&workload.content_process(),
                             setup.segment_seconds);
  int64_t first =
      static_cast<int64_t>(setup.test_start / setup.segment_seconds);
  int64_t segments =
      static_cast<int64_t>(setup.test_duration / setup.segment_seconds);
  std::vector<StaticEntry> entries;
  for (const core::KnobConfig& config : workload.knob_space().AllConfigs()) {
    StaticEntry e;
    e.config = config;
    e.cost_core_s_per_video_s =
        workload.CostCoreSecondsPerVideoSecond(config);
    entries.push_back(std::move(e));
  }
  for (int64_t i = 0; i < segments; ++i) {
    video::ContentState content = source.Segment(first + i).content;
    for (StaticEntry& e : entries) {
      e.total_quality += workload.TrueQuality(e.config, content);
    }
  }
  return entries;
}

const StaticEntry& BestEntry(const std::vector<StaticEntry>& entries) {
  const StaticEntry* best = &entries.front();
  for (const StaticEntry& e : entries) {
    if (e.total_quality > best->total_quality) best = &e;
  }
  return *best;
}

Result<StaticEntry> BestStaticOnServer(const core::Workload& workload,
                                       const ExperimentSetup& setup,
                                       const std::vector<StaticEntry>& totals,
                                       const sim::ClusterSpec& cluster,
                                       const sim::CostModel& cost_model) {
  const StaticEntry* best = nullptr;
  for (const StaticEntry& e : totals) {
    if (best != nullptr && e.total_quality <= best->total_quality) continue;
    dag::TaskGraph graph =
        workload.BuildTaskGraph(e.config, setup.segment_seconds, cost_model);
    SKY_ASSIGN_OR_RETURN(
        sim::DagSimResult sim,
        sim::SimulateDag(graph, dag::Placement::AllOnPrem(graph.NumNodes()),
                         cluster));
    if (sim.makespan_s <= setup.segment_seconds + 1e-9) best = &e;
  }
  if (best == nullptr) {
    return Status::ResourceExhausted(
        "no configuration runs in real time on this server");
  }
  return *best;
}

}  // namespace sky::bench
