#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>

#include "core/categorizer.h"
#include "io/checkpoint_io.h"
#include "io/model_io.h"
#include "io/wire.h"
#include "util/rng.h"
#include "video/stream_source.h"

namespace sky::e2e {

namespace {
/// Replay loops fold their outputs in here so no call can be elided.
volatile double g_replay_sink = 0.0;
}  // namespace

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  double pos = q * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

uint64_t DeriveSeed(uint64_t seed, const std::string& tag, uint64_t index) {
  Rng child = Rng(seed).Fork(tag).ForkIndex(index);
  return child.engine()();
}

uint64_t ResultsFingerprint(const std::vector<core::EngineResult>& results) {
  std::string bytes;
  for (const core::EngineResult& r : results) io::AppendEngineResult(r, &bytes);
  return io::wire::Fnv1a64(bytes.data(), bytes.size());
}

void AddResults(const std::vector<core::EngineResult>& results,
                double segment_seconds, Iteration* it) {
  for (const core::EngineResult& r : results) {
    it->video_s += static_cast<double>(r.segments) * segment_seconds;
    it->total_quality += r.total_quality;
    it->segments += static_cast<double>(r.segments);
    it->cloud_usd += r.cloud_usd;
    it->overflow_events += r.overflow_events;
  }
  it->fingerprint = ResultsFingerprint(results);
}

bool ResultsIdentical(const std::vector<core::EngineResult>& a,
                      const std::vector<core::EngineResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!core::EngineResultsIdentical(a[i], b[i])) return false;
  }
  return true;
}

void SetMetric(std::vector<Metric>* metrics, const std::string& name,
               double value, const std::string& unit) {
  for (Metric& m : *metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics->push_back({name, value, unit});
}

ReplayCosts MeasureReplayCosts(const core::Workload& workload,
                               const core::OfflineModel& model,
                               int64_t first_segment, int64_t count) {
  ReplayCosts costs;
  if (count <= 0) return costs;
  const double seg = model.segment_seconds;
  const video::ContentProcess& content = workload.content_process();
  video::StreamSource source(&content, seg);
  std::vector<video::ContentState> states(static_cast<size_t>(count));
  std::vector<double> quals;
  Rng noise(7);
  double sink = 0.0;
  // Median per-call cost of five passes over the range: one pass is a few
  // milliseconds, short enough for a scheduling hiccup to double it.
  auto per_call_us = [count](const auto& pass) {
    std::vector<double> us;
    for (int rep = 0; rep < 5; ++rep) {
      double t = WallNow();
      pass();
      us.push_back(1e6 * (WallNow() - t) / static_cast<double>(count));
    }
    return Median(us);
  };

  costs.segment_us = per_call_us([&] {
    for (int64_t i = 0; i < count; ++i) {
      sink += static_cast<double>(source.Segment(first_segment + i).bytes);
    }
  });
  costs.content_at_us = per_call_us([&] {
    for (int64_t i = 0; i < count; ++i) {
      states[static_cast<size_t>(i)] =
          content.At((static_cast<double>(first_segment + i) + 0.5) * seg);
    }
  });
  costs.truth_vector_us = per_call_us([&] {
    for (const video::ContentState& s : states) {
      core::TrueQualityVectorInto(workload, model.configs, s, &quals);
      sink += static_cast<double>(model.categories.ClassifyFull(quals));
    }
  });
  costs.measured_quality_us = per_call_us([&] {
    for (size_t i = 0; i < states.size(); ++i) {
      sink += workload.MeasuredQuality(model.configs[i % model.configs.size()],
                                       states[i], &noise);
    }
  });

  g_replay_sink = sink;
  return costs;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  double origin = spans.empty() ? 0.0 : spans.front().start_s;
  for (const Span& s : spans) origin = std::min(origin, s.start_s);
  out << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                  "\"ts\":%.3f,\"dur\":%.3f}%s\n",
                  s.name.c_str(), s.tid, 1e6 * (s.start_s - origin),
                  1e6 * s.dur_s, i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void AddStepRuntimes(const core::OfflineStepRuntimes& r,
                     core::OfflineStepRuntimes* sum) {
  sum->filter_configs_s += r.filter_configs_s;
  sum->filter_placements_s += r.filter_placements_s;
  sum->content_categories_s += r.content_categories_s;
  sum->forecast_training_data_s += r.forecast_training_data_s;
  sum->forecast_training_s += r.forecast_training_s;
}

Status ProbeModelLoad(const core::OfflineModel& model, const std::string& path,
                      IoProbe* probe) {
  SKY_RETURN_NOT_OK(io::SaveOfflineModel(model, path, "e2e"));
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    Status status;
    double t = WallNow();
    {
      // Load and release: a served session pays both.
      Result<core::OfflineModel> loaded = io::LoadOfflineModel(path);
      status = loaded.status();
    }
    ms.push_back(1e3 * (WallNow() - t));
    if (!status.ok()) {
      std::remove(path.c_str());
      return status;
    }
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  probe->model_bytes = static_cast<double>(in.tellg());
  std::remove(path.c_str());
  probe->model_load_ms = Median(ms);
  return Status::Ok();
}

Status ProbeCheckpoint(const std::vector<const core::IngestionEngine*>& engines,
                       IoProbe* probe) {
  std::vector<double> ms;
  std::string bytes;
  for (int rep = 0; rep < 3; ++rep) {
    double t = WallNow();
    io::FleetCheckpoint ckpt;
    ckpt.streams.resize(engines.size());
    for (size_t v = 0; v < engines.size(); ++v) {
      Result<core::IngestState> snap = engines[v]->Checkpoint();
      SKY_RETURN_NOT_OK(snap.status());
      SKY_RETURN_NOT_OK(io::SerializeIngestState(*snap, &ckpt.streams[v].state));
      ckpt.streams[v].has_state = true;
    }
    SKY_RETURN_NOT_OK(io::SerializeFleetCheckpoint(ckpt, &bytes));
    ms.push_back(1e3 * (WallNow() - t));
  }
  probe->checkpoint_serialize_ms = Median(ms);
  probe->checkpoint_bytes = static_cast<double>(bytes.size());
  return Status::Ok();
}

}  // namespace sky::e2e
