// sky_e2e: one end-to-end ingest benchmark run.
//
//   sky_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--smoke] [--json PATH] [--out-dir DIR]
//   sky_e2e --selftest [--seed N] [--out-dir DIR]
//
// A run times the workload's setup five times (median), warms up at 1/10
// size, then repeats the workload's fixed-size input until --seconds are
// used up (the open-loop serve workload instead offers load for the whole
// window). --trace 0 reports the end-to-end metrics, with throughput and
// latency as details; --trace 1 alternates untraced and traced passes over
// the same input and reports the per-layer metrics, throughput and latency
// of the untraced passes among them. The last line of stdout is one JSON
// object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "ml/kernels.h"

namespace sky::e2e {
namespace {

constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  bool selftest = false;
  std::string json_path;
  std::string out_dir = "build-e2e/results";
};

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "single-covid", "fleet-steady", "fleet-replan", "serve-churn"};
  return kNames;
}

std::unique_ptr<Bench> MakeBench(const std::string& name,
                                 const BenchConfig& config) {
  if (name == "single-covid") return MakeSingleCovid(config);
  if (name == "fleet-steady") return MakeFleet(config, /*replan=*/false);
  if (name == "fleet-replan") return MakeFleet(config, /*replan=*/true);
  if (name == "serve-churn") return MakeServeChurn(config);
  return nullptr;
}

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "sky_e2e: %s\nusage: sky_e2e --workload "
               "single-covid|fleet-steady|fleet-replan|serve-churn [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--json PATH] "
               "[--out-dir DIR]\n       sky_e2e --selftest [--seed N]\n",
               error.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(flag + " needs a value");
      return argv[++i];
    };
    auto number = [&](const std::string& text) {
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !std::isfinite(v) || v < 0) {
        Usage("bad value '" + text + "' for " + flag);
      }
      return v;
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(number(value()));
    } else if (flag == "--seconds") {
      args.seconds = number(value());
    } else if (flag == "--trace") {
      std::string v = value();
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else if (flag == "--json") {
      args.json_path = value();
    } else if (flag == "--out-dir") {
      args.out_dir = value();
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (!args.selftest &&
      std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Usage("unknown workload '" + args.workload + "'");
  }
  return args;
}

// --- Output -----------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + Quote(metrics[i].name) + ": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string Array(const std::vector<double>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) out += (i ? ", " : "") + Num(xs[i]);
  return out + "]";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// --- Metric derivation ------------------------------------------------------

/// Cost of one WallNow() call, the clock every span reads.
double ClockReadSeconds() {
  constexpr int kReads = 100000;
  double t = WallNow();
  for (int i = 0; i < kReads; ++i) WallNow();
  return (WallNow() - t) / kReads;
}

std::vector<double> Ratios(const std::vector<Iteration>& its,
                           double Iteration::*num, double Iteration::*den) {
  std::vector<double> out;
  for (const Iteration& it : its) {
    if (it.*den > 0) out.push_back(it.*num / (it.*den));
  }
  return out;
}

/// The gated end-to-end metrics of the untraced passes.
std::vector<Metric> EndToEndMetrics(const std::vector<Iteration>& its,
                                    const std::vector<double>& setup_s) {
  double quality = 0.0, segments = 0.0, usd = 0.0, video = 0.0;
  for (const Iteration& it : its) {
    quality += it.total_quality;
    segments += it.segments;
    usd += it.cloud_usd;
    video += it.video_s;
  }
  std::vector<Metric> m;
  SetMetric(&m, "mean_quality", segments > 0 ? quality / segments : 0.0,
            "fraction");
  SetMetric(&m, "cloud_usd_per_video_day",
            video > 0 ? usd / (video / 86400.0) : 0.0, "USD");
  SetMetric(&m, "setup_s", Median(setup_s), "s");
  SetMetric(&m, "peak_rss_mb", PeakRssMb(), "MiB");
  return m;
}

/// Throughput and latency of the passes `its`, with the sample counts in
/// `details`. On a shared host their medians did not repeat within 10%
/// across two sets of runs, so they carry no bound: the traced run reports
/// them as per-layer metrics (from its untraced passes) and the untraced
/// run as details.
std::vector<Metric> TimingMetrics(const std::vector<Iteration>& its,
                                  std::vector<Metric>* details) {
  std::vector<double> admit, session;
  for (const Iteration& it : its) {
    admit.insert(admit.end(), it.admit_ms.begin(), it.admit_ms.end());
    session.insert(session.end(), it.session_s.begin(), it.session_s.end());
  }
  std::vector<Metric> m;
  SetMetric(&m, "video_s_per_wall_s",
            Median(Ratios(its, &Iteration::video_s, &Iteration::wall_s)),
            "video-s/s");
  SetMetric(&m, "video_s_per_cpu_s",
            Median(Ratios(its, &Iteration::video_s, &Iteration::cpu_s)),
            "video-s/cpu-s");
  SetMetric(&m, "admit_ms_p50", Quantile(admit, 0.5), "ms");
  SetMetric(&m, "admit_ms_p90", Quantile(admit, 0.9), "ms");
  SetMetric(&m, "session_s_p50", Quantile(session, 0.5), "s");
  SetMetric(&m, "session_s_p90", Quantile(session, 0.9), "s");
  SetMetric(details, "admit_samples", static_cast<double>(admit.size()),
            "count");
  SetMetric(details, "session_samples", static_cast<double>(session.size()),
            "count");
  return m;
}

/// StreamSet::boundary_latencies_ms() pooled over a run's untraced passes.
struct UntracedBoundaries {
  std::vector<double> ms;
  double wall_s = 0.0;
};

std::vector<Metric> LayerMetrics(const LayerTotals& t, const ReplayCosts& r,
                                 const IoProbe& io,
                                 const core::OfflineStepRuntimes& offline,
                                 const UntracedBoundaries& untraced,
                                 double trace_overhead) {
  auto div = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double P = static_cast<double>(t.workers);
  const double worker_time = P * t.wall_s;
  const double video_s =
      1e-6 * (t.steps * r.segment_us +
              std::max(0.0, t.content_at_calls - t.steps) * r.content_at_us);
  const double workloads_s =
      1e-6 * (div(t.true_quality_calls, static_cast<double>(t.configs)) *
                  r.truth_vector_us +
              t.measured_calls * r.measured_quality_us);
  // Without a StreamSet of its own (single engines, the served fleet) the
  // boundary windows come from the traced pass.
  const bool pooled = !untraced.ms.empty();
  const std::vector<double>& bms = pooled ? untraced.ms : t.boundary_ms;
  double pooled_ms = 0.0;
  for (double ms : untraced.ms) pooled_ms += ms;
  const double boundary_share =
      pooled ? div(1e-3 * pooled_ms, untraced.wall_s)
             : div(t.boundary_window_s, t.wall_s);
  // Serial phases (engine starts, boundary windows) hold every worker.
  const double engine_self_s =
      t.steps_s - video_s - workloads_s + P * t.start_s;
  const double tracer_s = t.step_spans * ClockReadSeconds();
  const double covered = P * t.start_s + t.steps_s + P * t.boundary_window_s +
                         t.idle_s + t.io_s + t.serve_s + tracer_s;

  std::vector<Metric> m;
  SetMetric(&m, "video.content_samples_per_segment",
            div(t.content_at_calls, t.steps), "count");
  SetMetric(&m, "video.segment_us", r.segment_us, "us");
  SetMetric(&m, "video.content_at_us", r.content_at_us, "us");
  SetMetric(&m, "video.share", div(video_s, worker_time), "fraction");
  SetMetric(&m, "workloads.true_quality_calls_per_segment",
            div(t.true_quality_calls, t.steps), "count");
  SetMetric(&m, "workloads.truth_vector_us", r.truth_vector_us, "us");
  SetMetric(&m, "workloads.measured_quality_us", r.measured_quality_us, "us");
  SetMetric(&m, "workloads.share", div(workloads_s, worker_time), "fraction");
  SetMetric(&m, "core.engine.step_us", 1e6 * div(t.steps_s, t.steps), "us");
  SetMetric(&m, "core.engine.self_share", div(engine_self_s, worker_time),
            "fraction");
  SetMetric(&m, "core.engine.prepare_boundary_us",
            1e6 * div(t.prepare_s, t.prepare_calls), "us");
  SetMetric(&m, "core.engine.install_plan_us",
            1e6 * div(t.install_s, t.install_calls), "us");
  SetMetric(&m, "core.engine.boundaries",
            div(t.boundaries, static_cast<double>(t.iterations)), "count");
  SetMetric(&m, "core.engine.boundary_share", div(t.boundary_window_s, t.wall_s),
            "fraction");
  SetMetric(&m, "core.planner.solve_us", 1e6 * div(t.solve_s, t.solves), "us");
  SetMetric(&m, "core.planner.groups_rebuilt_per_boundary",
            div(t.groups_rebuilt, t.solves), "count");
  SetMetric(&m, "core.planner.groups_rescaled_per_boundary",
            div(t.groups_rescaled, t.solves), "count");
  SetMetric(&m, "core.multi_stream.boundary_ms_p50", Quantile(bms, 0.5), "ms");
  SetMetric(&m, "core.multi_stream.boundary_ms_p99", Quantile(bms, 0.99), "ms");
  SetMetric(&m, "core.multi_stream.boundary_share", boundary_share, "fraction");
  SetMetric(&m, "dag.workers", P, "count");
  SetMetric(&m, "dag.worker_busy_share", div(t.worker_busy_s, worker_time),
            "fraction");
  SetMetric(&m, "dag.straggler_ratio", div(t.straggler_max_s, t.straggler_mean_s),
            "ratio");
  SetMetric(&m, "dag.idle_share", div(t.idle_s, worker_time), "fraction");
  SetMetric(&m, "io.model_load_ms", io.model_load_ms, "ms");
  SetMetric(&m, "io.model_bytes", io.model_bytes, "bytes");
  SetMetric(&m, "io.checkpoint_serialize_ms", io.checkpoint_serialize_ms, "ms");
  SetMetric(&m, "io.checkpoint_bytes", io.checkpoint_bytes, "bytes");
  SetMetric(&m, "io.share", div(t.io_s, worker_time), "fraction");
  SetMetric(&m, "serve.sessions_accepted", 0.0, "count");
  SetMetric(&m, "serve.sessions_rejected", 0.0, "count");
  SetMetric(&m, "serve.share", div(t.serve_s, worker_time), "fraction");
  SetMetric(&m, "core.offline.filter_configs_s", offline.filter_configs_s, "s");
  SetMetric(&m, "core.offline.filter_placements_s", offline.filter_placements_s,
            "s");
  SetMetric(&m, "core.offline.content_categories_s",
            offline.content_categories_s, "s");
  SetMetric(&m, "core.offline.forecast_training_data_s",
            offline.forecast_training_data_s, "s");
  SetMetric(&m, "core.offline.forecast_training_s", offline.forecast_training_s,
            "s");
  SetMetric(&m, "loadgen.sessions_offered", 0.0, "count");
  SetMetric(&m, "trace.overhead", trace_overhead, "ratio");
  SetMetric(&m, "trace.coverage", div(covered, worker_time), "fraction");
  return m;
}

// --- Driver -------------------------------------------------------------------

struct RunOutput {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  uint64_t fingerprint = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  std::vector<double> setup_s;
  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
};

RunOutput Run(const Args& args) {
  RunOutput out;
  BenchConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.smoke = args.smoke;
  config.out_dir = args.out_dir;
  std::unique_ptr<Bench> bench = MakeBench(args.workload, config);
  auto fail = [&out](const std::string& what) {
    out.correct = false;
    out.errors.push_back(what);
  };

  for (int rep = 0; rep < (args.smoke ? 1 : kSetupReps); ++rep) {
    bench->ReleaseSetup();
    double t = WallNow();
    Status st = bench->Setup();
    out.setup_s.push_back(WallNow() - t);
    if (!st.ok()) {
      fail("setup: " + st.ToString());
      return out;
    }
  }
  if (Status st = bench->WarmUp(); !st.ok()) {
    fail("warm-up: " + st.ToString());
    return out;
  }

  LayerTotals totals;
  std::vector<Span> spans;
  const double deadline = WallNow() + args.seconds;
  if (bench->open_loop()) {
    if (args.trace) {
      out.traced.push_back(bench->RunTraced(&totals, &spans));
    } else {
      out.untraced.push_back(bench->RunUntraced());
    }
  } else {
    // Whole passes only, and none that would run past the window.
    double pass_s = 0.0;
    do {
      double t = WallNow();
      out.untraced.push_back(bench->RunUntraced());
      if (args.trace) out.traced.push_back(bench->RunTraced(&totals, &spans));
      pass_s = WallNow() - t;
    } while (!args.smoke && WallNow() + pass_s <= deadline);
  }

  for (const std::vector<Iteration>* its : {&out.untraced, &out.traced}) {
    for (const Iteration& it : *its) {
      out.attempted += it.attempted;
      out.failed += it.failed;
      if (!it.error.empty()) fail(it.error);
      if (it.overflow_events != 0) {
        fail("buffer overflow events: the engine fell behind the stream");
      }
      if (!bench->open_loop()) {
        if (out.fingerprint == 0) out.fingerprint = it.fingerprint;
        if (it.fingerprint != out.fingerprint) {
          fail("result fingerprint changed between passes of one input");
        }
      }
    }
  }

  // The open-loop workload runs no untraced pass in a traced run; its
  // traced window carries the same load.
  std::vector<Metric> timing = TimingMetrics(
      out.untraced.empty() ? out.traced : out.untraced, &out.details);
  bench->AddTimingMetrics(&timing);
  if (!args.trace) {
    out.metrics = EndToEndMetrics(out.untraced, out.setup_s);
  } else {
    ReplayCosts replay;
    IoProbe io;
    if (Status st = bench->ProbeLayers(&replay, &io); !st.ok()) {
      fail("layer probes: " + st.ToString());
    }
    UntracedBoundaries boundaries;
    std::vector<double> untraced_wall, traced_wall;
    if (!bench->open_loop()) {
      for (const Iteration& it : out.untraced) {
        boundaries.ms.insert(boundaries.ms.end(), it.boundary_ms.begin(),
                             it.boundary_ms.end());
        boundaries.wall_s += it.wall_s;
        untraced_wall.push_back(it.wall_s);
      }
      for (const Iteration& it : out.traced) traced_wall.push_back(it.wall_s);
    }
    // The open-loop workload's trace adds nothing to its load window.
    double overhead = bench->open_loop()
                          ? 1.0
                          : Median(traced_wall) / Median(untraced_wall);
    out.metrics = LayerMetrics(totals, replay, io, bench->step_runtimes(),
                               boundaries, overhead);
    bench->AddLayerMetrics(&out.metrics);
    if (!bench->open_loop()) {
      SetMetric(&out.details, "core.multi_stream.boundary_samples",
                static_cast<double>(boundaries.ms.empty()
                                        ? totals.boundary_ms.size()
                                        : boundaries.ms.size()),
                "count");
    }
    std::string trace_path = args.out_dir + "/" + args.workload + ".trace.json";
    if (!spans.empty() && !WriteChromeTrace(trace_path, spans)) {
      fail("could not write " + trace_path);
    }
  }
  for (const Metric& m : timing) {
    SetMetric(args.trace ? &out.metrics : &out.details, m.name, m.value, m.unit);
  }
  bench->AddDetails(&out.details);
  return out;
}

void WriteDetails(const Args& args, const RunOutput& out) {
  std::ofstream f(args.json_path);
  if (!f) {
    std::fprintf(stderr, "sky_e2e: cannot write %s\n", args.json_path.c_str());
    return;
  }
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, out.fingerprint);
  auto per_iteration = [](const std::vector<Iteration>& its, auto field) {
    std::vector<double> xs;
    for (const Iteration& it : its) xs.push_back(field(it));
    return xs;
  };
  const std::vector<Iteration>& its =
      args.trace ? out.traced : out.untraced;
  std::vector<double> admit, session;
  for (const Iteration& it : out.untraced) {
    admit.insert(admit.end(), it.admit_ms.begin(), it.admit_ms.end());
    session.insert(session.end(), it.session_s.begin(), it.session_s.end());
  }
  std::string errors = "[";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i ? ", " : "") + Quote(out.errors[i]);
  }
  errors += "]";
  f << "{\n"
    << "  \"workload\": " << Quote(args.workload) << ",\n"
    << "  \"seed\": " << args.seed << ",\n"
    << "  \"seconds\": " << Num(args.seconds) << ",\n"
    << "  \"trace\": " << (args.trace ? 1 : 0) << ",\n"
    << "  \"smoke\": " << (args.smoke ? "true" : "false") << ",\n"
    << "  \"correct\": " << (out.correct ? "true" : "false") << ",\n"
    << "  \"errors\": " << errors << ",\n"
    << "  \"attempted\": " << out.attempted << ",\n"
    << "  \"failed\": " << out.failed << ",\n"
    << "  \"result_fnv1a\": \"" << fp << "\",\n"
    << "  \"env\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << Quote(CpuModel()) << ", \"kernel_backend\": "
    << Quote(ml::KernelBackendName(ml::ActiveKernelBackend())) << "},\n"
    << "  \"metrics\": " << MetricsObject(out.metrics) << ",\n"
    << "  \"details\": " << MetricsObject(out.details) << ",\n"
    << "  \"samples\": {\n"
    << "    \"setup_s\": " << Array(out.setup_s) << ",\n"
    << "    \"iteration_wall_s\": "
    << Array(per_iteration(its, [](const Iteration& it) { return it.wall_s; }))
    << ",\n"
    << "    \"untraced_wall_s\": "
    << Array(per_iteration(out.untraced,
                           [](const Iteration& it) { return it.wall_s; }))
    << ",\n"
    << "    \"video_s_per_wall_s\": "
    << Array(Ratios(out.untraced, &Iteration::video_s, &Iteration::wall_s))
    << ",\n"
    << "    \"video_s_per_cpu_s\": "
    << Array(Ratios(out.untraced, &Iteration::video_s, &Iteration::cpu_s))
    << ",\n"
    << "    \"admit_ms\": " << Array(admit) << ",\n"
    << "    \"session_s\": " << Array(session) << "\n"
    << "  }\n"
    << "}\n";
}

/// Same seed -> same fingerprint, another seed -> another fingerprint, on
/// the deterministic workloads at smoke size.
int SelfTest(const Args& args) {
  bool ok = true;
  for (const char* name : {"single-covid", "fleet-replan"}) {
    uint64_t fp[3] = {0, 0, 0};
    const uint64_t seeds[3] = {args.seed, args.seed, args.seed + 1};
    for (int k = 0; k < 3; ++k) {
      BenchConfig config;
      config.seed = seeds[k];
      config.smoke = true;
      config.out_dir = args.out_dir;
      std::unique_ptr<Bench> bench = MakeBench(name, config);
      Status st = bench->Setup();
      Iteration it = st.ok() ? bench->RunUntraced() : Iteration{};
      if (!st.ok() || !it.error.empty()) {
        std::printf("selftest %s seed %" PRIu64 ": run failed: %s\n", name,
                    seeds[k],
                    st.ok() ? it.error.c_str() : st.ToString().c_str());
        ok = false;
      }
      fp[k] = it.fingerprint;
    }
    bool same = fp[0] == fp[1];
    bool differs = fp[0] != fp[2];
    std::printf("selftest %s: same seed %s (%016" PRIx64
                "), other seed %s (%016" PRIx64 ")\n",
                name, same ? "same" : "DIFFERENT", fp[0],
                differs ? "differs" : "SAME", fp[2]);
    ok = ok && same && differs;
  }
  std::printf("selftest %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace sky::e2e

int main(int argc, char** argv) {
  using namespace sky::e2e;
  Args args = ParseArgs(argc, argv);
  if (args.selftest) return SelfTest(args);

  RunOutput out = Run(args);
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016" PRIx64, out.fingerprint);
  std::printf("%s result_fnv1a %s\n", args.workload.c_str(), fp);
  for (const Metric& m : out.metrics) {
    std::printf("%s %s %s %s\n", args.workload.c_str(), m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  for (const Metric& m : out.details) {
    std::printf("%s %s %s %s\n", args.workload.c_str(), m.name.c_str(),
                Num(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "sky_e2e: %s: check failed: %s\n",
                 args.workload.c_str(), e.c_str());
  }
  if (!args.json_path.empty()) WriteDetails(args, out);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false", out.attempted, out.failed,
              MetricsObject(out.metrics).c_str());
  return out.correct ? 0 : 1;
}
