// serve-churn: an in-process `sky serve` server on loopback under an open
// loop. Sessions (6 h of EV video each, 1-hour plan interval) arrive at a
// jittered constant rate for the whole window, no matter how fast the
// server answers; every latency is timed from when the open was due. It is
// the only workload that exercises serve/ and io/ on the ingest path: a
// model file load per admission, protocol frames, and a serve checkpoint
// every 4 boundaries. Membership changes at almost every boundary, so the
// joint planner rebuilds hulls cold instead of rescaling them warm.
//
// Load generator: the calling thread keeps the schedule and hands each due
// open to one of two opener threads (one connection each); a third thread
// on its own connection fetches results. Four threads, three connections.

#include <dirent.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/skyscraper.h"
#include "bench.h"
#include "dag/thread_pool.h"
#include "io/atomic_file.h"
#include "io/checkpoint_io.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "util/rng.h"
#include "workloads/ev_counting.h"

namespace sky::e2e {
namespace {

constexpr double kArrivalsPerSecond = 8.0;
constexpr double kSessionDays = 0.25;  // 6 h
constexpr SimTime kPlanInterval = Hours(1);
constexpr size_t kCheckpointEvery = 4;
constexpr size_t kOpeners = 2;
constexpr size_t kMetricsEvery = 10;
constexpr double kMaxLateMs = 5.0;
constexpr double kSegmentSeconds = 2.0;
// Fixed training footage: every --seed serves the same model.
constexpr uint64_t kTrainSeed = 7100;

std::vector<int> ListTasks() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (dirent* entry = readdir(dir)) {
    int tid = std::atoi(entry->d_name);
    if (tid > 0) tids.push_back(tid);
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

/// CPU seconds thread `tid` of this process has run (0 when unreadable).
double TaskCpuSeconds(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  double ns = 0.0;
  if (!(in >> ns)) return 0.0;
  return ns * 1e-9;
}

/// The number after `"key": ` in the server's metrics JSON (0 if absent).
double JsonNumber(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// What one open-loop window measured beyond the Iteration itself.
struct WindowStats {
  size_t offered = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  std::vector<double> late_ms;
  std::vector<double> open_rtt_ms;
  std::vector<double> metrics_rtt_ms;
  double boundaries_planned = 0.0;
  double boundary_p50_ms = 0.0;
  double boundary_p99_ms = 0.0;
  double fleet_cpu_s = 0.0;
  double video_s = 0.0;  ///< video-seconds of the fetched sessions
  double final_checkpoint_bytes = 0.0;
  /// Serve checkpoint bytes read mid-window (the final ones when the
  /// window ended before the first periodic checkpoint).
  std::string mid_checkpoint;
  core::EngineResult sample_result;
};

class ServeChurn : public Bench {
 public:
  explicit ServeChurn(const BenchConfig& config)
      : config_(config),
        window_s_(config.smoke ? 1.0 : config.seconds),
        pool_(3),
        train_(kTrainSeed) {
    resources_.cores = 4;
    resources_.cloud_budget_usd_per_interval = 1.0;
    model_path_ = config.out_dir + "/serve-churn.model";
    checkpoint_path_ = config.out_dir + "/serve-churn.ckpt";
    // Jittered constant rate: one arrival at a uniformly random instant of
    // every 1/rate slot. Gaps range over (0, 2/rate), so opens still
    // collide, but every seed offers the same load without the rare large
    // clumps that would make a 20-second window's tail a lottery.
    Rng arrivals = Rng(DeriveSeed(config.seed, "arrivals", 0));
    const size_t n = static_cast<size_t>(kArrivalsPerSecond * window_s_);
    for (size_t i = 0; i < n; ++i) {
      due_s_.push_back((static_cast<double>(i) + arrivals.Uniform(0.0, 1.0)) /
                       kArrivalsPerSecond);
    }
  }

  ~ServeChurn() override {
    server_.reset();
    std::remove(model_path_.c_str());
    std::remove(checkpoint_path_.c_str());
  }

  void ReleaseSetup() override {
    server_.reset();
    model_ = core::OfflineModel{};
  }

  Status Setup() override {
    api::Skyscraper facade(&train_);
    facade.SetResources(resources_);
    core::OfflineOptions opts;
    opts.segment_seconds = kSegmentSeconds;
    opts.num_categories = 3;
    opts.forecaster.planned_interval = kPlanInterval;
    opts.pool = &pool_;
    SKY_RETURN_NOT_OK(facade.Fit(opts));
    SKY_RETURN_NOT_OK(facade.SaveModel(model_path_, train_.name()));
    Result<const core::OfflineModel*> model = facade.model();
    SKY_RETURN_NOT_OK(model.status());
    model_ = **model;

    serve::ServerOptions so;
    so.model_path = model_path_;
    so.workload = "ev";
    so.resources = resources_;
    so.checkpoint_path = checkpoint_path_;
    so.checkpoint_every_boundaries = kCheckpointEvery;
    std::vector<int> before = ListTasks();
    Result<std::unique_ptr<serve::Server>> server = serve::Server::Start(so);
    SKY_RETURN_NOT_OK(server.status());
    server_ = std::move(*server);
    server_tids_.clear();
    for (int tid : ListTasks()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        server_tids_.push_back(tid);
      }
    }
    return Status::Ok();
  }

  core::OfflineStepRuntimes step_runtimes() const override {
    return model_.step_runtimes;
  }

  // The setup passes already warm the model file and server paths; an
  // extra load window would only add sessions to the registry under test.
  Status WarmUp() override { return Status::Ok(); }

  bool open_loop() const override { return true; }

  // The offered load sets the window's wall, so video-seconds per wall
  // second would read the load generator's rate. Divide instead by the
  // seconds the server's fleet thread was busy (its CPU clock): the rate
  // it ingests while it works, which a faster server raises.
  void AddTimingMetrics(std::vector<Metric>* m) const override {
    SetMetric(m, "video_s_per_wall_s",
              stats_.fleet_cpu_s > 0 ? stats_.video_s / stats_.fleet_cpu_s
                                     : 0.0,
              "video-s/s");
  }

  Iteration RunUntraced() override { return RunWindow(false); }

  Iteration RunTraced(LayerTotals* totals, std::vector<Span>* spans) override {
    spans->clear();
    Iteration it = RunWindow(true);
    if (it.error.empty()) {
      Status accounted = Account(it, totals);
      if (!accounted.ok()) it.error = "trace accounting: " + accounted.ToString();
    }
    return it;
  }

  Status ProbeLayers(ReplayCosts* replay, IoProbe* io) override {
    *replay = MeasureReplayCosts(*SessionWorkload(0), model_,
                                 static_cast<int64_t>(Days(16) / kSegmentSeconds),
                                 static_cast<int64_t>(Days(kSessionDays) /
                                                      kSegmentSeconds));
    IoProbe probe = io_;
    SKY_RETURN_NOT_OK(ProbeModelLoad(model_, config_.out_dir + "/probe.model",
                                     &probe));
    *io = probe;
    return Status::Ok();
  }

  void AddLayerMetrics(std::vector<Metric>* m) const override {
    SetMetric(m, "serve.sessions_accepted", static_cast<double>(stats_.accepted),
              "count");
    SetMetric(m, "serve.sessions_rejected", static_cast<double>(stats_.rejected),
              "count");
    SetMetric(m, "loadgen.sessions_offered", static_cast<double>(stats_.offered),
              "count");
    SetMetric(m, "core.multi_stream.boundary_ms_p50", stats_.boundary_p50_ms,
              "ms");
    SetMetric(m, "core.multi_stream.boundary_ms_p99", stats_.boundary_p99_ms,
              "ms");
  }

  void AddDetails(std::vector<Metric>* d) const override {
    SetMetric(d, "serve.open_rtt_ms_p50", Median(stats_.open_rtt_ms), "ms");
    SetMetric(d, "serve.metrics_rtt_ms_p50", Median(stats_.metrics_rtt_ms), "ms");
    SetMetric(d, "serve.metrics_frames",
              static_cast<double>(stats_.metrics_rtt_ms.size()), "count");
    SetMetric(d, "serve.boundaries_planned", stats_.boundaries_planned, "count");
    SetMetric(d, "loadgen.late_ms_p90", Quantile(stats_.late_ms, 0.9), "ms");
    SetMetric(d, "loadgen.arrivals_per_s", kArrivalsPerSecond, "1/s");
    SetMetric(d, "io.serve_checkpoint_bytes", stats_.final_checkpoint_bytes,
              "bytes");
  }

 private:
  std::unique_ptr<workloads::EvCountingWorkload> SessionWorkload(
      size_t i) const {
    return std::make_unique<workloads::EvCountingWorkload>(
        DeriveSeed(config_.seed, "serve-camera", i));
  }

  serve::SessionSpec Spec(size_t i) const {
    serve::SessionSpec spec;
    spec.workload = "ev";
    spec.content_seed = DeriveSeed(config_.seed, "serve-camera", i);
    spec.duration_days = kSessionDays;
    spec.engine_seed = DeriveSeed(config_.seed, "serve-engine", i);
    return spec;
  }

  Iteration RunWindow(bool keep_mid_checkpoint) {
    Iteration it;
    stats_ = WindowStats{};
    const size_t n = due_s_.size();
    stats_.offered = n;
    it.attempted = n;
    if (server_ == nullptr) {
      it.error = "server not started";
      return it;
    }
    const int port = server_->port();
    std::vector<serve::Client> openers;
    for (size_t k = 0; k < kOpeners; ++k) {
      Result<serve::Client> c = serve::Client::Connect(port);
      if (!c.ok()) {
        it.error = "connect: " + c.status().ToString();
        return it;
      }
      openers.push_back(std::move(*c));
    }
    Result<serve::Client> fetch_client = serve::Client::Connect(port);
    if (!fetch_client.ok()) {
      it.error = "connect: " + fetch_client.status().ToString();
      return it;
    }

    // Per-session outcomes, written by the thread that owns the step.
    std::vector<double> admit_ms(n, -1.0), session_s(n, -1.0);
    std::vector<core::EngineResult> results(n);
    std::vector<Status> errors(n);
    std::vector<uint64_t> ids(n, 0);

    std::mutex mu;
    std::condition_variable cv;
    std::deque<size_t> to_open;   // due, waiting for a free opener
    std::deque<size_t> to_fetch;  // admitted, waiting for the fetcher
    size_t opened = 0;            // opens answered (admitted or not)
    bool schedule_done = false;

    std::map<int, double> cpu0;
    for (int tid : server_tids_) cpu0[tid] = TaskCpuSeconds(tid);
    const double t0 = WallNow();
    const double c0 = CpuNow();

    auto opener = [&](serve::Client* client) {
      for (;;) {
        size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !to_open.empty() || schedule_done; });
          if (to_open.empty()) return;
          i = to_open.front();
          to_open.pop_front();
        }
        double sent = WallNow();
        Result<std::pair<uint64_t, uint64_t>> r = client->OpenSession(Spec(i));
        double now = WallNow();
        bool metrics_due = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          admit_ms[i] = 1e3 * (now - t0 - due_s_[i]);
          stats_.open_rtt_ms.push_back(1e3 * (now - sent));
          if (r.ok()) {
            ids[i] = r->first;
            to_fetch.push_back(i);
          } else {
            errors[i] = r.status();
          }
          metrics_due = ++opened % kMetricsEvery == 0;
        }
        cv.notify_all();
        if (metrics_due) {
          double m0 = WallNow();
          Result<std::string> json = client->Metrics();
          std::lock_guard<std::mutex> lock(mu);
          if (json.ok()) stats_.metrics_rtt_ms.push_back(1e3 * (WallNow() - m0));
        }
      }
    };
    auto fetcher = [&] {
      for (;;) {
        size_t i;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] {
            return !to_fetch.empty() || (schedule_done && opened == n);
          });
          if (to_fetch.empty()) return;
          i = to_fetch.front();
          to_fetch.pop_front();
        }
        Result<core::EngineResult> r = fetch_client->FetchResult(ids[i]);
        double now = WallNow();
        std::lock_guard<std::mutex> lock(mu);
        session_s[i] = now - t0 - due_s_[i];
        if (r.ok()) {
          results[i] = std::move(*r);
        } else {
          errors[i] = r.status();
        }
      }
    };

    std::vector<std::thread> threads;
    for (serve::Client& c : openers) threads.emplace_back(opener, &c);
    threads.emplace_back(fetcher);

    // The schedule never waits for the server: each open is handed over the
    // moment it is due, and any wait for a free connection counts against
    // its admission latency, not against the schedule.
    for (size_t i = 0; i < n; ++i) {
      double due = t0 + due_s_[i];
      if (keep_mid_checkpoint && stats_.mid_checkpoint.empty() &&
          due_s_[i] >= window_s_ / 2) {
        stats_.mid_checkpoint = ReadFile(checkpoint_path_);
      }
      double wait = due - WallNow();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      stats_.late_ms.push_back(1e3 * (WallNow() - due));
      {
        std::lock_guard<std::mutex> lock(mu);
        to_open.push_back(i);
      }
      cv.notify_all();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      schedule_done = true;
    }
    cv.notify_all();
    for (std::thread& t : threads) t.join();
    // Every session has been answered; the fetcher also woke on the last
    // admission, so nothing is left in flight.
    it.wall_s = WallNow() - t0;
    it.cpu_s = CpuNow() - c0;
    for (int tid : server_tids_) {
      stats_.fleet_cpu_s =
          std::max(stats_.fleet_cpu_s, TaskCpuSeconds(tid) - cpu0[tid]);
    }

    Result<std::string> final_json = openers[0].Metrics();
    if (final_json.ok()) {
      stats_.accepted =
          static_cast<size_t>(JsonNumber(*final_json, "sessions_accepted"));
      stats_.rejected =
          static_cast<size_t>(JsonNumber(*final_json, "sessions_rejected"));
      stats_.boundaries_planned = JsonNumber(*final_json, "boundaries_planned");
      stats_.boundary_p50_ms = JsonNumber(*final_json, "boundary_p50_ms");
      stats_.boundary_p99_ms = JsonNumber(*final_json, "boundary_p99_ms");
    }
    Status drained = openers[0].Drain();
    Status waited = server_->Wait();
    server_.reset();
    std::string final_checkpoint = ReadFile(checkpoint_path_);
    stats_.final_checkpoint_bytes = static_cast<double>(final_checkpoint.size());
    // A window too short to reach a periodic checkpoint probes the final one.
    if (keep_mid_checkpoint && stats_.mid_checkpoint.empty()) {
      stats_.mid_checkpoint = std::move(final_checkpoint);
    }

    // A rejected or failed session is a counted failure, not a broken run.
    std::vector<core::EngineResult> done;
    for (size_t i = 0; i < n; ++i) {
      if (!errors[i].ok() || session_s[i] < 0.0) {
        ++it.failed;
        continue;
      }
      it.admit_ms.push_back(admit_ms[i]);
      it.session_s.push_back(session_s[i]);
      done.push_back(results[i]);
    }
    AddResults(done, kSegmentSeconds, &it);
    stats_.video_s = it.video_s;
    if (!done.empty()) stats_.sample_result = done.front();
    for (const Status& s : {final_json.status(), drained, waited}) {
      if (!s.ok()) it.error = "server shutdown: " + s.ToString();
    }
    double late_p90 = Quantile(stats_.late_ms, 0.9);
    if (late_p90 > kMaxLateMs) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "load generator ran late: p90 %.3f ms > %.1f ms", late_p90,
                    kMaxLateMs);
      it.error = buf;
    }
    return it;
  }

  /// The served fleet runs inside the server, where the benchmark cannot
  /// put spans. Its fleet thread's time is attributed from the outside, as
  /// served counts times unit costs measured here on the same inputs:
  ///  - stepping and boundaries: a traced replica of one session;
  ///  - admissions: workload construction + one model file load each;
  ///  - checkpoints: the mid-window checkpoint re-serialized and written;
  ///  - the fleet loop's own per-step work: a registry snapshot at the mean
  ///    registry size, and the StreamSet slot scans with the mean number of
  ///    retired slots (slots are never reused);
  ///  - idle: the thread's wall minus its CPU clock.
  /// Counts: Steps = served boundaries x segments per plan interval, since
  /// every lockstep interval is exactly that many fleet Steps.
  Status Account(const Iteration& it, LayerTotals* totals) {
    const size_t sessions = stats_.accepted;
    const sim::CostModel cost_model(resources_.cloud_to_onprem_cost_ratio);

    // A served session's workload is built at admission, freed at harvest.
    double w0 = WallNow();
    SessionWorkload(1).reset();
    const double workload_s = WallNow() - w0;
    std::unique_ptr<workloads::EvCountingWorkload> camera = SessionWorkload(0);
    CountingWorkload counted(camera.get());
    LayerTotals replica;
    SKY_RETURN_NOT_OK(RunEngineTraced(&counted, model_, ServedCluster(),
                                      cost_model, ServedOptions(0), Days(16),
                                      &replica, nullptr)
                          .status());
    counted.AddCountsTo(&replica);

    IoProbe probe;
    SKY_RETURN_NOT_OK(
        ProbeModelLoad(model_, config_.out_dir + "/probe.model", &probe));
    double checkpoint_s = 0.0;
    SKY_RETURN_NOT_OK(ProbeServeCheckpoint(&checkpoint_s));
    const double per_step = replica.steps > 0 ? 1.0 / replica.steps : 0.0;
    Result<double> scan_s = FleetLoopScanSeconds(sessions / 2, cost_model);
    SKY_RETURN_NOT_OK(scan_s.status());
    const double snapshot_s = RegistrySnapshotSeconds(sessions / 2);

    const double steps = it.segments;
    const double s = static_cast<double>(sessions);
    const double served_boundaries = stats_.boundaries_planned;
    const double fleet_steps =
        served_boundaries * (kPlanInterval / kSegmentSeconds);

    totals->wall_s += it.wall_s;
    totals->workers = 1;
    totals->iterations += 1;
    totals->configs = model_.configs.size();
    totals->steps += steps;
    totals->steps_s += steps * replica.steps_s * per_step;
    totals->content_at_calls += steps * replica.content_at_calls * per_step;
    totals->true_quality_calls += steps * replica.true_quality_calls * per_step;
    totals->measured_calls += steps * replica.measured_calls * per_step;
    totals->start_s += s * (workload_s + replica.start_s);
    totals->prepare_calls += s * replica.prepare_calls;
    totals->prepare_s += s * replica.prepare_s;
    totals->install_calls += s * replica.install_calls;
    totals->install_s += s * replica.install_s;
    // The served solve is joint over whoever is resident; the replica's
    // single-stream solve stands in for it.
    const double solve_s = served_boundaries * replica.solve_s / replica.solves;
    totals->solves += served_boundaries;
    totals->solve_s += solve_s;
    totals->boundaries += served_boundaries;
    totals->boundary_window_s +=
        s * (replica.prepare_s + replica.install_s) + solve_s;
    totals->io_s += s * probe.model_load_ms * 1e-3 +
                    (served_boundaries / kCheckpointEvery + 1) * checkpoint_s;
    totals->serve_s += fleet_steps * (snapshot_s + *scan_s);
    totals->worker_busy_s += stats_.fleet_cpu_s;
    totals->idle_s += std::max(0.0, it.wall_s - stats_.fleet_cpu_s);
    totals->straggler_max_s += stats_.fleet_cpu_s;
    totals->straggler_mean_s += stats_.fleet_cpu_s;
    return Status::Ok();
  }

  /// The cluster and engine options the server resolves for session `i`
  /// (api::Skyscraper::MakeStreamJob over the served Resources).
  sim::ClusterSpec ServedCluster() const {
    sim::ClusterSpec cluster;
    cluster.cores = resources_.cores;
    cluster.uplink_bytes_per_s = resources_.uplink_bytes_per_s;
    cluster.downlink_bytes_per_s = resources_.downlink_bytes_per_s;
    return cluster;
  }

  core::EngineOptions ServedOptions(size_t i) const {
    core::EngineOptions opts;
    opts.duration = Days(kSessionDays);
    opts.plan_interval = kPlanInterval;
    opts.seed = Spec(i).engine_seed;
    opts.cloud_budget_usd_per_interval = resources_.cloud_budget_usd_per_interval;
    opts.buffer_bytes = resources_.buffer_bytes;
    return opts;
  }

  /// Seconds one fleet-loop iteration spends scanning the StreamSet slots
  /// (Done, AtLockstepBoundary, Step) that `retired` removed sessions left
  /// behind. Two joint sets step the same live engine, one with those
  /// slots and one without; the per-step difference is the scan. They run
  /// in alternating rounds, so a drift of the host moves both alike.
  Result<double> FleetLoopScanSeconds(size_t retired,
                                      const sim::CostModel& cost_model) const {
    core::StreamSetOptions set_opts;
    set_opts.planning = core::MultiStreamPlanning::kJoint;
    Result<core::StreamSet> scanned = core::StreamSet::Create({}, set_opts);
    SKY_RETURN_NOT_OK(scanned.status());
    Result<core::StreamSet> bare = core::StreamSet::Create({}, set_opts);
    SKY_RETURN_NOT_OK(bare.status());
    std::unique_ptr<workloads::EvCountingWorkload> camera = SessionWorkload(0);
    core::StreamEngineJob job;
    job.workload = camera.get();
    job.model = &model_;
    job.cluster = ServedCluster();
    job.cost_model = &cost_model;
    job.options = ServedOptions(0);
    job.start_time = Days(16);
    for (size_t i = 0; i < retired; ++i) {
      Result<size_t> slot = scanned->AddStream(job);
      SKY_RETURN_NOT_OK(slot.status());
      SKY_RETURN_NOT_OK(scanned->RemoveStream(*slot));
    }
    bool done = false;
    for (core::StreamSet* set : {&*scanned, &*bare}) {
      SKY_RETURN_NOT_OK(set->AddStream(job).status());
      SKY_RETURN_NOT_OK(set->Step());  // the boundary; time the interval only
    }
    auto per_step = [&done](core::StreamSet* set) -> Result<double> {
      constexpr int kSteps = 100;
      double t = WallNow();
      for (int k = 0; k < kSteps; ++k) {
        done |= set->Done();
        done |= set->AtLockstepBoundary();
        SKY_RETURN_NOT_OK(set->Step());
      }
      return (WallNow() - t) / kSteps;
    };
    std::vector<double> diffs;
    for (int round = 0; round < 10; ++round) {
      Result<double> with = per_step(&*scanned);
      SKY_RETURN_NOT_OK(with.status());
      Result<double> without = per_step(&*bare);
      SKY_RETURN_NOT_OK(without.status());
      diffs.push_back(*with - *without);
    }
    if (done) return Status::Internal("scan replay left its plan interval");
    return std::max(0.0, Median(diffs));
  }

  /// Re-serializes the mid-window serve checkpoint the way the server
  /// builds one (engine states, fleet container, session table) and writes
  /// it through the atomic-file path; five times, medians. Fills io_ and
  /// `checkpoint_s` (serialize + write).
  Status ProbeServeCheckpoint(double* checkpoint_s) {
    if (stats_.mid_checkpoint.empty()) {
      return Status::NotFound("the server wrote no checkpoint");
    }
    Result<serve::ServeCheckpoint> ckpt =
        serve::ParseServeCheckpoint(stats_.mid_checkpoint);
    SKY_RETURN_NOT_OK(ckpt.status());
    Result<io::FleetCheckpoint> fleet =
        io::ParseFleetCheckpoint(ckpt->fleet_bytes);
    SKY_RETURN_NOT_OK(fleet.status());
    std::vector<core::IngestState> states;
    for (const io::StreamCheckpoint& sc : fleet->streams) {
      if (!sc.has_state) continue;
      Result<core::IngestState> st = io::DeserializeIngestState(sc.state, model_);
      SKY_RETURN_NOT_OK(st.status());
      states.push_back(std::move(*st));
    }
    std::vector<double> serialize_ms, write_ms;
    std::string bytes;
    const std::string path = config_.out_dir + "/probe.ckpt";
    for (int rep = 0; rep < 5; ++rep) {
      double t = WallNow();
      io::FleetCheckpoint copy = *fleet;
      size_t k = 0;
      for (io::StreamCheckpoint& sc : copy.streams) {
        if (!sc.has_state) continue;
        core::IngestState snapshot = states[k++];  // engine Checkpoint()
        SKY_RETURN_NOT_OK(io::SerializeIngestState(snapshot, &sc.state));
      }
      serve::ServeCheckpoint out = *ckpt;
      SKY_RETURN_NOT_OK(io::SerializeFleetCheckpoint(copy, &out.fleet_bytes));
      SKY_RETURN_NOT_OK(serve::SerializeServeCheckpoint(out, &bytes));
      serialize_ms.push_back(1e3 * (WallNow() - t));
      t = WallNow();
      SKY_RETURN_NOT_OK(io::AtomicWriteFile(path, bytes));
      write_ms.push_back(1e3 * (WallNow() - t));
    }
    std::remove(path.c_str());
    io_.checkpoint_serialize_ms = Median(serialize_ms);
    io_.checkpoint_bytes = static_cast<double>(stats_.mid_checkpoint.size());
    *checkpoint_s = (Median(serialize_ms) + Median(write_ms)) * 1e-3;
    return Status::Ok();
  }

  /// Seconds one SessionRegistry::Snapshot takes with `records` finished
  /// sessions on file.
  double RegistrySnapshotSeconds(size_t records) const {
    serve::SessionRegistry registry;
    for (size_t i = 0; i < records; ++i) {
      registry.MarkDone(registry.Add(Spec(i), i), stats_.sample_result);
    }
    constexpr int kReps = 200;
    double t = WallNow();
    for (int r = 0; r < kReps; ++r) snapshot_sink_ += registry.Snapshot().size();
    return (WallNow() - t) / kReps;
  }

  BenchConfig config_;
  double window_s_;
  dag::ThreadPool pool_;
  workloads::EvCountingWorkload train_;
  api::Resources resources_;
  std::string model_path_;
  std::string checkpoint_path_;
  std::vector<double> due_s_;
  core::OfflineModel model_;
  std::unique_ptr<serve::Server> server_;
  std::vector<int> server_tids_;
  WindowStats stats_;
  IoProbe io_;
  /// Keeps the replayed snapshots observable so none is optimized away.
  mutable volatile size_t snapshot_sink_ = 0;
};

}  // namespace

std::unique_ptr<Bench> MakeServeChurn(const BenchConfig& config) {
  return std::make_unique<ServeChurn>(config);
}

}  // namespace sky::e2e
