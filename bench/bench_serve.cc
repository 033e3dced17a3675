// `sky serve` overheads. Three headline metrics land in BENCH_serve.json:
//  - admission latency: OpenSession round-trip against an idle (held)
//    server — the full frame/queue/planner-feasibility/AddStream path;
//  - steady-state overhead: wall time of an 8-stream fleet stepped through
//    the serve stack (sessions opened, results fetched over the socket)
//    versus the identical in-process StreamSet Step() loop: one untimed
//    warm-up pair, then 9 trial pairs, the side that runs first alternating
//    from pair to pair. GATED on the median ratio: the serve layer may cost
//    at most 10% on top of in-process.
//  - recovery: time to rebuild a 64-stream fleet from its boundary
//    checkpoint (StreamSet::RecoverFromCheckpoint), tracked ungated.
//
// Served results are also checked bitwise against the in-process run — an
// overhead number for a wrong answer would be meaningless.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/skyscraper.h"
#include "api/workload_registry.h"
#include "bench_common.h"
#include "core/multi_stream.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/stats.h"

namespace {

constexpr char kModelPath[] = "bench_serve_model.bin";

sky::api::Resources BenchResources() {
  sky::api::Resources r;
  r.cores = 4;
  r.cloud_budget_usd_per_interval = 1.0;
  return r;
}

sky::serve::SessionSpec SpecForSeed(uint64_t content_seed,
                                    double duration_days) {
  sky::serve::SessionSpec spec;
  spec.workload = "ev";
  spec.content_seed = content_seed;
  spec.start_days = 3.0;
  spec.duration_days = duration_days;
  spec.plan_interval_days = 0.125;  // 3 h lockstep boundaries
  spec.engine_seed = 71;
  return spec;
}

/// Owns the workload + facade a mirrored job borrows. Each mirror loads its
/// own copy of the model: the reference the server's one shared model is
/// compared against.
struct Tenant {
  std::unique_ptr<sky::core::Workload> workload;
  std::unique_ptr<sky::api::Skyscraper> facade;
};

/// The exact job Server::BuildJob derives from `spec`.
sky::Result<sky::core::StreamEngineJob> MirrorJob(
    const sky::serve::SessionSpec& spec, Tenant* tenant) {
  tenant->workload =
      sky::api::MakeWorkloadByName(spec.workload, spec.content_seed);
  tenant->facade =
      std::make_unique<sky::api::Skyscraper>(tenant->workload.get());
  tenant->facade->SetResources(BenchResources());
  SKY_RETURN_NOT_OK(
      tenant->facade->LoadModel(kModelPath, tenant->workload->name()));
  sky::core::EngineOptions opts;
  opts.duration = sky::Days(spec.duration_days);
  opts.plan_interval = sky::Days(spec.plan_interval_days);
  opts.seed = spec.engine_seed;
  opts.record_trace = spec.record_trace;
  opts.trace_resolution_s = spec.trace_resolution_s;
  opts.work_budget_override = spec.work_budget_override;
  return tenant->facade->MakeStreamJob(sky::Days(spec.start_days), opts);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sky;
  using namespace sky::bench;
  (void)argc;
  (void)argv;
  std::printf("=== sky serve overheads ===\n");

  // Train-once: the model every served session loads.
  auto base_workload = api::MakeWorkloadByName("ev");
  api::Skyscraper trainer(base_workload.get());
  trainer.SetResources(BenchResources());
  core::OfflineOptions offline;
  offline.segment_seconds = 4.0;
  offline.train_horizon = Days(3);
  offline.num_categories = 3;
  offline.train_forecaster = false;
  WallTimer offline_timer;
  if (Status st = trainer.Fit(offline); !st.ok()) {
    std::printf("offline failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = trainer.SaveModel(kModelPath, base_workload->name());
      !st.ok()) {
    std::printf("save model failed: %s\n", st.ToString().c_str());
    return 1;
  }
  double offline_s = offline_timer.Seconds();

  bool gates_ok = true;
  auto gate = [&gates_ok](bool ok, const char* what) {
    if (!ok) {
      std::printf("GATE FAILED: %s\n", what);
      gates_ok = false;
    }
  };

  serve::ServerOptions base_opts;
  base_opts.model_path = kModelPath;
  base_opts.workload = "ev";
  base_opts.resources = BenchResources();

  // --- Admission latency: opens against a held clock ----------------------
  // start_after far above the open count keeps the fleet at boundary 0, so
  // every round-trip measures the admission path itself, not a wait for
  // the next boundary.
  constexpr size_t kAdmissions = 16;
  std::vector<double> admission_ms;
  {
    serve::ServerOptions opts = base_opts;
    opts.start_after_sessions = 1u << 20;
    auto server = serve::Server::Start(opts);
    if (!server.ok()) {
      std::printf("server start failed: %s\n",
                  server.status().ToString().c_str());
      return 1;
    }
    auto client = serve::Client::Connect((*server)->port());
    if (!client.ok()) {
      std::printf("connect failed: %s\n", client.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < kAdmissions; ++i) {
      WallTimer t;
      auto admitted = client->OpenSession(SpecForSeed(100 + i, 0.25));
      gate(admitted.ok(), "admission succeeds on an uncapped server");
      admission_ms.push_back(t.Seconds() * 1e3);
    }
    (void)client->Drain();
    (void)(*server)->Wait();
  }
  double admission_p50 = Percentile(admission_ms, 50.0);
  double admission_p99 = Percentile(admission_ms, 99.0);
  std::printf("admission latency over %zu opens: p50 %.3f ms, p99 %.3f ms\n",
              kAdmissions, admission_p50, admission_p99);

  // --- Steady-state overhead: serve stack vs in-process -------------------
  // Sessions are opened while the server holds the clock and the timer
  // starts when the last open (which releases the hold) returns, so the
  // measured window is the stepping loop: compute + frame/queue overhead,
  // not connection or model-load setup. The in-process mirror times the
  // same fleet's Step() loop.
  // 2 simulated days keeps each measured window long enough (hundreds of
  // ms) that scheduler noise does not dominate the ratio. One ratio on a
  // shared host reads noise, so the gate reads the median of kTrials pairs,
  // timed after one warm-up pair, with the served fleet going first in
  // every other pair.
  constexpr size_t kStreams = 8;
  constexpr double kDurationDays = 2.0;
  constexpr int kTrials = 9;
  // Steps the fleet through a server; the wall, or -1 on a failure.
  auto time_served = [&](std::vector<core::EngineResult>* served) {
    serve::ServerOptions opts = base_opts;
    opts.start_after_sessions = kStreams;
    auto server = serve::Server::Start(opts);
    if (!server.ok()) {
      std::printf("server start failed: %s\n",
                  server.status().ToString().c_str());
      return -1.0;
    }
    auto client = serve::Client::Connect((*server)->port());
    if (!client.ok()) {
      std::printf("connect failed: %s\n", client.status().ToString().c_str());
      return -1.0;
    }
    uint64_t ids[kStreams];
    for (size_t i = 0; i < kStreams; ++i) {
      // Sequential opens from one client: slot i gets seed 200 + i.
      auto admitted = client->OpenSession(SpecForSeed(200 + i, kDurationDays));
      if (!admitted.ok()) {
        std::printf("open failed: %s\n", admitted.status().ToString().c_str());
        return -1.0;
      }
      ids[i] = admitted->first;
    }
    served->assign(kStreams, core::EngineResult{});
    WallTimer t;  // the last open released the hold: stepping starts now
    for (size_t i = 0; i < kStreams; ++i) {
      auto result = client->FetchResult(ids[i]);
      if (!result.ok()) {
        std::printf("fetch failed: %s\n", result.status().ToString().c_str());
        return -1.0;
      }
      (*served)[i] = std::move(*result);
    }
    double wall = t.Seconds();
    (void)client->Drain();
    (void)(*server)->Wait();
    return wall;
  };
  // Steps the same fleet in process; the wall, or -1 on a failure.
  auto time_in_process =
      [&](std::vector<Result<core::EngineResult>>* results) {
    std::vector<Tenant> tenants(kStreams);
    std::vector<core::StreamEngineJob> jobs;
    for (size_t i = 0; i < kStreams; ++i) {
      auto job = MirrorJob(SpecForSeed(200 + i, kDurationDays), &tenants[i]);
      if (!job.ok()) {
        std::printf("mirror job failed: %s\n",
                    job.status().ToString().c_str());
        return -1.0;
      }
      jobs.push_back(*job);
    }
    core::StreamSetOptions set_opts;
    set_opts.planning = core::MultiStreamPlanning::kJoint;
    auto fleet = core::StreamSet::Create(std::move(jobs), set_opts);
    if (!fleet.ok()) {
      std::printf("fleet create failed: %s\n",
                  fleet.status().ToString().c_str());
      return -1.0;
    }
    WallTimer t;
    while (!fleet->Done()) {
      if (Status st = fleet->Step(); !st.ok()) {
        std::printf("step failed: %s\n", st.ToString().c_str());
        return -1.0;
      }
    }
    double wall = t.Seconds();
    *results = fleet->Results();
    return wall;
  };
  std::vector<core::EngineResult> served;
  std::vector<Result<core::EngineResult>> results;
  Result<TrialPairs> overhead = RunTrialPairs(
      kTrials, [&] { return time_served(&served); },
      [&] { return time_in_process(&results); },
      [&](int pair, double serve_wall, double inproc_wall) {
        for (size_t i = 0; i < kStreams; ++i) {
          gate(results[i].ok() &&
                   core::EngineResultsIdentical(*results[i], served[i]),
               "served results bitwise match the in-process fleet");
        }
        std::printf("%s %d (%s first): serve %.3f s, in-process %.3f s, "
                    "ratio %.3f\n",
                    pair == 0 ? "warm-up" : "trial", pair,
                    pair % 2 == 0 ? "serve" : "in-process", serve_wall,
                    inproc_wall, serve_wall / inproc_wall);
      });
  if (!overhead.ok()) return 1;
  const double ratio_median = overhead->ratio_median;
  std::printf("steady-state overhead ratio: median %.3f of %d trials "
              "(quartiles %.3f / %.3f) (gate: <= 1.10)\n",
              ratio_median, kTrials, overhead->ratio_p25,
              overhead->ratio_p75);
  gate(ratio_median <= 1.10,
       "serve steady-state overhead within 10% of in-process");

  // --- Recovery: 64-stream fleet from a boundary checkpoint ---------------
  constexpr size_t kRecoverStreams = 64;
  const std::string ckpt_path = "bench_serve_ckpt.bin";
  double recover_s = 0.0;
  {
    auto model = trainer.model();
    std::vector<Tenant> tenants(kRecoverStreams);
    auto make_jobs = [&]() {
      std::vector<core::StreamEngineJob> jobs;
      for (size_t i = 0; i < kRecoverStreams; ++i) {
        auto job = MirrorJob(SpecForSeed(400 + i, 0.25), &tenants[i]);
        if (!job.ok()) {
          std::printf("mirror job failed: %s\n",
                      job.status().ToString().c_str());
          std::exit(1);
        }
        jobs.push_back(*job);
      }
      return jobs;
    };
    core::StreamSetOptions set_opts;
    set_opts.planning = core::MultiStreamPlanning::kJoint;
    auto fleet = core::StreamSet::Create(make_jobs(), set_opts);
    if (!fleet.ok() || !fleet->RunUntilElapsed(Hours(3)).ok() ||
        !fleet->SaveCheckpoint(ckpt_path).ok()) {
      std::printf("could not stage the 64-stream checkpoint\n");
      return 1;
    }
    WallTimer t;
    auto recovered =
        core::StreamSet::RecoverFromCheckpoint(make_jobs(), ckpt_path,
                                               set_opts);
    recover_s = t.Seconds();
    gate(recovered.ok(), "64-stream checkpoint recovers");
    std::printf("recover %zu streams from boundary checkpoint: %.3f s\n",
                kRecoverStreams, recover_s);
    std::remove(ckpt_path.c_str());
  }
  std::remove(kModelPath);

  BenchJson json("serve");
  json.Set("offline_wall_s", offline_s);
  json.Set("admission_opens", static_cast<double>(kAdmissions));
  json.Set("admission_latency_p50_ms", admission_p50);
  json.Set("admission_latency_p99_ms", admission_p99);
  json.Set("steady_streams", static_cast<double>(kStreams));
  json.Set("steady_duration_days", kDurationDays);
  json.Set("overhead_trials", static_cast<double>(kTrials));
  overhead->SetTrials(&json, "serve_wall_s", "inproc_wall_s",
                      "serve_overhead_ratio");
  json.Set("serve_wall_s_median", Percentile(overhead->walls_a, 50.0));
  json.Set("inproc_wall_s_median", Percentile(overhead->walls_b, 50.0));
  json.Set("serve_overhead_ratio_p25", overhead->ratio_p25);
  json.Set("serve_overhead_ratio_median", ratio_median);
  json.Set("serve_overhead_ratio_p75", overhead->ratio_p75);
  json.Set("overhead_gate", ratio_median <= 1.10 ? "pass" : "fail");
  json.Set("recover_streams", static_cast<double>(kRecoverStreams));
  json.Set("recover_64stream_s", recover_s);
  std::string path = json.Write();
  if (!path.empty()) std::printf("metrics written to %s\n", path.c_str());
  return gates_ok ? 0 : 1;
}
