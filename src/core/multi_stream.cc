#include "core/multi_stream.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <utility>

#include "io/checkpoint_io.h"

namespace sky::core {

int FairCoreShare(int cores, size_t num_streams) {
  if (num_streams == 0) return cores;
  return std::max(1, cores / static_cast<int>(num_streams));
}

Status JointPlanner::Plan(const std::vector<StreamPlanInput>& streams,
                          double budget, std::vector<KnobPlan>* plans) {
  if (plans == nullptr) {
    return Status::InvalidArgument("null plans output");
  }
  last_groups_rebuilt_ = 0;
  SKY_ASSIGN_OR_RETURN(*plans,
                       ComputeJointKnobPlan(streams, budget,
                                            PlannerBackend::kStructured,
                                            &workspace_));
  last_groups_rebuilt_ = workspace_.num_groups;
  return Status::Ok();
}

Result<StreamSet> StreamSet::Create(std::vector<StreamEngineJob> jobs,
                                    StreamSetOptions options) {
  StreamSet set(options);
  set.jobs_ = std::move(jobs);
  set.engines_.resize(set.jobs_.size());
  set.statuses_.assign(set.jobs_.size(), Status::Ok());
  set.boundary_ckpts_.resize(set.jobs_.size());
  set.restarts_used_.assign(set.jobs_.size(), 0);

  for (size_t v = 0; v < set.jobs_.size(); ++v) {
    const StreamEngineJob& job = set.jobs_[v];
    if (job.workload == nullptr || job.model == nullptr ||
        job.cost_model == nullptr) {
      set.statuses_[v] = Status::InvalidArgument("null pointer in stream job");
      continue;
    }
    set.engines_[v] = std::make_unique<IngestionEngine>(
        job.workload, job.model, job.cluster, job.cost_model, job.options);
    Status started = set.engines_[v]->Start(job.start_time);
    if (!started.ok()) {
      set.statuses_[v] = started;
    }
  }

  if (options.planning == MultiStreamPlanning::kJoint) {
    // Joint planning intercepts plan boundaries across streams; they only
    // line up when every stream shares the boundary cadence.
    double seg_s = -1.0;
    int64_t segs_per_interval = -1;
    for (size_t v = 0; v < set.jobs_.size(); ++v) {
      if (!set.Active(v)) continue;
      double seg = set.jobs_[v].model->segment_seconds;
      int64_t segs = set.engines_[v]->segments_per_interval();
      if (seg_s < 0.0) {
        seg_s = seg;
        segs_per_interval = segs;
      } else if (seg != seg_s || segs != segs_per_interval) {
        return Status::InvalidArgument(
            "joint planning requires every stream to share one segment "
            "length and plan interval (lockstep boundaries)");
      }
    }
  }
  return set;
}

Result<StreamSet> StreamSet::RecoverFromCheckpoint(
    std::vector<StreamEngineJob> jobs, const std::string& path,
    StreamSetOptions options) {
  Result<io::FleetCheckpoint> loaded = io::LoadFleetCheckpoint(path);
  SKY_RETURN_NOT_OK(loaded.status());
  return RecoverFromCheckpoint(std::move(jobs), *loaded, options);
}

Result<StreamSet> StreamSet::RecoverFromCheckpoint(
    std::vector<StreamEngineJob> jobs, const io::FleetCheckpoint& ckpt,
    StreamSetOptions options) {
  if (jobs.size() < ckpt.streams.size()) {
    return Status::InvalidArgument(
        "checkpoint holds more streams than the provided jobs");
  }
  Result<StreamSet> set = StreamSet::Create(std::move(jobs), options);
  SKY_RETURN_NOT_OK(set.status());
  // Trailing jobs beyond the checkpointed count joined the fleet after the
  // snapshot (rolling restart); they were started fresh by Create above.
  for (size_t v = 0; v < ckpt.streams.size(); ++v) {
    const io::StreamCheckpoint& sc = ckpt.streams[v];
    if (!sc.status.ok()) {
      // The stream was already quarantined when the checkpoint was taken;
      // it comes back quarantined with the same error.
      set->statuses_[v] = sc.status;
      continue;
    }
    if (!sc.has_state) continue;
    if (set->engines_[v] == nullptr) {
      return Status::InvalidArgument(
          "checkpoint holds engine state for a job with null pointers");
    }
    Result<IngestState> state =
        io::DeserializeIngestState(sc.state, *set->jobs_[v].model);
    SKY_RETURN_NOT_OK(state.status());
    SKY_RETURN_NOT_OK(set->engines_[v]->Restore(*state));
  }
  return set;
}

bool StreamSet::AtLockstepBoundary() const {
  if (options_.planning != MultiStreamPlanning::kJoint) return true;
  for (size_t v = 0; v < engines_.size(); ++v) {
    if (Active(v) && !engines_[v]->AtPlanBoundary()) return false;
  }
  return true;
}

Result<size_t> StreamSet::AddStream(const StreamEngineJob& job) {
  if (!AtLockstepBoundary()) {
    return Status::FailedPrecondition(
        "streams can only join the fleet at a lockstep plan boundary");
  }
  if (job.workload == nullptr || job.model == nullptr ||
      job.cost_model == nullptr) {
    return Status::InvalidArgument("null pointer in stream job");
  }
  auto engine = std::make_unique<IngestionEngine>(
      job.workload, job.model, job.cluster, job.cost_model, job.options);
  SKY_RETURN_NOT_OK(engine->Start(job.start_time));
  if (options_.planning == MultiStreamPlanning::kJoint) {
    // Lockstep cadence was validated pairwise at Create and on every prior
    // admission, so one live reference stream decides for the fleet.
    for (size_t v = 0; v < engines_.size(); ++v) {
      if (!Active(v)) continue;
      if (job.model->segment_seconds != jobs_[v].model->segment_seconds ||
          engine->segments_per_interval() !=
              engines_[v]->segments_per_interval()) {
        return Status::InvalidArgument(
            "joint planning requires every stream to share one segment "
            "length and plan interval (lockstep boundaries)");
      }
      break;
    }
  }
  jobs_.push_back(job);
  engines_.push_back(std::move(engine));
  statuses_.push_back(Status::Ok());
  boundary_ckpts_.emplace_back();
  restarts_used_.push_back(0);
  return engines_.size() - 1;
}

Status StreamSet::RemoveStream(size_t v) {
  if (v >= engines_.size()) {
    return Status::InvalidArgument("stream index out of range");
  }
  if (Active(v) && !engines_[v]->AtPlanBoundary()) {
    return Status::FailedPrecondition(
        "a live stream can only leave the fleet at a lockstep plan boundary");
  }
  engines_[v] = nullptr;
  boundary_ckpts_[v] = nullptr;
  // The slot stays occupied so indices (and Results() job order) remain
  // stable; it reads as a terminal, non-restartable state from here on.
  statuses_[v] =
      Status::FailedPrecondition("stream removed from the fleet");
  return Status::Ok();
}

Status StreamSet::ReconfigureStream(size_t v, const StreamReconfig& changes) {
  if (v >= engines_.size() || engines_[v] == nullptr) {
    return Status::InvalidArgument("no such stream");
  }
  if (!statuses_[v].ok()) {
    return Status::FailedPrecondition(
        "cannot reconfigure a quarantined stream");
  }
  auto valid = [](const std::optional<double>& budget) {
    return !budget.has_value() ||
           (std::isfinite(*budget) && *budget >= 0.0);
  };
  if (!valid(changes.cloud_budget_usd_per_interval) ||
      !valid(changes.work_budget_override)) {
    return Status::InvalidArgument("budgets must be finite and non-negative");
  }
  if (changes.cloud_budget_usd_per_interval.has_value()) {
    engines_[v]->set_cloud_budget_usd_per_interval(
        *changes.cloud_budget_usd_per_interval);
  }
  if (changes.work_budget_override.has_value()) {
    engines_[v]->set_work_budget_override(*changes.work_budget_override);
  }
  return Status::Ok();
}

double StreamSet::CheapestFleetCostCoreSPerVideoS() const {
  double total = 0.0;
  for (size_t v = 0; v < engines_.size(); ++v) {
    if (!Active(v)) continue;
    const std::vector<double>& costs = engines_[v]->config_costs();
    if (costs.empty()) continue;
    total += *std::min_element(costs.begin(), costs.end());
  }
  return total;
}

size_t StreamSet::total_restarts() const {
  size_t total = 0;
  for (size_t used : restarts_used_) total += used;
  return total;
}

Status StreamSet::CaptureCheckpoint(io::FleetCheckpoint* out) const {
  out->streams.clear();
  out->streams.resize(engines_.size());
  for (size_t v = 0; v < engines_.size(); ++v) {
    io::StreamCheckpoint& sc = out->streams[v];
    sc.status = statuses_[v];
    if (engines_[v] == nullptr || !engines_[v]->started()) continue;
    Result<IngestState> snap = engines_[v]->Checkpoint();
    SKY_RETURN_NOT_OK(snap.status());
    SKY_RETURN_NOT_OK(io::SerializeIngestState(*snap, &sc.state));
    sc.has_state = true;
  }
  return Status::Ok();
}

Status StreamSet::SaveCheckpoint(const std::string& path) const {
  io::FleetCheckpoint ckpt;
  SKY_RETURN_NOT_OK(CaptureCheckpoint(&ckpt));
  return io::SaveFleetCheckpoint(ckpt, path);
}

void StreamSet::CaptureBoundaryCheckpoint(size_t v) {
  if (options_.max_stream_restarts == 0) return;
  Result<IngestState> snap = engines_[v]->Checkpoint();
  // A failed snapshot is not fatal: the stream simply keeps (or lacks) its
  // previous restore point, and a later failure quarantines it as if
  // supervision were off.
  if (!snap.ok()) return;
  boundary_ckpts_[v] = std::make_unique<IngestState>(std::move(*snap));
}

Status StreamSet::AdvanceStream(size_t v, int64_t target_index) {
  IngestionEngine& e = *engines_[v];
  const bool supervise = options_.max_stream_restarts > 0;
  while (statuses_[v].ok() && !e.Done() &&
         e.next_segment_index() < target_index) {
    if (supervise && e.AtPlanBoundary()) CaptureBoundaryCheckpoint(v);
    Status stepped;
    try {
      stepped = e.Step();
    } catch (const std::exception& ex) {
      stepped = Status::Internal(ex.what());
    } catch (...) {
      stepped = Status::Internal("stream engine threw");
    }
    if (stepped.ok()) continue;
    if (supervise && boundary_ckpts_[v] != nullptr &&
        restarts_used_[v] < options_.max_stream_restarts) {
      // Supervised restart: rewind to the last boundary snapshot and replay.
      // One-shot injected faults stay consumed across Restore, so a replay
      // can get past the failure; a persistent failure burns through the
      // budget and quarantines below.
      ++restarts_used_[v];
      Status restored = e.Restore(*boundary_ckpts_[v]);
      if (restored.ok()) continue;
      stepped = restored;
    }
    statuses_[v] = stepped;
  }
  return statuses_[v];
}

bool StreamSet::Done() const {
  for (size_t v = 0; v < engines_.size(); ++v) {
    if (Active(v)) return false;
  }
  return true;
}

Status StreamSet::JointPlanBoundaryIfDue() {
  // Live streams hit boundaries in lockstep (validated at Create): either
  // all of them are due or none is.
  bool any_due = false;
  bool any_not_due = false;
  for (size_t v = 0; v < engines_.size(); ++v) {
    if (!Active(v)) continue;
    (engines_[v]->AtPlanBoundary() ? any_due : any_not_due) = true;
  }
  if (!any_due) return Status::Ok();
  if (any_not_due) {
    return Status::Internal("streams fell out of lockstep plan boundaries");
  }

  auto boundary_start = std::chrono::steady_clock::now();
  auto record_latency = [&] {
    boundary_ms_.push_back(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() -
                               boundary_start)
                               .count());
  };

  inputs_.clear();
  planned_.clear();
  double derived_budget = 0.0;
  for (size_t v = 0; v < engines_.size(); ++v) {
    if (!Active(v)) continue;
    // Per-stream boundary maintenance (online forecaster fine-tune +
    // forecast) runs exactly as a self-planning engine would.
    Status prepared = engines_[v]->PrepareBoundary();
    if (!prepared.ok()) {
      statuses_[v] = prepared;
      continue;
    }
    StreamPlanInput in;
    in.categories = &jobs_[v].model->categories;
    in.forecast = engines_[v]->boundary_forecast();
    in.config_costs = engines_[v]->config_costs();
    inputs_.push_back(std::move(in));
    planned_.push_back(v);
    derived_budget += engines_[v]->PlanBudgetCoreSPerVideoS();
  }
  if (planned_.empty()) return Status::Ok();

  double budget = options_.shared_budget_core_s_per_video_s > 0.0
                      ? options_.shared_budget_core_s_per_video_s
                      : derived_budget;
  Status solved = joint_planner_.Plan(inputs_, budget, &joint_plans_);

  if (!solved.ok() && solved.code() == StatusCode::kResourceExhausted) {
    // Budget fits no configuration anywhere. A mid-run budget shock keeps
    // the previous interval's installed plan (the switcher's buffer guard
    // absorbs the overload) rather than collapsing to all-cheapest; only a
    // stream with no plan yet — the very first boundary — degrades to its
    // own all-cheapest plan, mirroring the single-stream fallback.
    for (size_t idx = 0; idx < planned_.size(); ++idx) {
      size_t v = planned_[idx];
      const KnobPlan* previous = engines_[v]->current_plan();
      KnobPlan fallback =
          previous != nullptr
              ? *previous
              : engines_[v]->FallbackPlan(engines_[v]->boundary_forecast());
      Status installed = engines_[v]->InstallPlan(std::move(fallback));
      if (!installed.ok()) {
        statuses_[v] = installed;
      } else {
        CaptureBoundaryCheckpoint(v);
      }
    }
    record_latency();
    return Status::Ok();
  }
  if (!solved.ok()) {
    for (size_t v : planned_) statuses_[v] = solved;
    return Status::Ok();
  }

  // The joint program allocated the POOLED budget; the per-stream credit
  // guards must follow it, or the plan's cloud bursts could never execute
  // beyond each stream's own even share. Re-divide the pooled credits by
  // each plan's implied cloud need (expected work above the local cores),
  // spreading any slack evenly so reactive bursting stays possible; scale
  // down proportionally when the needs exceed the pool. Total spendable
  // credits per interval remain exactly the sum of the streams' own
  // budgets — joint mode moves money, it never prints it.
  std::vector<double> needs(planned_.size(), 0.0);
  double pooled_credits = 0.0;
  double total_need = 0.0;
  for (size_t idx = 0; idx < planned_.size(); ++idx) {
    size_t v = planned_[idx];
    const EngineOptions& opts = engines_[v]->options();
    // A stream inside an injected cloud outage cannot spend credits this
    // interval, so its share must not enter the pool either — otherwise the
    // joint planner would lend money the outage makes unspendable.
    if (opts.enable_cloud && !engines_[v]->CloudOutageNow()) {
      pooled_credits += *opts.cloud_budget_usd_per_interval;
    }
    double burst_core_s =
        std::max(0.0, joint_plans_[idx].expected_work -
                          static_cast<double>(jobs_[v].cluster.cores)) *
        opts.plan_interval;
    needs[idx] = jobs_[v].cost_model->CoreSecondsToUsd(burst_core_s);
    total_need += needs[idx];
  }
  for (size_t idx = 0; idx < planned_.size(); ++idx) {
    size_t v = planned_[idx];
    double allotted;
    if (total_need <= pooled_credits) {
      allotted = needs[idx] + (pooled_credits - total_need) /
                                  static_cast<double>(planned_.size());
    } else {
      allotted = pooled_credits * needs[idx] / total_need;
    }
    Status installed =
        engines_[v]->InstallPlan(std::move(joint_plans_[idx]), allotted);
    if (!installed.ok()) {
      statuses_[v] = installed;
    } else {
      // Snapshot AFTER the install: a supervised restart replays the
      // interval under the already-installed plan instead of re-entering
      // the (fleet-wide) joint solve for one stream.
      CaptureBoundaryCheckpoint(v);
    }
  }
  record_latency();
  return Status::Ok();
}

Status StreamSet::Step() {
  if (options_.planning == MultiStreamPlanning::kJoint) {
    SKY_RETURN_NOT_OK(JointPlanBoundaryIfDue());
  }
  for (size_t v = 0; v < engines_.size(); ++v) {
    if (!Active(v)) continue;
    // Net one segment of forward progress even across a supervised restart
    // (a restart rewinds to the boundary and replays up to the target), so
    // joint-mode lockstep survives mid-interval failures.
    AdvanceStream(v, engines_[v]->next_segment_index() + 1);
  }
  return Status::Ok();
}

Status StreamSet::RunUntilElapsed(SimTime elapsed) {
  if (options_.planning == MultiStreamPlanning::kJoint) {
    // Lockstep cadence (validated at Create): every stream is equally far
    // along, so stepping the whole set while anyone is behind never
    // overshoots.
    auto behind = [&]() {
      for (size_t v = 0; v < engines_.size(); ++v) {
        if (Active(v) &&
            engines_[v]->CurrentTime() - jobs_[v].start_time < elapsed) {
          return true;
        }
      }
      return false;
    };
    while (!Done() && behind()) {
      SKY_RETURN_NOT_OK(Step());
    }
    return Status::Ok();
  }
  // Independent mode allows heterogeneous segment lengths: advance each
  // stream on its own until IT reaches the target, so fast-segment streams
  // are not dragged past the pause point by slow-segment ones.
  for (size_t v = 0; v < engines_.size(); ++v) {
    while (Active(v) &&
           engines_[v]->CurrentTime() - jobs_[v].start_time < elapsed) {
      Status stepped =
          AdvanceStream(v, engines_[v]->next_segment_index() + 1);
      if (!stepped.ok()) break;
    }
  }
  return Status::Ok();
}

Status StreamSet::RunToCompletion(dag::ThreadPool* pool) {
  if (options_.planning == MultiStreamPlanning::kIndependent) {
    // Streams are fully independent simulations: one stream per pool slot,
    // each stepped straight through — identical results for any thread
    // count.
    dag::ParallelFor(pool, engines_.size(), [&](size_t v) {
      if (!Active(v)) return;
      AdvanceStream(v, std::numeric_limits<int64_t>::max());
    });
    return Status::Ok();
  }

  // Joint mode: sharded barrier scheduler. Streams are partitioned over a
  // fixed worker set with stable affinity (stream v belongs to worker
  // v % workers for the whole run); the calling thread is worker 0 and
  // workers - 1 pool threads join it. Between boundaries every worker steps
  // only its own shard through the plan interval — no shared mutable state,
  // no locks. The lockstep plan boundary is the ONLY synchronization point:
  // workers park at the barrier, its leader runs JointPlanBoundaryIfDue in
  // a guaranteed single-threaded window (streams visited in index order,
  // exactly as the Step() driver would), then everyone resumes. Results are
  // bitwise-identical for any worker count — and to stepping the set
  // manually — because engines are independent between boundaries and the
  // planner sees the identical call sequence either way.
  size_t workers = 1 + (pool == nullptr ? 0 : pool->num_threads());
  workers = std::min(workers, engines_.size());
  if (workers == 0) workers = 1;

  dag::Barrier barrier(workers);
  std::atomic<bool> stop{false};
  Status boundary_status;  // leader writes pre-stop; read after the join

  auto coordinate = [&] {
    if (Done()) {
      stop.store(true);
      return;
    }
    try {
      Status st = JointPlanBoundaryIfDue();
      if (!st.ok()) {
        boundary_status = st;
        stop.store(true);
      }
    } catch (const std::exception& e) {
      boundary_status = Status::Internal(e.what());
      stop.store(true);
    } catch (...) {
      boundary_status = Status::Internal("joint plan boundary threw");
      stop.store(true);
    }
  };
  auto worker = [&](size_t w) {
    for (;;) {
      barrier.ArriveAndWait(coordinate);
      if (stop.load()) return;
      for (size_t v = w; v < engines_.size(); v += workers) {
        if (!Active(v)) continue;
        // Per-stream failures (error Status or a throwing workload) are
        // recorded on the stream — or absorbed by a supervised restart —
        // and never abandon the barrier protocol: the worker must keep
        // arriving for its peers, or the set would deadlock on one bad
        // stream. AdvanceStream targets the end of the current interval.
        int64_t spi = engines_[v]->segments_per_interval();
        int64_t next = engines_[v]->next_segment_index();
        AdvanceStream(v, next - (next % spi) + spi);
      }
    }
  };

  if (workers == 1) {
    worker(0);
    return boundary_status;
  }
  std::vector<std::future<void>> joined;
  joined.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    joined.push_back(pool->SubmitWithFuture([&worker, w] { worker(w); }));
  }
  worker(0);
  for (std::future<void>& f : joined) f.get();
  return boundary_status;
}

std::vector<Result<EngineResult>> StreamSet::Results() const {
  std::vector<Result<EngineResult>> out;
  out.reserve(engines_.size());
  for (size_t v = 0; v < engines_.size(); ++v) {
    if (!statuses_[v].ok()) {
      out.push_back(statuses_[v]);
    } else if (engines_[v] == nullptr || !engines_[v]->Done()) {
      out.push_back(Status::FailedPrecondition("stream not finished"));
    } else {
      out.push_back(engines_[v]->partial_result());
    }
  }
  return out;
}

Result<std::vector<KnobPlan>> ComputeJointKnobPlan(
    const std::vector<StreamPlanInput>& streams,
    double budget_core_s_per_video_s, PlannerBackend backend,
    PlanWorkspace* workspace) {
  if (streams.empty()) {
    return Status::InvalidArgument("no streams to plan for");
  }
  if (!(budget_core_s_per_video_s > 0) ||
      !std::isfinite(budget_core_s_per_video_s)) {
    return Status::InvalidArgument("budget must be positive and finite");
  }

  // One workspace group per (stream, category); stream v's groups start at
  // first_groups[v]. The coefficient assembly (Eqs. 7-9) is the same
  // AppendPlanCoefficients the single-stream planner uses, once per stream.
  PlanWorkspace local;
  PlanWorkspace& ws = workspace != nullptr ? *workspace : local;
  ws.Clear();
  std::vector<size_t> first_groups;
  first_groups.reserve(streams.size());
  for (const StreamPlanInput& s : streams) {
    if (s.categories == nullptr) {
      return Status::InvalidArgument("null categories in stream input");
    }
    auto first = AppendPlanCoefficients(*s.categories, s.forecast,
                                        s.config_costs, &ws);
    if (!first.ok()) {
      return Status::InvalidArgument("stream input shape mismatch");
    }
    first_groups.push_back(*first);
  }

  Status solved = SolvePlanProblem(budget_core_s_per_video_s, backend, &ws);
  if (!solved.ok()) {
    if (solved.code() == StatusCode::kResourceExhausted) {
      return Status::ResourceExhausted(
          "joint knob plan infeasible under the shared budget");
    }
    return solved;
  }

  std::vector<KnobPlan> plans;
  plans.reserve(streams.size());
  for (size_t v = 0; v < streams.size(); ++v) {
    const StreamPlanInput& s = streams[v];
    plans.push_back(ExtractPlan(ws, first_groups[v], *s.categories,
                                s.forecast, s.config_costs));
  }
  return plans;
}

}  // namespace sky::core
