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
                       ComputeJointKnobPlan(streams, budget, &workspace_));
  last_groups_rebuilt_ = workspace_.num_groups;
  return Status::Ok();
}

StreamSet::Stream StreamSet::StartStream(const StreamEngineJob& job) {
  Stream s;
  s.job = job;
  if (job.workload == nullptr || job.model == nullptr ||
      job.cost_model == nullptr) {
    s.status = Status::InvalidArgument("null pointer in stream job");
    return s;
  }
  s.engine = std::make_unique<IngestionEngine>(
      job.workload, job.model, job.cluster, job.cost_model, job.options);
  s.status = s.engine->Start(job.start_time);
  return s;
}

Status StreamSet::CheckLockstepCadence(const Stream& s) const {
  if (options_.planning != MultiStreamPlanning::kJoint || !s.Active()) {
    return Status::Ok();
  }
  // Every live member passed this check on joining, so the first one
  // decides for the fleet.
  for (const Stream& member : streams_) {
    if (!member.Active()) continue;
    if (s.job.model->segment_seconds != member.job.model->segment_seconds ||
        s.engine->segments_per_interval() !=
            member.engine->segments_per_interval()) {
      return Status::InvalidArgument(
          "joint planning requires every stream to share one segment "
          "length and plan interval (lockstep boundaries)");
    }
    break;
  }
  return Status::Ok();
}

Result<StreamSet> StreamSet::Create(std::vector<StreamEngineJob> jobs,
                                    StreamSetOptions options) {
  StreamSet set(options);
  set.streams_.reserve(jobs.size());
  for (const StreamEngineJob& job : jobs) {
    Stream s = StartStream(job);
    SKY_RETURN_NOT_OK(set.CheckLockstepCadence(s));
    set.streams_.push_back(std::move(s));
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
    Stream& s = set->streams_[v];
    if (!sc.status.ok()) {
      // The stream was already quarantined when the checkpoint was taken;
      // it comes back quarantined with the same error.
      s.status = sc.status;
      continue;
    }
    if (!sc.has_state) continue;
    if (s.engine == nullptr) {
      return Status::InvalidArgument(
          "checkpoint holds engine state for a job with null pointers");
    }
    Result<IngestState> state =
        io::DeserializeIngestState(sc.state, *s.job.model);
    SKY_RETURN_NOT_OK(state.status());
    SKY_RETURN_NOT_OK(s.engine->Restore(*state));
  }
  return set;
}

bool StreamSet::AtLockstepBoundary() const {
  if (options_.planning != MultiStreamPlanning::kJoint) return true;
  for (const Stream& s : streams_) {
    if (s.Active() && !s.engine->AtPlanBoundary()) return false;
  }
  return true;
}

Result<size_t> StreamSet::AddStream(const StreamEngineJob& job) {
  if (!AtLockstepBoundary()) {
    return Status::FailedPrecondition(
        "streams can only join the fleet at a lockstep plan boundary");
  }
  Stream s = StartStream(job);
  SKY_RETURN_NOT_OK(s.status);
  SKY_RETURN_NOT_OK(CheckLockstepCadence(s));
  streams_.push_back(std::move(s));
  return streams_.size() - 1;
}

Status StreamSet::RemoveStream(size_t v) {
  if (v >= streams_.size()) {
    return Status::InvalidArgument("stream index out of range");
  }
  Stream& s = streams_[v];
  if (s.Active() && !s.engine->AtPlanBoundary()) {
    return Status::FailedPrecondition(
        "a live stream can only leave the fleet at a lockstep plan boundary");
  }
  s.engine = nullptr;
  s.boundary_ckpt = nullptr;
  // The slot stays occupied so indices (and Results() job order) remain
  // stable; it reads as a terminal, non-restartable state from here on.
  s.status = Status::FailedPrecondition("stream removed from the fleet");
  return Status::Ok();
}

Status StreamSet::ReconfigureStream(size_t v, const StreamReconfig& changes) {
  if (v >= streams_.size() || streams_[v].engine == nullptr) {
    return Status::InvalidArgument("no such stream");
  }
  Stream& s = streams_[v];
  if (!s.status.ok()) {
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
    s.engine->set_cloud_budget_usd_per_interval(
        *changes.cloud_budget_usd_per_interval);
  }
  if (changes.work_budget_override.has_value()) {
    s.engine->set_work_budget_override(*changes.work_budget_override);
  }
  return Status::Ok();
}

double StreamSet::CheapestFleetCostCoreSPerVideoS() const {
  double total = 0.0;
  for (const Stream& s : streams_) {
    if (!s.Active()) continue;
    const std::vector<double>& costs = s.engine->config_costs();
    if (costs.empty()) continue;
    total += *std::min_element(costs.begin(), costs.end());
  }
  return total;
}

size_t StreamSet::total_restarts() const {
  size_t total = 0;
  for (const Stream& s : streams_) total += s.restarts_used;
  return total;
}

Status StreamSet::CaptureCheckpoint(io::FleetCheckpoint* out) const {
  out->streams.clear();
  out->streams.resize(streams_.size());
  for (size_t v = 0; v < streams_.size(); ++v) {
    const Stream& s = streams_[v];
    io::StreamCheckpoint& sc = out->streams[v];
    sc.status = s.status;
    if (s.engine == nullptr || !s.engine->started()) continue;
    Result<IngestState> snap = s.engine->Checkpoint();
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

void StreamSet::CaptureBoundaryCheckpoint(Stream& s) const {
  if (options_.max_stream_restarts == 0) return;
  Result<IngestState> snap = s.engine->Checkpoint();
  // A failed snapshot is not fatal: the stream simply keeps (or lacks) its
  // previous restore point, and a later failure quarantines it as if
  // supervision were off.
  if (!snap.ok()) return;
  s.boundary_ckpt = std::make_unique<IngestState>(std::move(*snap));
}

Status StreamSet::AdvanceStream(Stream& s, int64_t target_index) {
  IngestionEngine& e = *s.engine;
  const bool supervise = options_.max_stream_restarts > 0;
  while (s.status.ok() && !e.Done() &&
         e.next_segment_index() < target_index) {
    if (supervise && e.AtPlanBoundary()) CaptureBoundaryCheckpoint(s);
    Status stepped;
    try {
      stepped = e.Step();
    } catch (const std::exception& ex) {
      stepped = Status::Internal(ex.what());
    } catch (...) {
      stepped = Status::Internal("stream engine threw");
    }
    if (stepped.ok()) continue;
    if (supervise && s.boundary_ckpt != nullptr &&
        s.restarts_used < options_.max_stream_restarts) {
      // Supervised restart: rewind to the last boundary snapshot and replay.
      // One-shot injected faults stay consumed across Restore, so a replay
      // can get past the failure; a persistent failure burns through the
      // budget and quarantines below.
      ++s.restarts_used;
      Status restored = e.Restore(*s.boundary_ckpt);
      if (restored.ok()) continue;
      stepped = restored;
    }
    s.status = stepped;
  }
  return s.status;
}

bool StreamSet::Done() const {
  for (const Stream& s : streams_) {
    if (s.Active()) return false;
  }
  return true;
}

Status StreamSet::JointPlanBoundaryIfDue() {
  // Live streams hit boundaries in lockstep (validated on joining): either
  // all of them are due or none is.
  bool any_due = false;
  bool any_not_due = false;
  for (const Stream& s : streams_) {
    if (!s.Active()) continue;
    (s.engine->AtPlanBoundary() ? any_due : any_not_due) = true;
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
  for (size_t v = 0; v < streams_.size(); ++v) {
    Stream& s = streams_[v];
    if (!s.Active()) continue;
    // Per-stream boundary maintenance (online forecaster fine-tune +
    // forecast) runs exactly as a self-planning engine would.
    Status prepared = s.engine->PrepareBoundary();
    if (!prepared.ok()) {
      s.status = prepared;
      continue;
    }
    StreamPlanInput in;
    in.categories = &s.job.model->categories;
    in.forecast = s.engine->boundary_forecast();
    in.config_costs = s.engine->config_costs();
    inputs_.push_back(std::move(in));
    planned_.push_back(v);
    derived_budget += s.engine->PlanBudgetCoreSPerVideoS();
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
    for (size_t v : planned_) {
      Stream& s = streams_[v];
      const KnobPlan* previous = s.engine->current_plan();
      KnobPlan fallback =
          previous != nullptr
              ? *previous
              : s.engine->FallbackPlan(s.engine->boundary_forecast());
      Status installed = s.engine->InstallPlan(std::move(fallback));
      if (!installed.ok()) {
        s.status = installed;
      } else {
        CaptureBoundaryCheckpoint(s);
      }
    }
    record_latency();
    return Status::Ok();
  }
  if (!solved.ok()) {
    for (size_t v : planned_) streams_[v].status = solved;
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
    const Stream& s = streams_[planned_[idx]];
    const EngineOptions& opts = s.engine->options();
    // A stream inside an injected cloud outage cannot spend credits this
    // interval, so its share must not enter the pool either — otherwise the
    // joint planner would lend money the outage makes unspendable.
    if (opts.enable_cloud && !s.engine->CloudOutageNow()) {
      pooled_credits += *opts.cloud_budget_usd_per_interval;
    }
    double burst_core_s =
        std::max(0.0, joint_plans_[idx].expected_work -
                          static_cast<double>(s.job.cluster.cores)) *
        opts.plan_interval;
    needs[idx] = s.job.cost_model->CoreSecondsToUsd(burst_core_s);
    total_need += needs[idx];
  }
  for (size_t idx = 0; idx < planned_.size(); ++idx) {
    Stream& s = streams_[planned_[idx]];
    double allotted;
    if (total_need <= pooled_credits) {
      allotted = needs[idx] + (pooled_credits - total_need) /
                                  static_cast<double>(planned_.size());
    } else {
      allotted = pooled_credits * needs[idx] / total_need;
    }
    Status installed =
        s.engine->InstallPlan(std::move(joint_plans_[idx]), allotted);
    if (!installed.ok()) {
      s.status = installed;
    } else {
      // Snapshot AFTER the install: a supervised restart replays the
      // interval under the already-installed plan instead of re-entering
      // the (fleet-wide) joint solve for one stream.
      CaptureBoundaryCheckpoint(s);
    }
  }
  record_latency();
  return Status::Ok();
}

Status StreamSet::Step() {
  if (options_.planning == MultiStreamPlanning::kJoint) {
    SKY_RETURN_NOT_OK(JointPlanBoundaryIfDue());
  }
  for (Stream& s : streams_) {
    if (!s.Active()) continue;
    // Net one segment of forward progress even across a supervised restart
    // (a restart rewinds to the boundary and replays up to the target), so
    // joint-mode lockstep survives mid-interval failures.
    AdvanceStream(s, s.engine->next_segment_index() + 1);
  }
  return Status::Ok();
}

Status StreamSet::RunToCompletion(dag::ThreadPool* pool,
                                  const std::function<bool()>& on_boundary) {
  if (options_.planning == MultiStreamPlanning::kIndependent) {
    if (on_boundary != nullptr) {
      return Status::InvalidArgument(
          "a boundary callback needs joint planning's lockstep boundaries");
    }
    // Streams are fully independent simulations: one stream per pool slot,
    // each stepped straight through — identical results for any thread
    // count.
    dag::ParallelFor(pool, streams_.size(), [&](size_t v) {
      if (!streams_[v].Active()) return;
      AdvanceStream(streams_[v], std::numeric_limits<int64_t>::max());
    });
    return Status::Ok();
  }

  // Joint mode: sharded barrier scheduler. Stream v belongs to worker
  // v % workers for the whole run; the calling thread is worker 0, and pool
  // threads join it: all of them when on_boundary may admit streams, else
  // no more than there are streams. Between boundaries each worker steps
  // only its own shard through the plan interval, with no shared mutable
  // state and no locks. At each lockstep boundary, once every worker has
  // arrived, the calling thread runs on_boundary and JointPlanBoundaryIfDue
  // alone (streams in index order, as Step() would), and a second arrival
  // releases everyone. Leading from the calling thread keeps what the
  // window allocates (a server's admitted engines, say) in one malloc
  // arena. Results are bitwise-identical for any worker count and to
  // Step(): engines are independent between boundaries, and the planner
  // sees the same call sequence.
  size_t workers = 1 + (pool == nullptr ? 0 : pool->num_threads());
  if (on_boundary == nullptr) {
    workers = std::max<size_t>(1, std::min(workers, streams_.size()));
  }
  dag::Barrier barrier(workers);
  std::atomic<bool> stop{false};
  Status boundary_status;  // caller writes pre-stop; read after the join

  auto coordinate = [&] {
    try {
      // The caller's window comes first: it may end the run here, or
      // change the membership that Done() and the solve read.
      bool go_on = on_boundary == nullptr || !AtLockstepBoundary() ||
                   on_boundary();
      if (!go_on || Done()) {
        stop.store(true);
        return;
      }
      boundary_status = JointPlanBoundaryIfDue();
    } catch (const std::exception& e) {
      boundary_status = Status::Internal(e.what());
    } catch (...) {
      boundary_status = Status::Internal("plan boundary threw");
    }
    if (!boundary_status.ok()) stop.store(true);
  };
  auto worker = [&](size_t w) {
    for (;;) {
      for (size_t v = w; v < streams_.size(); v += workers) {
        Stream& s = streams_[v];
        if (!s.Active()) continue;
        // Per-stream failures (error Status or a throwing workload) are
        // recorded on the stream — or absorbed by a supervised restart —
        // and never abandon the barrier protocol: the worker must keep
        // arriving for its peers, or the set would deadlock on one bad
        // stream. AdvanceStream targets the end of the current interval.
        int64_t spi = s.engine->segments_per_interval();
        int64_t next = s.engine->next_segment_index();
        AdvanceStream(s, next - (next % spi) + spi);
      }
      barrier.ArriveAndWait();
      if (w == 0) coordinate();
      barrier.ArriveAndWait();
      if (stop.load()) return;
    }
  };

  // The boundary the run starts at, before any worker starts.
  coordinate();
  if (stop.load()) return boundary_status;
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
  out.reserve(streams_.size());
  for (const Stream& s : streams_) {
    if (!s.status.ok()) {
      out.push_back(s.status);
    } else if (s.engine == nullptr || !s.engine->Done()) {
      out.push_back(Status::FailedPrecondition("stream not finished"));
    } else {
      out.push_back(s.engine->partial_result());
    }
  }
  return out;
}

Result<std::vector<KnobPlan>> ComputeJointKnobPlan(
    const std::vector<StreamPlanInput>& streams,
    double budget_core_s_per_video_s, PlanWorkspace* workspace) {
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

  Status solved = SolvePlanProblem(budget_core_s_per_video_s, &ws);
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
