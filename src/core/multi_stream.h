#ifndef SKYSCRAPER_CORE_MULTI_STREAM_H_
#define SKYSCRAPER_CORE_MULTI_STREAM_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/engine.h"
#include "core/planner.h"
#include "dag/thread_pool.h"
#include "io/checkpoint_io.h"
#include "util/result.h"

namespace sky::core {

/// Planner input for one stream in a multi-stream deployment (Appendix D):
/// each stream ran its own offline phase (own categories, own forecast, own
/// filtered configurations) — only the knob planner is joint.
struct StreamPlanInput {
  const ContentCategories* categories = nullptr;
  std::vector<double> forecast;      ///< r_c per category of this stream
  std::vector<double> config_costs;  ///< cost(k) per config of this stream
};

/// Solves the joint program of Appendix D (Eqs. 7-9): per-stream quality and
/// cost are summed and one shared budget constrains them all; normalization
/// holds per (stream, category). Returns one KnobPlan per stream.
///
/// The joint program is the same fractional MCKP as the single-stream one,
/// just with Σ_v C_v groups sharing one budget multiplier — lp::MckpSolver
/// solves per-stream hulls under one shared λ in O(Σ C_v·K_v · log) without
/// ever materializing the dense (Σ C_v + 1) × (V·C·K) simplex tableau that
/// tests/support's oracle::ComputeJointKnobPlan pivots on.
/// Passing a long-lived `workspace` makes repeated planning allocation-free.
Result<std::vector<KnobPlan>> ComputeJointKnobPlan(
    const std::vector<StreamPlanInput>& streams,
    double budget_core_s_per_video_s, PlanWorkspace* workspace = nullptr);

/// Appendix D's fair core allocation for streams sharing one server:
/// floor(cores / num_streams), but at least 1.
int FairCoreShare(int cores, size_t num_streams);

/// The joint knob planner a StreamSet runs at every lockstep plan boundary:
/// ComputeJointKnobPlan into a workspace the planner keeps so later
/// boundaries reuse its buffers. Nothing else lives across calls — every
/// Plan() is a pure function of that call's streams and budget, so a
/// long-lived planner, a fresh one and ComputeJointKnobPlan return
/// bitwise-identical plans on the same inputs. Not thread-safe; a
/// StreamSet calls it only from boundary barriers.
class JointPlanner {
 public:
  /// Plans all `streams` against the shared `budget`, one KnobPlan per
  /// stream into `plans`. Same validation and error contract as
  /// ComputeJointKnobPlan: kInvalidArgument on shape errors,
  /// kResourceExhausted when even all-cheapest exceeds the budget.
  Status Plan(const std::vector<StreamPlanInput>& streams, double budget,
              std::vector<KnobPlan>* plans);

  /// Instrumentation for benches: (stream, category) groups the last
  /// Plan() call solved — every group, since each boundary solves from
  /// scratch; 0 when the call failed — and groups merely rescaled, which
  /// is always 0.
  size_t last_groups_rebuilt() const { return last_groups_rebuilt_; }
  size_t last_groups_rescaled() const { return 0; }

 private:
  PlanWorkspace workspace_;
  size_t last_groups_rebuilt_ = 0;
};

/// Everything needed to run one stream's ingestion engine in a multi-stream
/// deployment: the stream's own workload and offline model (Appendix D),
/// its core share, and its engine options.
struct StreamEngineJob {
  const Workload* workload = nullptr;
  const OfflineModel* model = nullptr;
  sim::ClusterSpec cluster;
  const sim::CostModel* cost_model = nullptr;
  EngineOptions options;
  SimTime start_time = 0.0;
};

/// Per-stream knob overrides a running StreamSet accepts at plan boundaries
/// (the `sky serve` live-reconfiguration surface). Unset fields keep their
/// current value; both target EngineOptions fields the engine reads only
/// when installing a plan, so changes land at the NEXT boundary and never
/// retroactively.
struct StreamReconfig {
  std::optional<double> cloud_budget_usd_per_interval;
  std::optional<double> work_budget_override;
};

/// How a StreamSet plans its streams at each boundary.
enum class MultiStreamPlanning {
  /// Every stream runs the single-stream planner on its own budget — the
  /// even-split baseline of Appendix D (and the exact behavior of running
  /// each engine on its own).
  kIndependent,
  /// Appendix D's joint program (Eqs. 7-9): at every lockstep plan
  /// boundary, all streams' (forecast, cost) coefficients enter ONE
  /// fractional MCKP under the shared budget, so credits flow to the
  /// streams whose hard content gains the most.
  kJoint,
};

struct StreamSetOptions {
  MultiStreamPlanning planning = MultiStreamPlanning::kJoint;
  /// Shared budget for joint planning, core-seconds per video-second.
  /// When <= 0 it is derived at every boundary as the sum of each stream's
  /// own planning budget (cores + cloud credits, or the work override) —
  /// i.e. joint planning re-divides exactly the resources the independent
  /// mode splits evenly.
  double shared_budget_core_s_per_video_s = 0.0;
  /// Supervision: how many times a stream that fails mid-interval (error
  /// Status or a throwing workload UDF) is restarted from its last plan-
  /// boundary checkpoint before being declared dead. 0 (the default)
  /// disables supervision entirely — no boundary snapshots are taken and
  /// failures quarantine the stream on first strike, the exact pre-existing
  /// behavior.
  size_t max_stream_restarts = 0;
};

/// N ingestion sessions multiplexed on one shared virtual clock. Each
/// stream keeps its own workload, offline model and switcher state; the set
/// steps them together, and — in joint mode — intercepts the lockstep plan
/// boundaries to run Appendix D's joint knob planner across all live
/// streams under the shared budget.
///
///   auto set = StreamSet::Create(jobs, {.planning = kJoint});
///   size_t seen = 0;  // pause at the first boundary past the start
///   set->RunToCompletion(&pool, [&] { return seen++ < 1; });
///   set->AddStream(newcomer);                // the boundary window
///   set->RunToCompletion(&pool);             // or: while (!Done()) Step();
///   auto results = set->Results();
///
/// Independent mode is the exact semantics of running every engine on its
/// own: results are bitwise-identical to per-engine Run, for any thread
/// count.
class StreamSet {
 public:
  /// Validates and starts every stream. Jobs with null pointers (or whose
  /// engine fails to start) are recorded per-stream — Results() reports
  /// them in their slot — and do not fail the set. Joint mode additionally
  /// requires every valid stream to share the same segment length and plan
  /// interval, so boundaries hit in lockstep.
  static Result<StreamSet> Create(std::vector<StreamEngineJob> jobs,
                                  StreamSetOptions options = {});

  /// Create, then restore every stream from a fleet checkpoint written by
  /// SaveCheckpoint. The first ckpt.streams.size() jobs must describe the
  /// checkpointed fleet (same models — bitwise, or the resumed runs
  /// diverge); options need not match the original set's. Streams the
  /// checkpoint recorded as failed come back failed; streams with a
  /// serialized engine state resume from it bitwise, so completing the
  /// recovered set yields results identical to a run that never stopped.
  /// Extra trailing jobs start FRESH at their own start_time — the rolling-
  /// restart path for fleets that admitted new members after the snapshot.
  /// kNotFound for a missing file, kInvalidArgument for a corrupt one or
  /// fewer jobs than checkpointed streams.
  static Result<StreamSet> RecoverFromCheckpoint(
      std::vector<StreamEngineJob> jobs, const std::string& path,
      StreamSetOptions options = {});

  /// Same, from an already-parsed checkpoint (the serve server embeds fleet
  /// bytes inside its own checkpoint file and parses them itself).
  static Result<StreamSet> RecoverFromCheckpoint(
      std::vector<StreamEngineJob> jobs, const io::FleetCheckpoint& ckpt,
      StreamSetOptions options = {});

  StreamSet(StreamSet&&) = default;
  StreamSet& operator=(StreamSet&&) = default;

  size_t num_streams() const { return streams_.size(); }
  MultiStreamPlanning planning() const { return options_.planning; }

  /// Replaces the shared joint-planning budget (same semantics as
  /// StreamSetOptions::shared_budget_core_s_per_video_s, including <= 0 for
  /// "derive from the streams' own budgets"). Takes effect at the next plan
  /// boundary — the live-reprovisioning handle.
  void set_shared_budget(double core_s_per_video_s) {
    options_.shared_budget_core_s_per_video_s = core_s_per_video_s;
  }

  /// Wall-clock milliseconds of every joint plan boundary solved so far
  /// (PrepareBoundary through the last InstallPlan): the scheduler's tail
  /// latency surface. Empty in independent mode.
  const std::vector<double>& boundary_latencies_ms() const {
    return boundary_ms_;
  }

  /// True once no stream remains live (finished or failed).
  bool Done() const;

  // --- Dynamic fleet membership (plan-boundary operations) -----------------
  //
  // Streams may join and leave a RUNNING fleet, but only at the lockstep
  // plan boundary — the single-threaded window where every live stream sits
  // at the same virtual time and no plan is installed yet. Each boundary's
  // joint solve is a pure function of that boundary's inputs, so from that
  // boundary onward the fleet is indistinguishable from one created with
  // the final membership. This is the admission surface `sky serve` builds
  // on.

  /// True when membership operations are legal right now: every live stream
  /// sits at its plan boundary (always true when no stream is live).
  /// Independent mode has no lockstep requirement and is always true.
  bool AtLockstepBoundary() const;

  /// Admits a new stream into the running fleet and returns its index
  /// (indices are stable for the set's lifetime — slots are never reused).
  /// The stream starts at job.start_time, which for bitwise equivalence
  /// with a fresh fleet must equal the joining boundary's virtual time.
  /// kFailedPrecondition when not at a lockstep boundary; kInvalidArgument
  /// for null job pointers, a failed engine start, or (joint mode) a
  /// boundary cadence differing from the fleet's.
  Result<size_t> AddStream(const StreamEngineJob& job);

  /// Retires stream `v`: frees its engine and marks the slot
  /// kFailedPrecondition("stream removed..."). Live streams can only leave
  /// at a lockstep boundary; finished, failed, or invalid slots can be
  /// cleared any time. The slot index stays occupied (Results() keeps job
  /// order) — capture Results()[v] first if the stream finished.
  Status RemoveStream(size_t v);

  /// Applies per-stream knob overrides; effective at the next plan
  /// boundary. kInvalidArgument for an out-of-range or engine-less slot,
  /// or a budget that is negative or not finite; kFailedPrecondition for a
  /// quarantined slot.
  Status ReconfigureStream(size_t v, const StreamReconfig& changes);

  /// The fleet's all-cheapest joint cost: Σ over live streams of
  /// min_k cost(k), core-seconds per video-second — the exact feasibility
  /// threshold of the joint program (forecasts sum to 1 per stream and
  /// cost(k) is category-independent, so the cheapest joint plan costs
  /// this regardless of content). A fleet is admissible under a shared
  /// budget iff this does not exceed it; `sky serve` admission control is
  /// this comparison at the joining boundary.
  double CheapestFleetCostCoreSPerVideoS() const;

  /// Advances every live stream by one segment on the shared clock; in
  /// joint mode, runs the joint planner first when the streams sit at a
  /// plan boundary. The serial reference driver the parity tests hold
  /// RunToCompletion to.
  Status Step();

  /// Runs every stream to completion. Independent mode fans whole engine
  /// runs out on `pool` (one stream per slot); joint mode runs the calling
  /// thread and the pool's threads (all with `on_boundary`, else no more
  /// than there are streams) as workers, solves each lockstep boundary in
  /// a single-threaded window on the calling thread and fans the intervals
  /// out. Results are identical for any pool size, and identical to Step().
  ///
  /// Joint mode runs `on_boundary` in that window, before the joint solve,
  /// at every lockstep boundary the run reaches (its start, each interval's
  /// end, the last stream's finish), on the calling thread while every
  /// other worker is parked: it may call any method of the set, AddStream,
  /// RemoveStream and CaptureCheckpoint included. Returning false ends the
  /// run there, the boundary unsolved, and so does a throw (as kInternal);
  /// a later RunToCompletion or Step() resumes it bitwise. Independent mode
  /// refuses it (kInvalidArgument).
  Status RunToCompletion(dag::ThreadPool* pool = nullptr,
                         const std::function<bool()>& on_boundary = nullptr);

  /// Per-stream results in job order: the final EngineResult for finished
  /// streams, the stream's error otherwise (kFailedPrecondition for
  /// streams that are still mid-run).
  std::vector<Result<EngineResult>> Results() const;

  /// Live inspection of stream `v` (null when the job was invalid).
  const IngestionEngine* engine(size_t v) const {
    return streams_[v].engine.get();
  }

  /// The terminal error of stream `v` (Ok while live or finished).
  const Status& stream_status(size_t v) const { return streams_[v].status; }

  /// How many supervised restarts stream `v` has consumed so far.
  size_t stream_restarts(size_t v) const {
    return streams_[v].restarts_used;
  }

  /// Total supervised restarts across the fleet.
  size_t total_restarts() const;

  /// Snapshots the whole fleet into an in-memory checkpoint: per-stream
  /// quarantine status plus, for every started engine, its full serialized
  /// session state. Meaningful at a lockstep boundary, where every live
  /// stream sits at the same virtual time, but callable anywhere.
  Status CaptureCheckpoint(io::FleetCheckpoint* out) const;

  /// CaptureCheckpoint written to `path`, atomically (temp file + rename).
  Status SaveCheckpoint(const std::string& path) const;

 private:
  /// One fleet slot. Its index is the stream's id for the set's lifetime.
  struct Stream {
    StreamEngineJob job;
    /// Null when the job was invalid or the stream was removed.
    std::unique_ptr<IngestionEngine> engine;
    /// Terminal error; Ok while live or finished.
    Status status;
    /// Supervision: the last plan-boundary snapshot (stays null while
    /// supervision is off) and the restarts consumed so far.
    std::unique_ptr<IngestState> boundary_ckpt;
    size_t restarts_used = 0;

    bool Active() const {
      return engine != nullptr && status.ok() && !engine->Done();
    }
  };

  explicit StreamSet(StreamSetOptions options) : options_(options) {}

  /// Builds and starts `job`'s engine. A null pointer in the job leaves the
  /// engine null; either refusal is recorded in the returned slot's status.
  static Stream StartStream(const StreamEngineJob& job);

  /// Joint mode: kInvalidArgument unless a live `s` shares the segment
  /// length and plan interval of the fleet's live streams, so every plan
  /// boundary lands in lockstep.
  Status CheckLockstepCadence(const Stream& s) const;

  /// Joint mode: when the live streams sit at their (lockstep) plan
  /// boundary, prepare every stream, solve the joint program, and install
  /// the per-stream plans.
  Status JointPlanBoundaryIfDue();

  /// The one supervised stepping loop every driver funnels through: steps
  /// stream `s` until it finishes, fails for good, or its next segment index
  /// reaches `target_index`. A failing step (error Status or a thrown
  /// exception) consumes a restart — the engine is restored from the last
  /// boundary checkpoint and the loop continues — until the restart budget
  /// is spent, at which point the stream quarantines exactly as before.
  /// Thread-safe across distinct streams (touches only `s`).
  Status AdvanceStream(Stream& s, int64_t target_index);

  /// Snapshots `s`'s engine for supervised restarts. No-op unless
  /// max_stream_restarts > 0.
  void CaptureBoundaryCheckpoint(Stream& s) const;

  StreamSetOptions options_;
  std::vector<Stream> streams_;
  /// Solves every joint boundary; keeps only its workspace's buffers.
  JointPlanner joint_planner_;
  std::vector<KnobPlan> joint_plans_;
  std::vector<StreamPlanInput> inputs_;
  std::vector<size_t> planned_;
  std::vector<double> boundary_ms_;
};

}  // namespace sky::core

#endif  // SKYSCRAPER_CORE_MULTI_STREAM_H_
