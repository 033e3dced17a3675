// StreamSet: N ingestion sessions on one shared clock. Gates:
//  - independent-planning mode reproduces per-engine Run bitwise, for any
//    pool size;
//  - joint mode runs Appendix D's ComputeJointKnobPlan live at every
//    lockstep boundary, end to end;
//  - per-stream error semantics and the lockstep validation hold.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/multi_stream.h"
#include "dag/thread_pool.h"
#include "workloads/ev_counting.h"

namespace sky::core {
namespace {

class StreamSetTest : public ::testing::Test {
 protected:
  static constexpr size_t kStreams = 3;

  static void SetUpTestSuite() {
    cluster_.cores = 4;
    cost_model_ = new sim::CostModel(1.8);
    OfflineOptions opts;
    opts.segment_seconds = 4.0;
    opts.train_horizon = Days(3);
    opts.num_categories = 3;
    opts.train_forecaster = false;  // keep the fixture fast
    for (size_t s = 0; s < kStreams; ++s) {
      workloads_[s] =
          new workloads::EvCountingWorkload(static_cast<uint64_t>(7300 + s));
      auto model =
          RunOfflinePhase(*workloads_[s], cluster_, *cost_model_, opts);
      ASSERT_TRUE(model.ok()) << model.status().ToString();
      models_[s] = new OfflineModel(std::move(*model));
    }
  }
  static void TearDownTestSuite() {
    for (size_t s = 0; s < kStreams; ++s) {
      delete models_[s];
      delete workloads_[s];
    }
    delete cost_model_;
  }

  static std::vector<StreamEngineJob> MakeJobs() {
    std::vector<StreamEngineJob> jobs;
    for (size_t s = 0; s < kStreams; ++s) {
      StreamEngineJob job;
      job.workload = workloads_[s];
      job.model = models_[s];
      job.cluster = cluster_;
      job.cost_model = cost_model_;
      job.options.duration = Hours(6);
      job.options.plan_interval = Hours(2);
      job.options.cloud_budget_usd_per_interval = 1.0;
      job.start_time = Days(3);
      jobs.push_back(job);
    }
    return jobs;
  }

  static workloads::EvCountingWorkload* workloads_[kStreams];
  static OfflineModel* models_[kStreams];
  static sim::ClusterSpec cluster_;
  static sim::CostModel* cost_model_;
};

workloads::EvCountingWorkload* StreamSetTest::workloads_[kStreams] = {};
OfflineModel* StreamSetTest::models_[kStreams] = {};
sim::ClusterSpec StreamSetTest::cluster_;
sim::CostModel* StreamSetTest::cost_model_ = nullptr;

TEST_F(StreamSetTest, IndependentModeReproducesPerEngineRunsExactly) {
  std::vector<StreamEngineJob> jobs = MakeJobs();

  // Reference: every engine run on its own, serially.
  std::vector<EngineResult> reference;
  for (const StreamEngineJob& job : jobs) {
    IngestionEngine engine(job.workload, job.model, job.cluster,
                           job.cost_model, job.options);
    auto run = engine.Run(job.start_time);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    reference.push_back(std::move(*run));
  }

  StreamSetOptions opts;
  opts.planning = MultiStreamPlanning::kIndependent;
  dag::ThreadPool pool(3);
  for (dag::ThreadPool* p : {static_cast<dag::ThreadPool*>(nullptr), &pool}) {
    auto set = StreamSet::Create(jobs, opts);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    ASSERT_TRUE(set->RunToCompletion(p).ok());
    ASSERT_TRUE(set->Done());
    auto results = set->Results();
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t v = 0; v < jobs.size(); ++v) {
      ASSERT_TRUE(results[v].ok());
      EXPECT_TRUE(EngineResultsIdentical(reference[v], *results[v]))
          << "stream " << v << (p != nullptr ? " (pooled)" : " (serial)");
    }
  }
}

TEST_F(StreamSetTest, JointModeRunsEndToEnd) {
  auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  EXPECT_EQ(set->planning(), MultiStreamPlanning::kJoint);
  ASSERT_TRUE(set->RunToCompletion().ok());
  ASSERT_TRUE(set->Done());
  auto results = set->Results();
  ASSERT_EQ(results.size(), kStreams);
  size_t expected_segments = static_cast<size_t>(Hours(6) / 4.0);
  for (size_t v = 0; v < results.size(); ++v) {
    ASSERT_TRUE(results[v].ok()) << results[v].status().ToString();
    EXPECT_EQ(results[v]->segments, expected_segments);
    EXPECT_GT(results[v]->mean_quality, 0.0);
    EXPECT_LE(results[v]->mean_quality, 1.0);
    EXPECT_EQ(results[v]->overflow_events, 0u);
  }
}

TEST_F(StreamSetTest, JointStepwiseMatchesRunToCompletion) {
  // The manual Step() loop and the interval-at-a-time pooled loop must
  // produce identical streams (engines are independent between the
  // boundaries, which are solved identically in both drivers).
  auto stepped = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(stepped.ok());
  while (!stepped->Done()) ASSERT_TRUE(stepped->Step().ok());

  dag::ThreadPool pool(3);
  auto pooled = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(pooled.ok());
  ASSERT_TRUE(pooled->RunToCompletion(&pool).ok());

  auto a = stepped->Results();
  auto b = pooled->Results();
  ASSERT_EQ(a.size(), b.size());
  for (size_t v = 0; v < a.size(); ++v) {
    ASSERT_TRUE(a[v].ok() && b[v].ok());
    EXPECT_TRUE(EngineResultsIdentical(*a[v], *b[v])) << "stream " << v;
  }
}

TEST_F(StreamSetTest, JointPlanningRedistributesTheSharedBudget) {
  // Same resources overall: joint mode pools what independent mode splits.
  // The joint plans' expected quality sum can only match or beat the
  // independent plans' (the independent allocation is a feasible point of
  // the joint program). Compare the realized runs' planning behavior via
  // mid-run inspection of the installed plans.
  auto joint = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(joint.ok());
  StreamSetOptions iopts;
  iopts.planning = MultiStreamPlanning::kIndependent;
  auto indep = StreamSet::Create(MakeJobs(), iopts);
  ASSERT_TRUE(indep.ok());

  // Advance both one segment so the first boundary's plans are installed.
  ASSERT_TRUE(joint->Step().ok());
  ASSERT_TRUE(indep->Step().ok());
  double joint_expected = 0.0;
  double indep_expected = 0.0;
  for (size_t v = 0; v < kStreams; ++v) {
    ASSERT_NE(joint->engine(v)->current_plan(), nullptr);
    ASSERT_NE(indep->engine(v)->current_plan(), nullptr);
    joint_expected += joint->engine(v)->current_plan()->expected_quality;
    indep_expected += indep->engine(v)->current_plan()->expected_quality;
  }
  EXPECT_GE(joint_expected, indep_expected - 1e-9);
}

TEST_F(StreamSetTest, PerStreamErrorSemantics) {
  std::vector<StreamEngineJob> jobs = MakeJobs();
  jobs[1].workload = nullptr;  // poison the middle stream only
  auto set = StreamSet::Create(jobs, StreamSetOptions{});
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set->RunToCompletion().ok());
  auto results = set->Results();
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[2].ok());

  // Same contract in independent mode.
  StreamSetOptions iopts;
  iopts.planning = MultiStreamPlanning::kIndependent;
  auto indep = StreamSet::Create(jobs, iopts);
  ASSERT_TRUE(indep.ok());
  ASSERT_TRUE(indep->RunToCompletion().ok());
  auto indep_results = indep->Results();
  EXPECT_TRUE(indep_results[0].ok());
  EXPECT_EQ(indep_results[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(indep_results[2].ok());
}

TEST_F(StreamSetTest, JointModeRequiresLockstepBoundaries) {
  std::vector<StreamEngineJob> jobs = MakeJobs();
  jobs[1].options.plan_interval = Hours(3);  // misaligned cadence
  auto set = StreamSet::Create(jobs, StreamSetOptions{});
  EXPECT_FALSE(set.ok());
  EXPECT_EQ(set.status().code(), StatusCode::kInvalidArgument);

  // Independent mode has no lockstep requirement.
  StreamSetOptions iopts;
  iopts.planning = MultiStreamPlanning::kIndependent;
  auto indep = StreamSet::Create(jobs, iopts);
  ASSERT_TRUE(indep.ok());
  ASSERT_TRUE(indep->RunToCompletion().ok());
  for (const auto& r : indep->Results()) EXPECT_TRUE(r.ok());
}

TEST_F(StreamSetTest, ExplicitSharedBudgetBindsThePlans) {
  // A tiny explicit shared budget forces every stream onto cheap plans;
  // a generous one lifts expected work. Both must complete.
  StreamSetOptions tight;
  tight.shared_budget_core_s_per_video_s = 0.5;
  auto tight_set = StreamSet::Create(MakeJobs(), tight);
  ASSERT_TRUE(tight_set.ok());
  ASSERT_TRUE(tight_set->RunToCompletion().ok());

  StreamSetOptions loose;
  loose.shared_budget_core_s_per_video_s = 100.0;
  auto loose_set = StreamSet::Create(MakeJobs(), loose);
  ASSERT_TRUE(loose_set.ok());
  ASSERT_TRUE(loose_set->RunToCompletion().ok());

  double tight_work = 0.0;
  double loose_work = 0.0;
  for (size_t v = 0; v < kStreams; ++v) {
    auto t = tight_set->Results()[v];
    auto l = loose_set->Results()[v];
    ASSERT_TRUE(t.ok() && l.ok());
    tight_work += t->work_core_seconds;
    loose_work += l->work_core_seconds;
  }
  EXPECT_LT(tight_work, loose_work);
}

TEST_F(StreamSetTest, JointModeMovesPooledCloudCreditsBetweenStreams) {
  // Stream 0 brings all the cloud money; stream 1 brings none (explicit
  // 0.0) but a tiny buffer that forces it onto the cloud when allowed.
  // Independently planned, stream 1 can never spend a cent; jointly
  // planned, the pooled credits follow the plans — and the total spend
  // stays capped by the pool (joint mode moves money, it never prints it).
  std::vector<StreamEngineJob> jobs = MakeJobs();
  jobs.resize(2);
  jobs[0].options.cloud_budget_usd_per_interval = 1.0;
  jobs[1].options.cloud_budget_usd_per_interval = 0.0;
  jobs[1].options.buffer_bytes = 64ull << 20;

  StreamSetOptions iopts;
  iopts.planning = MultiStreamPlanning::kIndependent;
  auto indep = StreamSet::Create(jobs, iopts);
  ASSERT_TRUE(indep.ok());
  ASSERT_TRUE(indep->RunToCompletion().ok());
  auto indep_results = indep->Results();
  ASSERT_TRUE(indep_results[0].ok() && indep_results[1].ok());
  EXPECT_DOUBLE_EQ(indep_results[1]->cloud_usd, 0.0);

  auto joint = StreamSet::Create(jobs, StreamSetOptions{});
  ASSERT_TRUE(joint.ok());
  ASSERT_TRUE(joint->RunToCompletion().ok());
  auto joint_results = joint->Results();
  ASSERT_TRUE(joint_results[0].ok() && joint_results[1].ok());
  EXPECT_GT(joint_results[1]->cloud_usd, 0.0);
  // 3 plan intervals (6 h / 2 h), $1 pooled per interval.
  double pooled_cap = 3.0;
  EXPECT_LE(joint_results[0]->cloud_usd + joint_results[1]->cloud_usd,
            pooled_cap + 1e-9);
}

TEST_F(StreamSetTest, InfeasibleMidRunBoundaryReusesThePreviousPlan) {
  // The first boundary solves under the default (generous) budget; then the
  // shared budget collapses below the cheapest feasible point. Later
  // boundaries must keep the last good plans — not panic down to the
  // all-cheapest fallback — and the run must still complete.
  auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set->Step().ok());  // installs the first boundary's plans
  std::vector<std::vector<double>> good_alphas;
  for (size_t v = 0; v < kStreams; ++v) {
    ASSERT_NE(set->engine(v)->current_plan(), nullptr);
    good_alphas.push_back(set->engine(v)->current_plan()->alpha.data());
  }

  set->set_shared_budget(1e-4);  // infeasible from the next boundary on
  ASSERT_TRUE(set->RunToCompletion().ok());
  ASSERT_TRUE(set->Done());
  for (size_t v = 0; v < kStreams; ++v) {
    ASSERT_TRUE(set->Results()[v].ok()) << "stream " << v;
    const KnobPlan* last = set->engine(v)->current_plan();
    ASSERT_NE(last, nullptr);
    // The final interval still runs the boundary-1 plan verbatim...
    EXPECT_EQ(last->alpha.data(), good_alphas[v]) << "stream " << v;
    // ...which is not the all-cheapest emergency plan.
    KnobPlan cheapest =
        set->engine(v)->FallbackPlan(set->engine(v)->boundary_forecast());
    EXPECT_NE(last->alpha.data(), cheapest.alpha.data()) << "stream " << v;
  }
}

TEST_F(StreamSetTest, FirstBoundaryInfeasibleFallsBackToAllCheapest) {
  // With no previously installed plan to reuse, an infeasible first
  // boundary degrades to each engine's all-cheapest fallback plan.
  StreamSetOptions opts;
  opts.shared_budget_core_s_per_video_s = 1e-4;
  auto set = StreamSet::Create(MakeJobs(), opts);
  ASSERT_TRUE(set.ok());
  ASSERT_TRUE(set->Step().ok());
  for (size_t v = 0; v < kStreams; ++v) {
    const KnobPlan* plan = set->engine(v)->current_plan();
    ASSERT_NE(plan, nullptr);
    KnobPlan cheapest =
        set->engine(v)->FallbackPlan(set->engine(v)->boundary_forecast());
    EXPECT_EQ(plan->alpha.data(), cheapest.alpha.data()) << "stream " << v;
  }
  ASSERT_TRUE(set->RunToCompletion().ok());
  for (const auto& r : set->Results()) ASSERT_TRUE(r.ok());
}

TEST_F(StreamSetTest, BoundaryLatenciesRecordedPerJointBoundary) {
  auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(set.ok());
  EXPECT_TRUE(set->boundary_latencies_ms().empty());
  ASSERT_TRUE(set->RunToCompletion().ok());
  // 6 h duration / 2 h intervals = 3 joint boundaries.
  ASSERT_EQ(set->boundary_latencies_ms().size(), 3u);
  for (double ms : set->boundary_latencies_ms()) EXPECT_GE(ms, 0.0);

  // Independent mode has no joint boundaries to time.
  StreamSetOptions iopts;
  iopts.planning = MultiStreamPlanning::kIndependent;
  auto indep = StreamSet::Create(MakeJobs(), iopts);
  ASSERT_TRUE(indep.ok());
  ASSERT_TRUE(indep->RunToCompletion().ok());
  EXPECT_TRUE(indep->boundary_latencies_ms().empty());
}

TEST_F(StreamSetTest, BoundaryCallbackPausesAtABoundaryAndResumesBitwise) {
  auto reference = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->RunToCompletion().ok());
  auto ref_results = reference->Results();

  // Pause at boundary 2 (4 h into 2-h intervals) on 4 workers, then resume
  // once on 1 worker and once through Step().
  constexpr size_t kPauseAt = 2;
  dag::ThreadPool pool(3);
  for (bool by_step : {false, true}) {
    const char* label = by_step ? "resumed by Step()" : "resumed on 1 worker";
    auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
    ASSERT_TRUE(set.ok());
    size_t seen = 0;
    ASSERT_TRUE(
        set->RunToCompletion(&pool, [&] { return seen++ < kPauseAt; }).ok());
    EXPECT_EQ(seen, kPauseAt + 1) << label;
    EXPECT_FALSE(set->Done()) << label;
    EXPECT_TRUE(set->AtLockstepBoundary()) << label;
    const size_t expected = static_cast<size_t>(kPauseAt * Hours(2) / 4.0);
    for (size_t v = 0; v < kStreams; ++v) {
      EXPECT_EQ(set->engine(v)->partial_result().segments, expected)
          << label << ", stream " << v;
    }
    if (by_step) {
      while (!set->Done()) ASSERT_TRUE(set->Step().ok());
    } else {
      ASSERT_TRUE(set->RunToCompletion().ok());
    }
    auto results = set->Results();
    for (size_t v = 0; v < kStreams; ++v) {
      ASSERT_TRUE(ref_results[v].ok() && results[v].ok()) << label;
      EXPECT_TRUE(EngineResultsIdentical(*ref_results[v], *results[v]))
          << label << ", stream " << v;
    }
  }

  // Independent streams keep no common boundary to call back at.
  StreamSetOptions iopts;
  iopts.planning = MultiStreamPlanning::kIndependent;
  auto indep = StreamSet::Create(MakeJobs(), iopts);
  ASSERT_TRUE(indep.ok());
  EXPECT_EQ(indep->RunToCompletion(nullptr, [] { return true; }).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(StreamSetTest, ThrowingBoundaryCallbackEndsTheRunAndResumesBitwise) {
  // A server's boundary window runs request closures, which may throw. The
  // run must end with kInternal at that boundary, every worker released
  // (a hang here is the failure), and a later run must finish bitwise.
  auto reference = StreamSet::Create(MakeJobs(), StreamSetOptions{});
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(reference->RunToCompletion().ok());
  auto ref_results = reference->Results();

  constexpr size_t kThrowAt = 1;  // 2 h into 2-h intervals
  for (size_t workers : {1, 8}) {
    std::unique_ptr<dag::ThreadPool> pool;
    if (workers > 1) pool = std::make_unique<dag::ThreadPool>(workers - 1);
    auto set = StreamSet::Create(MakeJobs(), StreamSetOptions{});
    ASSERT_TRUE(set.ok());
    size_t seen = 0;
    Status run = set->RunToCompletion(pool.get(), [&]() -> bool {
      if (seen++ == kThrowAt) throw std::runtime_error("window failed");
      return true;
    });
    EXPECT_EQ(run.code(), StatusCode::kInternal) << workers << " workers";
    EXPECT_EQ(seen, kThrowAt + 1) << workers << " workers";
    EXPECT_TRUE(set->AtLockstepBoundary()) << workers << " workers";
    const size_t expected = static_cast<size_t>(kThrowAt * Hours(2) / 4.0);
    for (size_t v = 0; v < kStreams; ++v) {
      EXPECT_EQ(set->engine(v)->partial_result().segments, expected)
          << workers << " workers, stream " << v;
    }

    ASSERT_TRUE(set->RunToCompletion(pool.get()).ok());
    auto results = set->Results();
    for (size_t v = 0; v < kStreams; ++v) {
      ASSERT_TRUE(ref_results[v].ok() && results[v].ok());
      EXPECT_TRUE(EngineResultsIdentical(*ref_results[v], *results[v]))
          << workers << " workers, stream " << v;
    }
  }
}

}  // namespace
}  // namespace sky::core
